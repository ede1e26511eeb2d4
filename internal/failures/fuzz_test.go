package failures

import (
	"bytes"
	"math"
	"testing"

	"amdahlyd/internal/rng"
)

// FuzzTraceCSV holds the trace file format to its round trip: no input
// makes ReadCSV panic, and a trace it accepts, written by WriteCSV and
// read back, has the same events (time bits, kind, processor) and the
// same horizon bits.
func FuzzTraceCSV(f *testing.F) {
	tr, err := GenerateTraceDist(Exponential{Rate: 1e-4}, 0.3, 4, 5e4, rng.New(1))
	if err != nil {
		f.Fatal(err)
	}
	var generated bytes.Buffer
	if err := tr.WriteCSV(&generated); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		generated.String(),
		"time,kind,proc\n10,fail-stop,0\n20,silent,1\n",                              // no horizon line
		"# horizon=100\ntime,kind,proc\n30,silent,2\n10,fail-stop,0\n10,silent,-1\n", // out of order
		"# horizon=100\n# converted log\ntime,kind,proc\n# note\n5,silent,3\n",       // comment lines
		"# horizon=50\ntime,kind,proc\n12.5,fail-stop,0\n50,silent,1\n",              // horizon = last event
		"time,kind,proc\nNaN,silent,0\n",                                             // rejected: NaN time
		"time,kind,proc\n-1,silent,0\n",                                              // rejected: negative time
		"time,kind,proc\n1,crash,0\n",                                                // rejected: unknown kind
		"# horizon=5\ntime,kind,proc\n9,silent,0\n",                                  // rejected: beyond horizon
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV of an accepted trace: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-reading the written trace: %v\n%s", err, buf.String())
		}
		if math.Float64bits(back.Horizon) != math.Float64bits(tr.Horizon) {
			t.Fatalf("horizon %g came back as %g", tr.Horizon, back.Horizon)
		}
		if len(back.Events) != len(tr.Events) {
			t.Fatalf("%d events came back as %d", len(tr.Events), len(back.Events))
		}
		for i, e := range tr.Events {
			b := back.Events[i]
			if math.Float64bits(b.Time) != math.Float64bits(e.Time) || b.Kind != e.Kind || b.Proc != e.Proc {
				t.Fatalf("event %d %+v came back as %+v", i, e, b)
			}
		}
	})
}
