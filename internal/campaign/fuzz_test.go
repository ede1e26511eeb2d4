package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzManifest holds the manifest grammar to its canonical form: no
// input makes ReadManifest panic, an accepted input holds exactly one
// JSON value, an accepted manifest's canonical bytes read back to the
// same canonical bytes, and a grid of at most 64 cells expands twice to
// the same cell IDs and seeds, or to the same error.
func FuzzManifest(f *testing.F) {
	for _, name := range PresetNames() {
		m, err := Preset(name)
		if err != nil {
			f.Fatal(err)
		}
		canon, err := m.MarshalCanonical()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(canon)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "cmd", "amdahl-exp", "testdata", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no testdata manifests (%v)", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A manifest followed by a stray bracket or junk is one value too many.
	canon, err := testManifest().MarshalCanonical()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(bytes.TrimSpace(canon), '}'))
	f.Add(append(canon, " junk"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted input is not exactly one JSON value:\n%s", data)
		}
		canon, err := m.MarshalCanonical()
		if err != nil {
			t.Fatalf("MarshalCanonical of an accepted manifest: %v", err)
		}
		back, err := ReadManifest(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("re-reading the canonical manifest: %v\n%s", err, canon)
		}
		again, err := back.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, canon) {
			t.Fatalf("canonical bytes changed on a round trip:\n%s\nvs\n%s", canon, again)
		}
		d := m.withDefaults()
		if len(d.Platforms)*len(d.Scenarios)*max(len(d.Values), 1) > 64 {
			return
		}
		if a, b := expansion(m), expansion(m); a != b {
			t.Fatalf("Expand is not deterministic:\n%s\nvs\n%s", a, b)
		}
	})
}

// expansion renders Expand's cell IDs and seeds, or its error.
func expansion(m Manifest) string {
	plan, err := Expand(m)
	if err != nil {
		return "error: " + err.Error()
	}
	var b bytes.Buffer
	for _, c := range plan.Cells {
		fmt.Fprintf(&b, "%s %d\n", c.ID, c.Seed)
	}
	return b.String()
}
