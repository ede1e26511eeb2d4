// Package failures implements the error-process substrate of Section II:
// the two error kinds, the inter-arrival laws, and synthetic
// machine-level failure traces — the superposition of P per-processor
// processes (λ_P = P·λ_ind), each arrival fail-stop with probability f
// and silent otherwise — with CSV persistence. The simulators draw their
// own arrivals from the same laws; traces feed trace replay and
// amdahl-trace.
//
// The paper's model is exponential everywhere; the Distribution interface
// generalizes the inter-arrival law to Weibull, log-normal and Gamma
// renewal processes — each calibrated to a target MTBF so rates stay
// comparable — for the robustness studies that stress the
// exponential-optimal (T*, P*) under non-memoryless failures (see
// DESIGN.md). The exponential paths sample bit-identically to the
// pre-Distribution code for fixed seeds.
//
// Substitution note: the paper parameterizes its simulator with error
// rates measured from SCR platform logs that are not public. The traces
// generated here are synthetic with exactly those published rates —
// exponential by default, the same distributional assumption the paper's
// own simulator makes — so every downstream code path (injection,
// rollback, statistics) is exercised identically.
package failures

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"amdahlyd/internal/rng"
)

// Kind distinguishes the two error sources of the model.
type Kind int

const (
	// FailStop errors interrupt the application immediately.
	FailStop Kind = iota
	// Silent errors corrupt data and are detected only by a verification.
	Silent
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case FailStop:
		return "fail-stop"
	case Silent:
		return "silent"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one failure in a trace.
type Event struct {
	// Time is the absolute occurrence time in seconds.
	Time float64
	// Kind is the error source.
	Kind Kind
	// Proc is the processor index the error struck (machine-level traces;
	// -1 for platform-level traces).
	Proc int
}

// Trace is a time-ordered failure record.
type Trace struct {
	Events []Event
	// Horizon is the trace duration: the generator guarantees no events
	// beyond it, and replay treats it as the end of knowledge.
	Horizon float64
}

// validateTraceParams checks the generator parameters other than the law.
func validateTraceParams(f float64, procs int, horizon float64, r *rng.Rand) error {
	// !(horizon > 0) also catches NaN, which would yield a silently
	// empty, headerless trace.
	if procs < 1 || !(horizon > 0) || math.IsInf(horizon, 0) {
		return fmt.Errorf("failures: invalid trace parameters P=%d horizon=%g", procs, horizon)
	}
	// !(f >= 0) also catches NaN, which would silently generate an
	// all-Silent trace ("< f" is false for every draw).
	if !(f >= 0) || f > 1 {
		return fmt.Errorf("failures: fail-stop fraction %g outside [0,1]", f)
	}
	if r == nil {
		return errors.New("failures: nil rng")
	}
	return nil
}

// GenerateTraceDist builds a synthetic machine-level trace whose
// per-processor inter-arrival times follow an arbitrary Distribution:
// each processor is an independent renewal process of the given law,
// each arrival independently fail-stop with probability f. Events are
// merged and ordered by (Time, Proc).
//
// For the exponential law this samples the identical stream as the
// historical generator (one uniform per arrival from the per-processor
// child stream, then one for the kind), so exponential traces stay
// bit-identical for fixed seeds.
func GenerateTraceDist(dist Distribution, f float64, procs int, horizon float64, r *rng.Rand) (*Trace, error) {
	if dist == nil {
		return nil, errors.New("failures: nil distribution")
	}
	if err := validateTraceParams(f, procs, horizon, r); err != nil {
		return nil, err
	}
	tr := &Trace{Horizon: horizon}
	// Preallocate the event buffer from the renewal-density estimate
	// procs × horizon/MTBF (plus a ~4σ Poisson margin): the generator's
	// dominant cost was regrowing this slice through the doubling
	// schedule, ~3× the final buffer in wasted copies and garbage.
	if mean := dist.Mean(); mean > 0 && !math.IsInf(mean, 0) {
		est := float64(procs) * horizon / mean
		// Clamp in float space: int(est) is implementation-defined once
		// est exceeds the integer range, and a negative hint would panic
		// makeslice where the generator's own event cap reports a clean
		// error. Estimates beyond maxTracePrealloc (~50 MB of events)
		// start from that cap and grow the honest way — preallocating
		// the full 16M-event ceiling up front would cost ~400 MB on what
		// is usually a parameterization error.
		hint := maxTracePrealloc
		if bound := est + 4*math.Sqrt(est) + 16; bound < maxTracePrealloc {
			hint = int(bound)
		}
		tr.Events = make([]Event, 0, hint)
	}
	for p := 0; p < procs; p++ {
		pr := r.Split(uint64(p))
		stalls := 0
		for t := dist.Sample(pr); t < horizon; {
			kind := Silent
			if pr.Float64() < f {
				kind = FailStop
			}
			tr.Events = append(tr.Events, Event{Time: t, Kind: kind, Proc: p})
			if len(tr.Events) > maxTraceEvents {
				return nil, fmt.Errorf("failures: trace exceeds %d events (distribution %s too bursty for horizon %g)",
					maxTraceEvents, dist.Name(), horizon)
			}
			// A draw below one ulp of t leaves the clock unchanged; a
			// degenerate law (underflowing samples) would otherwise spin
			// here forever appending equal-time events.
			next := t + dist.Sample(pr)
			if next > t {
				stalls = 0
			} else if stalls++; stalls > maxStalledDraws {
				return nil, fmt.Errorf("failures: distribution %s stalled trace time at %g (samples underflow)",
					dist.Name(), t)
			}
			t = next
		}
	}
	SortEvents(tr.Events)
	return tr, nil
}

// maxTraceEvents bounds a generated trace's memory footprint (~400 MB
// of events); a heavier trace is a parameterization error, not a
// workload.
const maxTraceEvents = 16 << 20

// maxStalledDraws bounds consecutive draws that fail to advance the
// trace clock before generation gives up on a degenerate law.
const maxStalledDraws = 1000

// maxTracePrealloc bounds the event-buffer preallocation hint (~2M
// events, ~50 MB); denser traces grow through append's doubling.
const maxTracePrealloc = 1 << 21

// SortEvents orders a merged event slice by (Time, Proc), stably. The
// tie-break matters: continuous draws make cross-processor time
// collisions rare but not impossible (a rounded-away increment can land
// two processors on the same float), and an unstable time-only sort then
// leaves equal-time events in platform-dependent order, breaking replay
// determinism.
func SortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Time != events[j].Time {
			return events[i].Time < events[j].Time
		}
		return events[i].Proc < events[j].Proc
	})
}

// Count returns the number of events of the given kind.
func (tr *Trace) Count(kind Kind) int {
	n := 0
	for _, e := range tr.Events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// InterArrivals returns the merged-stream inter-arrival times, the
// quantity whose distribution must be Exp(P·λ_ind) by the superposition
// property (Proposition 1.2 of [13]); tests verify this with a KS test.
func (tr *Trace) InterArrivals() []float64 {
	if len(tr.Events) == 0 {
		return nil
	}
	out := make([]float64, 0, len(tr.Events))
	prev := 0.0
	for _, e := range tr.Events {
		out = append(out, e.Time-prev)
		prev = e.Time
	}
	return out
}

// ProcInterArrivals returns the per-processor inter-arrival times,
// pooled across processors: for each processor the gaps between its own
// consecutive events. The gap from t = 0 to a processor's first event is
// excluded — it is only a renewal draw when the observation window
// starts at age zero, and a trace converted from a real log typically
// starts mid-stream, where that interval follows the residual-life
// distribution instead. The gaps returned are iid draws of the
// generating Distribution for any renewal trace — the quantity the
// per-law KS goodness-of-fit tests check — whereas the merged-stream
// InterArrivals only follow the source law in the exponential
// (superposition-closed) case.
func (tr *Trace) ProcInterArrivals() []float64 {
	if len(tr.Events) == 0 {
		return nil
	}
	last := make(map[int]float64)
	out := make([]float64, 0, len(tr.Events))
	for _, e := range tr.Events {
		if prev, seen := last[e.Proc]; seen {
			out = append(out, e.Time-prev)
		}
		last[e.Proc] = e.Time
	}
	return out
}

// WriteCSV persists the trace as "time,kind,proc" rows with a header,
// preceded by a "# horizon=<g17>" comment line. The horizon must travel
// with the file: restoring it as the last event time (the historical
// fallback) makes a saved-then-replayed trace exhaust one partial
// pattern earlier than the in-memory one.
func (tr *Trace) WriteCSV(w io.Writer) error {
	if tr.Horizon > 0 {
		if _, err := fmt.Fprintf(w, "# horizon=%s\n",
			strconv.FormatFloat(tr.Horizon, 'g', 17, 64)); err != nil {
			return err
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time", "kind", "proc"}); err != nil {
		return err
	}
	for _, e := range tr.Events {
		rec := []string{
			strconv.FormatFloat(e.Time, 'g', 17, 64),
			e.Kind.String(),
			strconv.Itoa(e.Proc),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV loads a trace written by WriteCSV. The horizon is restored
// from the "# horizon=" comment line; files predating the horizon line
// fall back to the last event time (the historical lossy behaviour,
// kept for compatibility with already-saved traces and converted real
// logs).
func ReadCSV(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	horizon := math.NaN()
	if peek, err := br.Peek(1); err == nil && peek[0] == '#' {
		line, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("failures: reading trace header: %w", err)
		}
		line = strings.TrimSpace(strings.TrimPrefix(line, "#"))
		if rest, ok := strings.CutPrefix(line, "horizon="); ok {
			h, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				return nil, fmt.Errorf("failures: trace header horizon: %w", err)
			}
			if !(h > 0) || math.IsInf(h, 0) {
				return nil, fmt.Errorf("failures: trace header horizon %g must be positive and finite", h)
			}
			horizon = h
		}
	}
	cr := csv.NewReader(br)
	// Skip any further comment lines (provenance notes in converted real
	// logs); only the first line is recognized as the horizon header.
	cr.Comment = '#'
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("failures: reading trace CSV: %w", err)
	}
	if len(rows) == 0 {
		return nil, errors.New("failures: empty trace file")
	}
	tr := &Trace{}
	for i, row := range rows[1:] {
		if len(row) != 3 {
			return nil, fmt.Errorf("failures: row %d has %d fields, want 3", i+2, len(row))
		}
		t, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return nil, fmt.Errorf("failures: row %d time: %w", i+2, err)
		}
		// NaN compares false everywhere, silently defeating both the
		// (Time, Proc) sort and the horizon validation below.
		if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return nil, fmt.Errorf("failures: row %d time %g must be finite and non-negative", i+2, t)
		}
		var kind Kind
		switch row[1] {
		case "fail-stop":
			kind = FailStop
		case "silent":
			kind = Silent
		default:
			return nil, fmt.Errorf("failures: row %d unknown kind %q", i+2, row[1])
		}
		proc, err := strconv.Atoi(row[2])
		if err != nil {
			return nil, fmt.Errorf("failures: row %d proc: %w", i+2, err)
		}
		tr.Events = append(tr.Events, Event{Time: t, Kind: kind, Proc: proc})
	}
	// Hand-converted real logs may arrive out of time order; the replay
	// cursor needs a monotone trace, and the horizon checks below need
	// the last event to be the latest one.
	SortEvents(tr.Events)
	if !math.IsNaN(horizon) {
		// Strictly beyond only: a legacy trace whose horizon fell back to
		// its last event time must survive a re-save/re-load round trip.
		if n := len(tr.Events); n > 0 && !(tr.Events[n-1].Time <= horizon) {
			return nil, fmt.Errorf("failures: event at %g beyond declared horizon %g",
				tr.Events[n-1].Time, horizon)
		}
		tr.Horizon = horizon
	} else if n := len(tr.Events); n > 0 {
		tr.Horizon = tr.Events[n-1].Time
	}
	return tr, nil
}
