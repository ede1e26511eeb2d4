package campaign

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testManifest is the small single-level grid most tests run: 2 chains
// (Hera × scenarios 1, 3) × 2 α cells, tiny Monte-Carlo budget.
func testManifest() Manifest {
	return Manifest{
		Name:      "test",
		Seed:      7,
		Runs:      4,
		Patterns:  8,
		Platforms: []string{"Hera"},
		Scenarios: []int{1, 3},
		Axis:      AxisAlpha,
		Values:    []float64{0.1, 0.2},
	}
}

func testOptions(dir string) Options {
	return Options{
		OutDir:    dir,
		Workers:   2,
		RetryBase: time.Millisecond,
	}
}

// mustRun runs a campaign that is expected to complete.
func mustRun(t *testing.T, m Manifest, opts Options) Summary {
	t.Helper()
	sum, err := Run(context.Background(), m, opts)
	if err != nil {
		t.Fatalf("campaign run: %v", err)
	}
	if sum.ReportText == "" || sum.ReportCSV == "" {
		t.Fatalf("completed campaign without report paths: %+v", sum)
	}
	return sum
}

// reportBytes loads both report files for byte-identity comparison.
func reportBytes(t *testing.T, dir string) (txt, csv []byte) {
	t.Helper()
	txt, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	csv, err = os.ReadFile(filepath.Join(dir, "report.csv"))
	if err != nil {
		t.Fatal(err)
	}
	return txt, csv
}

func assertSameReports(t *testing.T, dirA, dirB string) {
	t.Helper()
	txtA, csvA := reportBytes(t, dirA)
	txtB, csvB := reportBytes(t, dirB)
	if string(txtA) != string(txtB) {
		t.Errorf("report.txt differs:\n--- A ---\n%s\n--- B ---\n%s", txtA, txtB)
	}
	if string(csvA) != string(csvB) {
		t.Errorf("report.csv differs:\n--- A ---\n%s\n--- B ---\n%s", csvA, csvB)
	}
}

func TestExpandDeterministicAndOrderFree(t *testing.T) {
	m := Manifest{
		Name:      "ids",
		Platforms: []string{"Hera", "Atlas"},
		Scenarios: []int{1, 3},
		Axis:      AxisAlpha,
		Values:    []float64{0.1, 0.3},
	}
	p1, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Cells) != 8 || len(p1.Chains) != 4 {
		t.Fatalf("got %d cells in %d chains, want 8 in 4", len(p1.Cells), len(p1.Chains))
	}
	for i := range p1.Cells {
		if p1.Cells[i].ID != p2.Cells[i].ID || p1.Cells[i].Seed != p2.Cells[i].Seed {
			t.Fatalf("cell %d identity not deterministic", i)
		}
	}

	// Reordering grid dimensions permutes the plan but never changes any
	// cell's identity — the resume contract.
	m.Platforms = []string{"Atlas", "Hera"}
	p3, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	ids := func(p *Plan) map[string]uint64 {
		out := make(map[string]uint64)
		for _, c := range p.Cells {
			out[c.ID] = c.Seed
		}
		return out
	}
	a, b := ids(p1), ids(p3)
	if len(a) != len(b) {
		t.Fatalf("id sets differ in size: %d vs %d", len(a), len(b))
	}
	for id, seed := range a {
		if b[id] != seed {
			t.Errorf("cell %s changed identity under reordering", id)
		}
	}

	// A different master seed moves every cell's stream but no ID.
	m.Seed = 99
	p4, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	for id, seed := range ids(p4) {
		if _, ok := b[id]; !ok {
			t.Errorf("cell ID %s changed under reseeding", id)
		}
		if b[id] == seed {
			t.Errorf("cell %s seed did not move with the master seed", id)
		}
	}
}

func TestManifestValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Manifest)
	}{
		{"unknown platform", func(m *Manifest) { m.Platforms = []string{"Tsubame"} }},
		{"bad scenario", func(m *Manifest) { m.Scenarios = []int{7} }},
		{"axis without values", func(m *Manifest) { m.Values = nil }},
		{"values without axis", func(m *Manifest) { m.Axis = AxisNone }},
		{"unknown axis", func(m *Manifest) { m.Axis = "temperature" }},
		{"negative lambda value", func(m *Manifest) { m.Axis = AxisLambda; m.Values = []float64{-1e-9} }},
		{"alpha fixed and swept", func(m *Manifest) { a := 0.3; m.Alpha = &a }},
		{"exponential with shapes", func(m *Manifest) { m.Shape = 0.7 }},
		{"weibull without shapes", func(m *Manifest) { m.Dist = "weibull" }},
		{"single-level with fractions", func(m *Manifest) { frac := 0.1; m.InMemFraction = &frac }},
		{"multilevel without fractions", func(m *Manifest) { m.Protocol = ProtocolMultilevel }},
		{"multilevel with weibull", func(m *Manifest) {
			frac := 0.1
			m.Protocol, m.InMemFraction = ProtocolMultilevel, &frac
			m.Dist, m.Shape = "weibull", 0.7
		}},
		{"frac axis with single protocol", func(m *Manifest) {
			m.Axis = AxisFraction
			m.Values = []float64{0.1, 0.5}
		}},
		{"shape axis with exponential", func(m *Manifest) {
			m.Axis = AxisShape
			m.Values = []float64{0.7}
			m.Dist = "exponential"
		}},
		{"zero runs", func(m *Manifest) { m.Runs = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := testManifest()
			tc.mut(&m)
			if err := m.Validate(); err == nil {
				t.Errorf("manifest accepted: %+v", m)
			}
		})
	}
}

func TestManifestJSONRoundTrip(t *testing.T) {
	m := testManifest()
	buf, err := m.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	buf2, err := got.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(buf2) {
		t.Errorf("canonical JSON not stable:\n%s\nvs\n%s", buf, buf2)
	}
	if _, err := ReadManifest(strings.NewReader(`{"nope": 1}`)); err == nil {
		t.Error("unknown manifest field accepted")
	}
}

// TestReadersRefuseTrailingData: a manifest or fault-plan file holds
// exactly one JSON value. A second value, junk or a stray closing
// bracket after it is refused rather than silently dropped; trailing
// whitespace is fine.
func TestReadersRefuseTrailingData(t *testing.T) {
	canon, err := testManifest().MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	manifest := strings.TrimSpace(string(canon))
	plan := `{"*":{"delay_ms":1}}`
	for _, tail := range []string{` {"name":"y"} junk`, ` trailing`, `}`, `]`, ` {}`, ` 1`} {
		if _, err := ReadManifest(strings.NewReader(manifest + tail)); err == nil {
			t.Errorf("manifest followed by %q accepted", tail)
		}
		if _, err := ReadFaultPlan(strings.NewReader(plan + tail)); err == nil {
			t.Errorf("fault plan followed by %q accepted", tail)
		}
	}
	if _, err := ReadManifest(strings.NewReader(manifest + "\n\t \n")); err != nil {
		t.Errorf("manifest with trailing whitespace refused: %v", err)
	}
	if _, err := ReadFaultPlan(strings.NewReader(plan + "\n")); err != nil {
		t.Errorf("fault plan with trailing whitespace refused: %v", err)
	}
}

func TestPresetsExpand(t *testing.T) {
	names := PresetNames()
	if len(names) < 6 {
		t.Fatalf("presets missing: %v", names)
	}
	for _, name := range names {
		m, err := Preset(name)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		p, err := Expand(m)
		if err != nil {
			t.Fatalf("preset %s does not expand: %v", name, err)
		}
		if len(p.Cells) == 0 {
			t.Errorf("preset %s expands to zero cells", name)
		}
	}
	if _, err := Preset("no-such"); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestResumeAfterCrashByteIdentical is the headline contract: damage a
// completed campaign the way a SIGKILL would — one artifact torn
// mid-write, one missing entirely — and resume; the repaired campaign's
// reports must be byte-identical to an undisturbed run.
func TestResumeAfterCrashByteIdentical(t *testing.T) {
	m := testManifest()
	clean, damaged := t.TempDir(), t.TempDir()
	mustRun(t, m, testOptions(clean))
	sumB := mustRun(t, m, testOptions(damaged))
	if sumB.Executed != sumB.Planned {
		t.Fatalf("fresh run executed %d of %d", sumB.Executed, sumB.Planned)
	}

	// Emulate the crash: truncate one artifact mid-JSON (torn write
	// survivor) and delete another; also delete the reports.
	cells, err := filepath.Glob(filepath.Join(damaged, "cells", "*.json"))
	if err != nil || len(cells) < 2 {
		t.Fatalf("artifacts: %v (%d)", err, len(cells))
	}
	full, err := os.ReadFile(cells[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cells[0], full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(cells[1]); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(damaged, "report.txt"))
	os.Remove(filepath.Join(damaged, "report.csv"))

	opts := testOptions(damaged)
	opts.Resume = true
	sum := mustRun(t, m, opts)
	if sum.Executed != 2 || sum.Skipped != sum.Planned-2 {
		t.Errorf("resume executed %d / skipped %d, want 2 / %d", sum.Executed, sum.Skipped, sum.Planned-2)
	}
	assertSameReports(t, clean, damaged)
}

// TestRetryRecoversTransientFaults proves the backoff path: injected
// errors and panics below the attempt limit recover, and the report is
// still byte-identical to a fault-free run.
func TestRetryRecoversTransientFaults(t *testing.T) {
	m := testManifest()
	clean, faulty := t.TempDir(), t.TempDir()
	mustRun(t, m, testOptions(clean))

	p, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(faulty)
	opts.MaxAttempts = 3
	opts.Faults = FaultPlan{
		p.Cells[0].ID:      {FailAttempts: 2},
		p.Cells[3].Label(): {FailAttempts: 1, Panic: true},
	}
	sum := mustRun(t, m, opts)
	if sum.Retries != 3 {
		t.Errorf("retries = %d, want 3", sum.Retries)
	}
	if sum.Failed != 0 {
		t.Errorf("failed = %d, want 0", sum.Failed)
	}
	assertSameReports(t, clean, faulty)
}

// TestFailureBudget proves fail-fast: a cell failing beyond the attempt
// limit with a zero budget aborts the campaign, banked cells survive,
// and a fault-free resume completes to the byte-identical report.
func TestFailureBudget(t *testing.T) {
	m := testManifest()
	clean, faulty := t.TempDir(), t.TempDir()
	mustRun(t, m, testOptions(clean))

	p, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(faulty)
	opts.MaxAttempts = 2
	// Fail the second cell of chain 0 permanently: cell 0 banks first,
	// proving partial progress survives a budget abort.
	opts.Faults = FaultPlan{p.Cells[1].ID: {FailAttempts: 99}}
	_, err = Run(context.Background(), m, opts)
	if err == nil {
		t.Fatal("budget-exceeded campaign reported success")
	}
	if !errors.Is(err, ErrInjected) && !strings.Contains(err.Error(), "failure budget") {
		t.Errorf("unexpected budget error: %v", err)
	}
	if _, err := os.Stat(filepath.Join(faulty, "report.txt")); !os.IsNotExist(err) {
		t.Error("failed campaign left a report behind")
	}

	opts.Faults = nil
	opts.Resume = true
	sum := mustRun(t, m, opts)
	if sum.Skipped == 0 {
		t.Error("resume after budget abort skipped nothing; no progress was banked")
	}
	assertSameReports(t, clean, faulty)
}

// TestBudgetToleratesFailuresWithoutReport: failures within the budget
// do not abort outstanding work, but still fail the campaign (no report
// from an incomplete grid).
func TestBudgetToleratesFailuresWithoutReport(t *testing.T) {
	m := testManifest()
	dir := t.TempDir()
	p, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(dir)
	opts.MaxAttempts = 1
	opts.FailureBudget = 1
	opts.Faults = FaultPlan{p.Cells[0].ID: {FailAttempts: 99}}
	sum, err := Run(context.Background(), m, opts)
	if err == nil {
		t.Fatal("campaign with a failed cell reported success")
	}
	if sum.Failed != 1 {
		t.Errorf("failed = %d, want 1", sum.Failed)
	}
	// The budget kept the rest of the grid running.
	if sum.Executed != sum.Planned-1 {
		t.Errorf("executed = %d, want %d", sum.Executed, sum.Planned-1)
	}
}

// TestCellTimeout proves the deadline path: a delay fault longer than
// the per-attempt timeout fails the cell permanently; clearing the fault
// and resuming completes the campaign.
func TestCellTimeout(t *testing.T) {
	m := testManifest()
	clean, slow := t.TempDir(), t.TempDir()
	mustRun(t, m, testOptions(clean))

	p, err := Expand(m)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(slow)
	opts.MaxAttempts = 2
	opts.CellTimeout = 10 * time.Millisecond
	opts.Faults = FaultPlan{p.Cells[2].ID: {DelayMS: 300}}
	if _, err := Run(context.Background(), m, opts); err == nil {
		t.Fatal("timed-out campaign reported success")
	}

	opts.Faults = nil
	opts.CellTimeout = 0
	opts.Resume = true
	mustRun(t, m, opts)
	assertSameReports(t, clean, slow)
}

// TestCancellation proves the SIGINT path: cancelling the context
// mid-campaign aborts promptly with the cancellation cause, keeps the
// journal readable, and a resume completes byte-identically.
func TestCancellation(t *testing.T) {
	m := testManifest()
	clean, interrupted := t.TempDir(), t.TempDir()
	mustRun(t, m, testOptions(clean))

	ctx, cancel := context.WithCancel(context.Background())
	opts := testOptions(interrupted)
	opts.Workers = 1
	// Slow every cell down enough that the cancel lands mid-campaign.
	opts.Faults = FaultPlan{"*": {DelayMS: 50}}
	go func() {
		time.Sleep(75 * time.Millisecond)
		cancel()
	}()
	_, err := Run(ctx, m, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v", err)
	}
	if _, err := os.Stat(filepath.Join(interrupted, "journal.ndjson")); err != nil {
		t.Fatalf("no journal after cancellation: %v", err)
	}

	opts.Faults = nil
	opts.Resume = true
	sum, err := Run(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Skipped+sum.Executed != sum.Planned {
		t.Errorf("resume accounted %d+%d of %d cells", sum.Skipped, sum.Executed, sum.Planned)
	}
	assertSameReports(t, clean, interrupted)
}

// TestRunRejectsNegativeOptions: a negative size or duration fails by
// name before the output directory is created (a negative Workers used
// to panic, a negative MaxAttempts ran no attempt at all).
func TestRunRejectsNegativeOptions(t *testing.T) {
	for name, mutate := range map[string]func(*Options){
		"Workers":       func(o *Options) { o.Workers = -1 },
		"MaxAttempts":   func(o *Options) { o.MaxAttempts = -1 },
		"FailureBudget": func(o *Options) { o.FailureBudget = -1 },
		"CellTimeout":   func(o *Options) { o.CellTimeout = -time.Second },
	} {
		dir := filepath.Join(t.TempDir(), "run")
		opts := testOptions(dir)
		mutate(&opts)
		_, err := Run(context.Background(), testManifest(), opts)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("negative %s: err = %v, want an error naming it", name, err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("negative %s: output directory touched (stat: %v)", name, err)
		}
	}
}

// TestManifestPinning: a directory holds exactly one campaign, and
// re-entering it requires Resume.
func TestManifestPinning(t *testing.T) {
	m := testManifest()
	dir := t.TempDir()
	mustRun(t, m, testOptions(dir))

	if _, err := Run(context.Background(), m, testOptions(dir)); err == nil {
		t.Error("re-running into a campaign directory without Resume succeeded")
	}

	other := m
	other.Seed = 1234
	opts := testOptions(dir)
	opts.Resume = true
	if _, err := Run(context.Background(), other, opts); err == nil {
		t.Error("resuming with a different manifest succeeded")
	}

	// Resuming a completed campaign is a no-op that rewrites the report.
	sum := mustRun(t, m, opts)
	if sum.Executed != 0 || sum.Skipped != sum.Planned {
		t.Errorf("resume of a complete campaign executed %d cells", sum.Executed)
	}
}

// TestMultilevelAndWeibullCells exercises the two non-default pricing
// paths end to end, including crash/resume byte-identity.
func TestMultilevelAndWeibullCells(t *testing.T) {
	for _, tc := range []struct {
		name string
		man  Manifest
	}{
		{"multilevel", Manifest{
			Name:      "ml",
			Seed:      11,
			Runs:      3,
			Patterns:  5,
			Platforms: []string{"Hera"},
			Scenarios: []int{1},
			Protocol:  ProtocolMultilevel,
			Axis:      AxisFraction,
			Values:    []float64{1.0 / 15, 0.5},
		}},
		{"weibull", Manifest{
			Name:      "wb",
			Seed:      13,
			Runs:      2,
			Patterns:  4,
			Platforms: []string{"Hera"},
			Scenarios: []int{1},
			Dist:      "weibull",
			Axis:      AxisShape,
			Values:    []float64{0.7, 1.5},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean, crashed := t.TempDir(), t.TempDir()
			mustRun(t, tc.man, testOptions(clean))
			mustRun(t, tc.man, testOptions(crashed))

			cells, err := filepath.Glob(filepath.Join(crashed, "cells", "*.json"))
			if err != nil || len(cells) == 0 {
				t.Fatalf("artifacts: %v", err)
			}
			if err := os.Remove(cells[0]); err != nil {
				t.Fatal(err)
			}
			opts := testOptions(crashed)
			opts.Resume = true
			sum := mustRun(t, tc.man, opts)
			if sum.Executed != 1 {
				t.Errorf("resume executed %d cells, want 1", sum.Executed)
			}
			assertSameReports(t, clean, crashed)
		})
	}
}

func TestFaultPlanJSON(t *testing.T) {
	fp, err := ReadFaultPlan(strings.NewReader(
		`{"*": {"delay_ms": 5}, "abc": {"fail_attempts": 2, "panic": true}}`))
	if err != nil {
		t.Fatal(err)
	}
	c := &Cell{ID: "abc"}
	f, ok := fp.find(c)
	if !ok || f.FailAttempts != 2 || !f.Panic {
		t.Errorf("specific fault not found: %+v %v", f, ok)
	}
	f, ok = fp.find(&Cell{ID: "zzz"})
	if !ok || f.DelayMS != 5 {
		t.Errorf("wildcard fault not found: %+v %v", f, ok)
	}
	if _, err := ReadFaultPlan(strings.NewReader(`{"x": {"fail_attempts": -1}}`)); err == nil {
		t.Error("negative fault accepted")
	}
	if _, err := ReadFaultPlan(strings.NewReader(`{"x": {"explode": true}}`)); err == nil {
		t.Error("unknown fault field accepted")
	}
}
