package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported number. The same names, units and
// directions are listed in BENCHMARK.json at the repository root; a test
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run (-trace 0). Throughput and latency are per request; wall_s
// is the time one fixed batch of 1000 requests takes.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// campaignPresets are the six study presets serve-cold's traced run
// times, in the order it runs them.
var campaignPresets = []string{"sweep-alpha", "sweep-lambda", "sweep-downtime", "multilevel", "hetero", "robustness"}

// perLayer are the traced run's metrics (-trace 1), grouped by the layer
// they measure.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"failed_frac", "frac", "lower"},

		{"fleet.router.self_us", "us", "lower"},
		{"fleet.forward.self_us", "us", "lower"},
		{"fleet.shardkey_us", "us", "lower"},
		{"fleet.forwards_per_req", "fwd/req", "lower"},
		{"fleet.hedges", "count", "lower"},
		{"fleet.failovers", "count", "lower"},
		{"fleet.shed", "count", "lower"},
		{"fleet.peer_share_max", "frac", "lower"},

		{"service.server.self_us", "us", "lower"},
		{"service.server.unattributed_us", "us", "lower"},
		{"service.decode_us", "us", "lower"},
		{"service.build_us", "us", "lower"},
		{"service.encode_us", "us", "lower"},
		{"core.cachekey_us", "us", "lower"},

		{"service.engine_hit_us", "us", "lower"},
		{"service.cache.frozen.hit_ratio", "frac", "higher"},
		{"service.cache.optimize.hit_ratio", "frac", "higher"},
		{"service.cache.simulate.hit_ratio", "frac", "higher"},
		{"service.cache.multilevel_optimize.hit_ratio", "frac", "higher"},
		{"service.cache.hetero_optimize.hit_ratio", "frac", "higher"},
		{"service.cache.evictions", "count", "lower"},

		{"service.queued_max", "count", "lower"},
		{"service.saturated", "count", "lower"},
		{"service.dedup", "count", "lower"},

		{"optimize.solve_us", "us", "lower"},
		{"optimize.evals_per_solve", "evals", "lower"},
		{"optimize.sweep.cell_us", "us", "lower"},
		{"optimize.sweep.warm_frac", "frac", "higher"},
		{"optimize.sweep.evals_per_cell", "evals", "lower"},
		{"multilevel.solve_us", "us", "lower"},
		{"hetero.solve_us", "us", "lower"},
		{"hetero.evals_per_solve", "evals", "lower"},

		{"sim.patterns_per_s", "1/s", "higher"},
		{"sim.machine.patterns_per_s", "1/s", "higher"},
		{"multilevel.sim.patterns_per_s", "1/s", "higher"},

		{"campaign.solve_s", "s", "lower"},
		{"campaign.sim_s", "s", "lower"},
		{"campaign.bank_s", "s", "lower"},
		{"campaign.solve_share", "frac", "lower"},
		{"campaign.sim_share", "frac", "lower"},
		{"campaign.bank_share", "frac", "lower"},
	}
	for _, p := range campaignPresets {
		defs = append(defs, metricDef{"campaign.cells_per_s." + p, "1/s", "higher"})
	}
	defs = append(defs,
		metricDef{"campaign.retries", "count", "lower"},
		metricDef{"campaign.failed", "count", "lower"},
	)
	for _, c := range classNames {
		defs = append(defs, metricDef{"class." + c + ".p50_ms", "ms", "lower"})
	}
	return append(defs,
		metricDef{"proc.cpu_us_per_op", "us/op", "lower"},
		metricDef{"proc.allocs_per_op", "allocs/op", "lower"},
		metricDef{"proc.bytes_per_op", "B/op", "lower"},
		metricDef{"proc.gc_cpu_frac", "frac", "lower"},
		metricDef{"loadgen.client_self_us", "us", "lower"},
		metricDef{"trace.overhead_frac", "frac", "lower"},
	)
}()

// unexercised lists, per workload and by name prefix, the per-layer
// metrics of layers the workload does not load (see doc.go); its traced
// run reports them as 0 over 0 samples. Every other per-layer metric
// must be measured, or the run fails.
var unexercised = map[string][]string{
	"serve-warm": {"campaign.", "sim.machine.", "multilevel.sim.", "class.sweep.", "optimize.sweep."},
	"serve-cold": {"class.evaluate.", "service.cache.frozen."},
}

// metricName is the grammar every metric name must follow.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// minBeyond is how many samples must lie above a reported percentile:
// a p99 over fewer than 1000 samples would be a maximum in disguise.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule, with the sample count. ok is false when fewer than
// minBeyond samples lie strictly above the selected rank, i.e. when the
// sample cannot support that percentile.
func percentile(sorted []float64, q float64) (v float64, n int, ok bool) {
	n = len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n, n-rank >= minBeyond
}

// dist is a sample of one timing or ratio, kept for percentiles.
type dist struct{ xs []float64 }

func (d *dist) add(x float64)                           { d.xs = append(d.xs, x) }
func (d *dist) addDur(x time.Duration)                  { d.xs = append(d.xs, float64(x)/1e3) } // µs
func (d *dist) addAll(o *dist)                          { d.xs = append(d.xs, o.xs...) }
func (d *dist) n() int                                  { return len(d.xs) }
func (d *dist) sorted() []float64                       { sort.Float64s(d.xs); return d.xs }
func (d *dist) quantile(q float64) (float64, int, bool) { return percentile(d.sorted(), q) }

// median returns the p50 and sample count; an empty sample yields 0.
func (d *dist) median() (float64, int) {
	v, n, _ := d.quantile(0.5)
	return v, n
}

func (d *dist) mean() float64 {
	s := 0.0
	for _, x := range d.xs {
		s += x
	}
	return s / float64(len(d.xs))
}

// report collects one run's metric values, sample counts and the
// workload's recorded input properties.
type report struct {
	defs    []metricDef
	values  map[string]float64
	samples map[string]int
	inputs  []string // "name value" lines describing the workload's inputs
	notes   []string
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric; n is its sample count (-1 when the value is a
// count or ratio rather than a percentile).
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	if n >= 0 {
		r.samples[name] = n
	}
}

// setMedian records the p50 of d; an empty d leaves name unmeasured.
func (r *report) setMedian(name string, d *dist) {
	if d.n() > 0 {
		v, n := d.median()
		r.set(name, v, n)
	}
}

// setMean records the mean of d; an empty d leaves name unmeasured.
func (r *report) setMean(name string, d *dist) {
	if d.n() > 0 {
		r.set(name, d.mean(), -1)
	}
}

func (r *report) input(format string, args ...any) {
	r.inputs = append(r.inputs, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// zeroUnexercised records 0, over 0 samples, for every metric the
// workload lists as unexercised and did not measure.
func zeroUnexercised(r *report, workload string) {
	for _, d := range r.defs {
		if _, ok := r.values[d.Name]; ok {
			continue
		}
		for _, prefix := range unexercised[workload] {
			if strings.HasPrefix(d.Name, prefix) {
				r.set(d.Name, 0, 0)
				break
			}
		}
	}
}

// check verifies that every defined metric was set and is finite.
func (r *report) check() error {
	for _, d := range r.defs {
		v, ok := r.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite (%g)", d.Name, v)
		}
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the inputs, every metric as "name value unit", a comment
// line with the sample count behind each percentile, and last the
// one-line JSON result.
func (r *report) write(w io.Writer, correct bool, attempted, failed int) error {
	for _, in := range r.inputs {
		fmt.Fprintf(w, "input %s\n", in)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	out := resultLine{Correct: correct, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(r.defs))}
	var counts strings.Builder
	for _, d := range r.defs {
		v := r.values[d.Name]
		fmt.Fprintf(w, "%s %s %s\n", d.Name, fmtValue(v), d.Unit)
		if n, ok := r.samples[d.Name]; ok {
			fmt.Fprintf(&counts, " %s=%d", d.Name, n)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if counts.Len() > 0 {
		fmt.Fprintf(w, "# samples%s\n", counts.String())
	}
	buf, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return err
}

func fmtValue(v float64) string { return fmt.Sprintf("%.6g", v) }
