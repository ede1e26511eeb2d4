package main

import (
	"cmp"
	"fmt"
	"net/http"
	"slices"
	"time"

	"amdahlyd/internal/rng"
)

// Stream lengths per caller and second of run: two to three times what
// one caller completes on a 2-vCPU machine. A caller that gets through its
// stream starts it again, which changes nothing on serve-warm (the same
// Zipf stream) and little on serve-cold (its early keys are long evicted
// by then).
const (
	warmPerCallerSecond = 8000
	coldPerCallerSecond = 1000
	coldWarmupPerClass  = 4
	// coldSampleEvery: one serve-cold body in this many is kept for the
	// correctness gate (and, in the traced run, timed layer by layer).
	coldSampleEvery = 25
	// batchRequests is the fixed batch whose median wall time, on the
	// load clock, is wall_s.
	batchRequests = 1000
	// setupRounds is how often an untraced run sets the fleet up;
	// setup_s is the median.
	setupRounds = 5
)

// servingInput is a serving workload's generated input: a body table and
// each caller's sequence of indices into it.
type servingInput struct {
	warm    bool
	bodies  []body
	streams [][]int32
	warmup  []body // sent during set-up (serve-warm: every body)
	sampled []bool // serve-cold: bodies kept for the gate
}

func newServingInput(cfg config) servingInput {
	if cfg.workload == "serve-warm" {
		ws := newWarmSet(cfg.seed, cfg.callers, warmPerCallerSecond*cfg.seconds)
		return servingInput{warm: true, bodies: ws.bodies, streams: ws.streams, warmup: ws.bodies}
	}
	perCaller := coldPerCallerSecond * cfg.seconds
	in := servingInput{warmup: coldWarmup(cfg.seed, coldWarmupPerClass)}
	for _, s := range newColdStreams(cfg.seed, cfg.callers, perCaller) {
		stream := make([]int32, len(s))
		for i := range s {
			stream[i] = int32(len(in.bodies))
			in.bodies = append(in.bodies, s[i])
		}
		in.streams = append(in.streams, stream)
	}
	pick := rng.New(cfg.seed).SplitString("serve-cold/gate-sample")
	in.sampled = make([]bool, len(in.bodies))
	for i := range in.sampled {
		in.sampled[i] = pick.Intn(coldSampleEvery) == 0
	}
	return in
}

func (in *servingInput) body(k, pos int) (int, *body) {
	s := in.streams[k]
	idx := int(s[pos%len(s)])
	return idx, &in.bodies[idx]
}

// servingRun is the state of one serving workload run.
type servingRun struct {
	cfg     config
	in      servingInput
	f       *fleetUnderTest
	refs    [][]byte       // serve-warm: each body's normalised warm-up reply
	pos     []int          // each caller's next stream position
	clients []*http.Client // each caller's client, kept across windows
}

func newServingRun(cfg config) *servingRun {
	sr := &servingRun{cfg: cfg, in: newServingInput(cfg), pos: make([]int, cfg.callers)}
	for range cfg.callers {
		sr.clients = append(sr.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}})
	}
	return sr
}

// close stops the fleet and closes the callers' connections.
func (sr *servingRun) close() {
	sr.f.close()
	for _, c := range sr.clients {
		c.CloseIdleConnections()
	}
}

// setup starts the fleet and warms it: serve-warm sends every distinct
// body once (its replies become the reference every timed reply must
// match); serve-cold sends a few bodies no caller will send.
func (sr *servingRun) setup(rec *recorder) error {
	f, err := startFleet(rec)
	if err != nil {
		return err
	}
	replies, err := askAll(f.url, sr.in.warmup, sr.cfg.callers)
	if err != nil {
		f.close()
		return fmt.Errorf("warm-up: %w", err)
	}
	if sr.in.warm {
		sr.refs = make([][]byte, len(replies))
		for i, r := range replies {
			sr.refs[i] = normalize(r)
		}
	}
	sr.f = f
	return nil
}

func (sr *servingRun) spec(rec *recorder) loadSpec {
	ls := loadSpec{url: sr.f.url, clients: sr.clients, body: sr.in.body, rec: rec, perSecond: coldPerCallerSecond}
	if sr.in.warm {
		ls.perSecond = warmPerCallerSecond
		ls.check = func(idx int, b *body, status int, reply []byte) error {
			if err := checkShape(b, status, reply); err != nil {
				return err
			}
			if string(normalize(reply)) != string(sr.refs[idx]) {
				return fmt.Errorf("reply differs from the warm-up reply of the same body")
			}
			return nil
		}
	} else {
		ls.check = func(_ int, b *body, status int, reply []byte) error { return checkShape(b, status, reply) }
		ls.keep = func(idx int) bool { return sr.in.sampled[idx] }
	}
	return ls
}

// window runs one closed-loop window, stamps its requests' completion
// times onto the load clock (which stood at clock when the window began)
// and advances the callers' streams.
func (sr *servingRun) window(rec *recorder, dur, clock time.Duration) ([]callerOut, time.Duration) {
	outs, elapsed := closedLoop(sr.spec(rec), sr.pos, dur)
	for k := range outs {
		sr.pos[k] = outs[k].next
		for i := range outs[k].reqs {
			outs[k].reqs[i].at += clock
		}
	}
	return outs, elapsed
}

// measure runs the timed load of an untraced run: windows of refEvery
// load time, each followed by one reference slice, until cfg.seconds of
// load time. It returns the callers' records, the load time and the
// slices' wall times.
func (sr *servingRun) measure(ref *refLoad) ([]callerOut, time.Duration, *dist, error) {
	var outs []callerOut
	var load time.Duration
	refs := &dist{}
	for load < time.Duration(sr.cfg.seconds)*time.Second {
		o, elapsed := sr.window(nil, refEvery, load)
		outs, load = append(outs, o...), load+elapsed
		d, err := ref.slice()
		if err != nil {
			return nil, 0, nil, err
		}
		refs.add(d.Seconds())
	}
	return outs, load, refs, nil
}

// runServing runs serve-warm or serve-cold and returns its report.
func runServing(cfg config) (*outcome, error) {
	sr := newServingRun(cfg)
	if cfg.trace {
		return sr.traced()
	}
	rep := newReport(endToEnd)
	setups := &dist{}
	for round := 0; round < setupRounds; round++ {
		if sr.f != nil {
			sr.f.close()
		}
		t0 := time.Now()
		if err := sr.setup(nil); err != nil {
			return nil, err
		}
		setups.add(time.Since(t0).Seconds())
	}
	defer sr.close()
	ref := newRefLoad(cfg.callers, !sr.in.warm)
	defer ref.close()
	before := sr.f.counters()
	outs, load, refs, err := sr.measure(ref)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	after := sr.f.counters()

	out := &outcome{rep: rep}
	reqs := merge(outs, &out.attempted, &out.failed, &out.firstErr)
	lat := &dist{}
	for _, r := range reqs {
		lat.add(r.latMS)
	}
	p50, n, _ := lat.quantile(0.5)
	p99, _, ok := lat.quantile(0.99)
	if !ok {
		return nil, fmt.Errorf("only %d requests completed, too few for a p99", n)
	}
	slices.SortFunc(reqs, func(a, b reqRecord) int { return cmp.Compare(a.at, b.at) })
	walls := &dist{}
	prev := time.Duration(0)
	for i := batchRequests - 1; i < len(reqs); i += batchRequests {
		walls.add((reqs[i].at - prev).Seconds())
		prev = reqs[i].at
	}
	rps := float64(out.attempted-out.failed) / load.Seconds()
	wall, _ := walls.median()
	setup, _ := setups.median()
	refMedian, _ := refs.median()
	h := refMedian / refNominal.Seconds()
	rep.set("throughput_rps", rps*h, -1)
	rep.set("p50_ms", p50/h, n)
	rep.set("p99_ms", p99/h, n)
	rep.set("wall_s", wall/h, walls.n())
	rep.set("setup_s", setup, setups.n())
	rep.set("peak_rss_mb", rss, -1)
	rep.input("host_factor %.4f (median reference slice %.3f ms over %d slices, nominal %.3f ms)",
		h, refMedian*1e3, refs.n(), refNominal.Seconds()*1e3)
	rep.note("unscaled throughput_rps %s p50_ms %s p99_ms %s wall_s %s",
		fmtValue(rps), fmtValue(p50), fmtValue(p99), fmtValue(wall))
	sr.describe(rep, reqs, diffCounters(before, after))
	sr.gate(out, outs)
	return out, nil
}

// gate runs the correctness gate after timing: serve-warm asks every
// distinct body of a fresh replica (each timed reply already matched its
// warm-up reply); serve-cold asks the kept sample.
func (sr *servingRun) gate(out *outcome, outs []callerOut) {
	_, bodies, replies := sr.checked(outs)
	out.gateFailed, out.gateErr = gate(bodies, replies)
	out.rep.input("gate_checked %d replies against a fresh replica", len(bodies))
}

// checked returns the bodies the gate checks, with their indices and the
// replies to compare: every distinct body and its warm-up reply on
// serve-warm, the kept sample of outs on serve-cold.
func (sr *servingRun) checked(outs []callerOut) (ids []int, bodies []*body, replies [][]byte) {
	if sr.in.warm {
		for i := range sr.in.bodies {
			ids, bodies, replies = append(ids, i), append(bodies, &sr.in.bodies[i]), append(replies, sr.refs[i])
		}
		return ids, bodies, replies
	}
	for _, o := range outs {
		for _, idx := range sortedKeys(o.kept) {
			ids, bodies, replies = append(ids, idx), append(bodies, &sr.in.bodies[idx]), append(replies, o.kept[idx])
		}
	}
	return ids, bodies, replies
}

// merge flattens the callers' records, summing attempts and failures.
func merge(outs []callerOut, attempted, failed *int, firstErr *error) []reqRecord {
	var reqs []reqRecord
	for _, o := range outs {
		reqs = append(reqs, o.reqs...)
		*attempted += o.attempted
		*failed += o.failed
		if *firstErr == nil {
			*firstErr = o.firstErr
		}
	}
	return reqs
}

// counterDelta is what the fleet counted during a window.
type counterDelta struct {
	forwards, hedges, failovers, shed uint64
	peerShareMax                      float64
	dedup, saturated, evictions       uint64
	hits, misses                      [numCaches]uint64
}

func diffCounters(a, b fleetCounters) counterDelta {
	d := counterDelta{
		forwards: b.forwards - a.forwards, hedges: b.hedges - a.hedges,
		failovers: b.failovers - a.failovers, shed: b.shed - a.shed,
		dedup: b.dedup - a.dedup, saturated: b.saturated - a.saturated,
		evictions: b.evictions - a.evictions,
	}
	for i := range b.peerForwards {
		if d.forwards > 0 {
			share := float64(b.peerForwards[i]-a.peerForwards[i]) / float64(d.forwards)
			d.peerShareMax = max(d.peerShareMax, share)
		}
	}
	for i := range d.hits {
		d.hits[i] = b.caches[i].Hits - a.caches[i].Hits
		d.misses[i] = b.caches[i].Misses - a.caches[i].Misses
	}
	return d
}

// describe records the workload's input properties: seed, class mix,
// distinct keys against cache capacity, and the measured share of
// repeated keys.
func (sr *servingRun) describe(rep *report, reqs []reqRecord, d counterDelta) {
	classes := warmClasses
	if !sr.in.warm {
		classes = coldClasses
	}
	rep.input("seed %d", sr.cfg.seed)
	rep.input("callers %d closed-loop, one connection each", sr.cfg.callers)
	line := "mix (assumed: equal shares)"
	for _, c := range classes {
		line += fmt.Sprintf(" %s=%.3f", classNames[c], 1/float64(len(classes)))
	}
	rep.input("%s", line)
	seen := make([]bool, len(sr.in.bodies))
	keys, repeats := 0, 0 // a sweep body holds one key per cell
	if sr.in.warm {
		for i, b := range sr.in.bodies { // every one was sent during set-up
			seen[i] = true
			keys += max(b.rows, 1)
		}
	}
	for _, r := range reqs {
		if seen[r.body] {
			repeats++
			continue
		}
		seen[r.body] = true
		keys += max(sr.in.bodies[r.body].rows, 1)
	}
	rep.input("distinct_keys %d (result caches hold 1024 entries each and the frozen cache 4096, per replica, %d replicas)",
		keys, numReplicas)
	rep.input("repeat_frac %.4f (timed requests whose body was sent before)", float64(repeats)/float64(max(len(reqs), 1)))
	var hits, total uint64
	for i := range d.hits {
		hits += d.hits[i]
		total += d.hits[i] + d.misses[i]
	}
	rep.input("cache_hit_ratio %.4f (engine caches, summed over replicas)", float64(hits)/float64(max(total, 1)))
	rep.input("cache_evictions %d", d.evictions)
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// traced runs the workload's traced run: untraced and traced quarters in
// turn (the untraced ones give the process counters, the per-class
// latencies and the baseline for the tracing overhead; the traced ones
// the spans), then the in-replica function timings on bodies the traced
// quarters sent, and on serve-cold the campaign section.
func (sr *servingRun) traced() (*outcome, error) {
	rec := newRecorder()
	if err := sr.setup(rec); err != nil {
		return nil, err
	}
	defer sr.close()
	before := sr.f.counters()
	q := sr.f.sampleQueues(2 * time.Millisecond)
	var outsA, outsB []callerOut
	var elapsedA, elapsedB time.Duration
	var proc procSample
	alternate(sr.cfg.seconds, func(d time.Duration) {
		p0 := readProc()
		o, e := sr.window(nil, d, 0)
		proc = proc.plus(readProc().minus(p0))
		outsA, elapsedA = append(outsA, o...), elapsedA+e
	}, func(d time.Duration) {
		o, e := sr.window(rec, d, 0)
		outsB, elapsedB = append(outsB, o...), elapsedB+e
	})
	queuedMax := q.end()
	after := sr.f.counters()
	d := diffCounters(before, after)

	out := &outcome{rep: newReport(perLayer)}
	rep := out.rep
	reqsA := merge(outsA, &out.attempted, &out.failed, &out.firstErr)
	reqsB := merge(outsB, &out.attempted, &out.failed, &out.firstErr)
	setProc(rep, proc, len(reqsA))
	byClass := make([]dist, numClasses)
	for _, r := range reqsA {
		byClass[r.cls].add(r.latMS)
	}
	for c := range byClass {
		rep.setMedian("class."+classNames[c]+".p50_ms", &byClass[c])
	}
	rpsA := float64(len(reqsA)) / elapsedA.Seconds()
	rpsB := float64(len(reqsB)) / elapsedB.Seconds()
	rep.set("trace.overhead_frac", 1-rpsB/rpsA, -1)

	rep.set("fleet.forwards_per_req", float64(d.forwards)/float64(max(len(reqsA)+len(reqsB), 1)), -1)
	rep.set("fleet.hedges", float64(d.hedges), -1)
	rep.set("fleet.failovers", float64(d.failovers), -1)
	rep.set("fleet.shed", float64(d.shed), -1)
	rep.set("fleet.peer_share_max", d.peerShareMax, -1)
	for i, name := range cacheNames {
		if lookups := d.hits[i] + d.misses[i]; lookups > 0 {
			rep.set("service.cache."+name+".hit_ratio", float64(d.hits[i])/float64(lookups), -1)
		}
	}
	rep.set("service.cache.evictions", float64(d.evictions), -1)
	rep.set("service.queued_max", float64(queuedMax), -1)
	rep.set("service.saturated", float64(d.saturated), -1)
	rep.set("service.dedup", float64(d.dedup), -1)

	// Time layer by layer the bodies the gate checks that the traced
	// quarters sent: every distinct body on serve-warm, the sample on
	// serve-cold.
	ids, bodies, replies := sr.checked(outsB)
	layers, sd, err := timeLayers(bodies, replies, sr.in.warm)
	if err != nil {
		return nil, err
	}
	timed := make(map[int]bodyLayers, len(ids))
	for i, id := range ids {
		timed[id] = layers[i]
	}
	sr.spanMetrics(rep, rec.snapshot(), reqsB, timed)
	setSolvers(rep, sd)
	sr.describe(rep, append(reqsA, reqsB...), d)
	sr.gate(out, append(outsA, outsB...))
	if !sr.in.warm {
		if err := timeCampaign(sr.cfg, out); err != nil {
			return nil, err
		}
	}
	rep.set("failed_frac", float64(out.failed)/float64(max(out.attempted, 1)), -1)
	zeroUnexercised(rep, sr.cfg.workload)
	return out, nil
}

// spanMetrics turns the traced quarters' spans into per-layer self times
// and, for requests whose body was timed layer by layer, the
// per-request layer costs and the replica time they leave unattributed.
func (sr *servingRun) spanMetrics(rep *report, spans []span, reqs []reqRecord, timed map[int]bodyLayers) {
	self := selfTimes(spans)
	byName := map[string]*dist{}
	server := map[uint64][]span{}
	for _, s := range spans {
		if byName[s.name] == nil {
			byName[s.name] = &dist{}
		}
		byName[s.name].addDur(self[s.id])
		if s.name == "service.server" {
			server[s.trace] = append(server[s.trace], s)
		}
	}
	for name, metric := range map[string]string{
		"client": "loadgen.client_self_us", "fleet.router": "fleet.router.self_us",
		"fleet.forward": "fleet.forward.self_us", "service.server": "service.server.self_us",
	} {
		if d := byName[name]; d != nil {
			rep.setMedian(metric, d)
		}
	}
	var decode, build, key, shard, engine, encode, unattributed dist
	for _, r := range reqs {
		l, ok := timed[int(r.body)]
		if !ok {
			continue
		}
		decode.addDur(l.decode)
		build.addDur(l.build)
		key.addDur(l.key)
		shard.addDur(l.shard)
		engine.addDur(l.engine)
		encode.addDur(l.encode)
		for _, s := range server[r.trace] {
			unattributed.addDur(s.end - s.start - l.attributed())
		}
	}
	rep.setMedian("service.decode_us", &decode)
	rep.setMedian("service.build_us", &build)
	rep.setMedian("core.cachekey_us", &key)
	rep.setMedian("fleet.shardkey_us", &shard)
	rep.setMedian("service.engine_hit_us", &engine)
	rep.setMedian("service.encode_us", &encode)
	rep.setMedian("service.server.unattributed_us", &unattributed)
}

// setSolvers records the solver and simulator timings; a solver or
// simulator that timed nothing leaves its metrics unmeasured.
func setSolvers(rep *report, sd *solverDists) {
	rep.setMedian("optimize.solve_us", &sd.optimizeUS)
	rep.setMean("optimize.evals_per_solve", &sd.optimizeEvals)
	rep.setMedian("optimize.sweep.cell_us", &sd.sweepCellUS)
	rep.setMean("optimize.sweep.warm_frac", &sd.sweepWarm)
	rep.setMean("optimize.sweep.evals_per_cell", &sd.sweepEvals)
	rep.setMedian("multilevel.solve_us", &sd.multilevelUS)
	rep.setMedian("hetero.solve_us", &sd.heteroUS)
	rep.setMean("hetero.evals_per_solve", &sd.heteroEvals)
	if sd.simTime > 0 {
		rep.set("sim.patterns_per_s", sd.simPatterns/sd.simTime.Seconds(), -1)
	}
}
