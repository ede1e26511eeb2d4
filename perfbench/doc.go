// Command perfbench is the repository benchmark: it drives the planning
// system from outside through two serving workloads, checks every
// answer, and prints end-to-end metrics (untraced runs) or per-layer
// metrics (traced runs). serve-cold's traced run also times the study
// campaign layer by layer. BENCHMARK.json at the repository root lists
// the workloads and every metric with its unit, direction and regression
// bound. The micro-benchmarks behind scripts/bench.sh and BENCH_<N>.json
// are a separate record.
//
// # Running
//
// From the repository root:
//
//	bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 30 --trace 1
//
// run.sh builds this module (a separate Go module that compiles the
// repository's packages from ../) into .bench_build/ and runs it;
// everything the build and the run write stays under .bench_build/, and
// the campaign section removes its output when it ends. Each run prints
// the environment (go version, nproc, GOMAXPROCS, CPU model), the
// workload's input properties ("input ..." lines), every metric as
// "name value unit", the sample count behind each percentile
// ("# samples ..."), the host factor and the unscaled values of the
// scaled metrics (see "Host-speed scaling"), and last one JSON line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"p50_ms":{"value":0.25,"unit":"ms"},...}}
//
// A run that cannot produce a result exits 1; a run whose operations
// failed or whose correctness gate found a mismatch prints the result
// with "correct":false and exits 2. -callers (default nproc) sets the
// closed-loop caller count; more callers than nproc are refused.
//
// # Workloads
//
// Inputs are generated from -seed before timing starts. Both workloads
// run an in-process fleet wired as cmd/amdahl-serve wires it (three
// replicas of service.NewServer(service.NewEngine(service.Options{}))
// behind fleet.NewRouter with the -router defaults and a
// fleet.HealthChecker, request logging off), driven by nproc closed-loop
// callers that each hold one connection and send the next request only
// after the last byte of the previous reply.
//
//   - serve-warm: 250 distinct bodies, 50 per class (evaluate, optimize,
//     multilevel/optimize, hetero/optimize and a small fixed-seed
//     simulate), plain Zipf (s = 1) popularity within each class, every
//     body warmed during set-up, so nearly every request is a cache hit.
//     It loads the router hop, net/http, JSON, ModelSpec/TopologySpec.Build,
//     CacheKey, the LRU and encode; the solvers and simulators stay idle.
//     Warm-path work should show here; a solver gain should not.
//   - serve-cold: every request draws α, λ, D, the in-memory fraction or
//     the comm coefficient afresh, so keys never repeat and the result
//     caches evict tens of thousands of entries a run. Mix: optimize,
//     16-cell λ sweeps (warm mode), multilevel/optimize, hetero/optimize,
//     small fresh-seed simulates. It loads the solvers, the SweepSolver chains
//     and sim; the LRU takes writes and evictions, and HTTP is a small
//     share. Solver gains show here; HTTP-path gains should barely move it.
//
// # Why the study campaign is not a workload
//
// The study campaign (campaign.Run over the six presets) was first a
// third workload. Its cells are bound by the artifact fsync: on a 2-vCPU
// VM, three quarters of a sweep cell's time is the fsync, and the disk's
// fsync latency drifts by ±25% over minutes (0.34 to 0.57 ms for two
// writers within two minutes). Per-cell latency, cells per second and
// study wall time therefore spread by 0.25–0.36 (quartile distance over
// median) over ten 20 s runs, beyond the largest bound an end-to-end
// metric may have. A larger Monte-Carlo budget does not help: the median
// cell stays a sweep cell, and at 30×30 the robustness preset's
// machine-level cells make up most of a study. The campaign is therefore
// measured per layer only, in serve-cold's traced run, where metrics
// carry no bound.
//
// # Assumed traffic shape
//
// No recorded traffic of the service exists, so the serving inputs are an
// assumed shape, not a measured one. Each choice in it is taken from the
// repository's own studies or is the neutral one:
//
//   - Class mix: equal shares over the classes each workload is meant to
//     load, every class once per block of consecutive requests (only the
//     order is shuffled, so a seed changes parameters, not the amount of
//     work): the five unary classes on serve-warm; on serve-cold the four
//     solver classes and λ sweeps, leaving out evaluate, which solves
//     nothing. Sweeps stay off serve-warm: there a cached sweep's 16
//     flushed rows made it the one slow class, so it alone set p99.
//   - serve-warm body set: a few hundred distinct bodies, split equally
//     over the classes (50 each); popularity within a class is plain
//     Zipf's law (s = 1), as no measured popularity exists to fit.
//   - Parameters: the axes of the paper's figures and the repository's
//     studies (internal/experiments). α is log-uniform over Fig. 4's
//     non-zero range [1e-4, 0.1], λ log-uniform over Figs. 5–6's
//     [1e-12, 1e-8], D uniform over Fig. 7's [0, 10800] s, the in-memory
//     fraction uniform over the multilevel study's [1/60, 1], the comm
//     coefficient log-uniform over the hetero study's non-zero [1e-6, 1e-4]
//     and the accelerator split uniform over its [1/16, 1]. Platforms and
//     scenarios are drawn with equal shares. A sweep asks for 16 λ values
//     spanning Figs. 5–6's axis; evaluate and simulate use the handler's
//     defaults (the platform's deployed size at its optimal period), and a
//     simulate request the campaign section's 10×10 Monte-Carlo budget,
//     the one budget this benchmark uses.
//
// # End-to-end metrics
//
// throughput_rps, p50_ms and p99_ms are per request (latency from send to
// the last byte, a sweep's last row), over all requests of the run.
// wall_s is the median wall time of the run's batches of 1000 consecutive
// completions. These four are scaled to a nominal host speed, as the next
// section describes. setup_s is the median of five set-ups per run (fleet
// start plus warm-up), as measured. peak_rss_mb is the process's peak
// RSS. A percentile is reported only when at least ten samples lie beyond
// it. failed_frac (failed ÷ attempted operations) is a per-layer metric
// because it is 0 on a correct program; any failure also makes the run's
// result "correct":false.
//
// p99_ms was first the median of the batches' p99s. Scaled, it spread by
// 0.16–0.19 (quartile distance over median) over six serve-warm seeds,
// against 0.08–0.09 for the p99 over all requests: a slow spell of the
// host lifts the p99 of the batches it falls in, and the median batch
// flipped between lifted and unlifted ones from run to run.
//
// # Host-speed scaling
//
// The benchmark runs on a 2-vCPU VM of a shared host, and the host's
// other tenants slow it. A tight loop timed in 2 ms chunks ran at two
// speeds, about 2.0 and 3.4 ms a chunk, and the share of slow chunks
// moved between 1% and 88% from one second to the next, while /proc/stat
// showed 0.1–0.3% steal time: the vCPUs keep running, only slower, so
// the lost time is charged to the process as CPU time too. The slow
// share also drifts over minutes: five successive serve-warm runs fell
// from 10.6k to 7.5k requests/s, and in two sets of ten runs of the same
// code the quartile distance of throughput reached 0.55 and 0.68 of the
// median (serve-cold 0.41 and 0.42), beyond any bound an end-to-end
// metric may have.
//
// An untraced run therefore measures the host alongside the program. It
// stops its callers after every 250 ms of load and runs a reference
// slice on every caller at once: a fixed load that uses none of this
// repository's code and does the kind of work the workload's time goes
// to. On serve-warm that is 85 round trips per caller of a JSON document
// through a stdlib echo server over loopback HTTP; on serve-cold, 75,000
// evaluations per caller of the exp/log1p/pow mix the solvers evaluate.
// The host factor is the run's median slice time divided by 10 ms, about
// a slice's time on an uncontended host of this kind; latencies and
// wall_s are divided by it and throughput multiplied. Throughput and
// wall_s are timed on a load clock that stops during the slices. Each
// run prints the factor ("input host_factor") and the unscaled values
// ("# unscaled"). The reference runs none of the program's code, so a
// change to the program moves the scaled metrics as it moves the
// unscaled ones.
//
// The scaling is as good as the reference's likeness to the workload.
// In tuning runs, eight serve-warm runs whose host factor ranged from
// 0.82 to 1.35 spread by 0.31–0.44 unscaled and 0.03–0.08 scaled. A
// reference of both kinds at once was tried first. Scaled by its float
// half, serve-cold spread by 0.05 where its HTTP half left 0.25; on
// serve-warm the two halves did about equally on throughput (0.15), and
// the HTTP half better on p99 (0.12 against 0.25). Three sets of ten
// seeds per workload on this code spread by at most 0.08 on throughput,
// p50 and wall_s, and by 0.07–0.23 on p99, with medians within 4% of one
// another (p99 within 15%). p99 keeps the most spread: in two serve-warm
// runs with a host factor near 1.7, throughput scaled back to the
// typical value, but against a run at 1.05 unscaled p50 had risen only
// 1.2–1.35 times and p99 2.4–2.9 times, since a busy host slows some
// requests far more than others. One factor cannot undo that, so p50
// comes out low and p99 high in such runs. setup_s is left
// unscaled: its five short set-ups come before the slices and, on
// serve-warm, solve while the reference is HTTP; scaled by the run's
// factor it spread by 0.18 over ten seeds, against 0.07 as measured.
//
// # Correctness gate
//
// After timing, serve-warm asks every distinct body of a fresh single
// in-process replica (each timed reply must already equal its warm-up
// reply), and serve-cold asks a seeded 1-in-25 sample. Unary replies
// must match byte for byte apart from "cached"; sweep rows, which come
// from warm-start chains, must agree within the SweepSolver's tolerance
// (overhead 1e-8, T* and P* 1e-4, relative). No workload sends
// cold-mode sweeps. The campaign section requires every cell banked,
// every pass's report byte-identical to the first pass with the same
// master seed, and a Resume over the first pass that re-verifies every
// artifact with Executed == 0 and rewrites the report byte for byte.
//
// # Traced run and per-layer metrics
//
// -trace 1 runs the same workload and seed in four alternating quarters,
// untraced and traced. The untraced quarters give the process counters
// (proc.*), the per-class latencies and the baseline for
// trace.overhead_frac (the traced quarters' throughput change). The
// traced quarters record spans in memory: "client" around each request,
// "fleet.router" around the router handler (the span rides the request
// context), "fleet.forward" in a RoundTripper passed as
// RouterOptions.Client (it stamps the span on a header of the cloned
// outbound request) and "service.server" around each replica. Spans of a
// request share its trace ID; self time is a span minus the part its
// children cover. The layers inside a replica are timed afterwards by
// calling their public functions on the same bodies, on a separate
// engine warmed the same way (so the replicas' counters stay those of
// the run): request decoding, ModelSpec/TopologySpec.Build, CacheKey,
// fleet.ShardKey, the Engine call, json.Marshal of the response, and the
// solvers and simulators behind each class. service.server.unattributed_us
// is, per request, the replica span minus the measured functions' cost
// for its body. Counts come from Engine.Stats() summed over the
// replicas, Router.Stats(nil), campaign.Summary and the solvers' results.
//
// serve-cold's traced run then runs the campaign section: one caller
// runs campaign.Run over the six study presets (sweep-alpha,
// sweep-lambda, sweep-downtime, multilevel, hetero, robustness) at one
// 10×10 Monte-Carlo budget with the default Workers, sixteen passes each
// into a fresh directory, cycling through eight campaign master seeds
// derived from -seed. At the presets' 500×500 default the robustness
// preset alone takes ~50 s; at 10×10 it is about half of a ~0.3 s pass.
// The passes give campaign.cells_per_s per preset, retries and failed
// cells; then every chain of the first study is solved, simulated and
// banked (atomicio.WriteFileBytes) cell by cell for campaign.solve_s,
// sim_s, bank_s and the machine-level and two-level simulators' rates.
// Those layer timings rebuild each cell's artifact the way the executor
// does (solve, simulate, checksum, indented JSON) and must match, byte
// for byte, the artifact campaign.Run banked for that cell in the first
// pass; a mismatch stops the run, since the timings would no longer
// cover the program's work.
//
// The metrics of layers a workload does not load are listed per
// workload (unexercised in metrics.go: campaign.*, sim.machine.*,
// multilevel.sim.*, class.sweep.* and optimize.sweep.* on serve-warm;
// class.evaluate.* and the frozen cache's hit ratio on serve-cold) and
// report 0 with a sample count of 0;
// any other metric a traced run fails to measure fails the run. Spans
// inside the program (stage timers) are not part of this benchmark.
//
//	Layer (package)             Metrics                                         Should move                  Busiest on               Predicted no change
//	fleet router + ring         fleet.router.self_us, fleet.forward.self_us,    throughput_rps, p50_ms       serve-warm               ~0 on serve-cold
//	                            fleet.shardkey_us
//	fleet dispatch              fleet.forwards_per_req, fleet.hedges,           p99_ms, failed_frac          serve-cold               —
//	                            fleet.failovers, fleet.shed, fleet.peer_share_max
//	service HTTP                service.server.self_us, .unattributed_us,       throughput_rps, p50_ms       serve-warm               —
//	                            service.decode_us, service.build_us,
//	                            service.encode_us
//	core keys                   core.cachekey_us                                throughput_rps               serve-warm               —
//	service engine + LRU        service.engine_hit_us,                          throughput_rps (reads),      serve-warm reads;        —
//	                            service.cache.<cache>.hit_ratio,                p50_ms (writes)              serve-cold writes
//	                            service.cache.evictions
//	service scheduler           service.queued_max, service.saturated,          p99_ms, failed_frac          serve-cold               serve-warm
//	                            service.dedup
//	optimize                    optimize.solve_us, .evals_per_solve,            throughput_rps, p50_ms       serve-cold               serve-warm
//	                            optimize.sweep.cell_us, .warm_frac,
//	                            .evals_per_cell
//	multilevel, hetero          multilevel.solve_us, hetero.solve_us,           p99_ms                       serve-cold               serve-warm
//	                            hetero.evals_per_solve
//	sim (+ two-level, failures) sim.patterns_per_s, sim.machine.patterns_per_s, throughput_rps (simulate)    serve-cold               serve-warm (simulate is cached)
//	                            multilevel.sim.patterns_per_s                   campaign.cells_per_s         (campaign section)
//	campaign + atomicio         campaign.{solve,sim,bank}_s and _share,         campaign.cells_per_s         serve-cold               serve-warm; serve-cold's
//	                            campaign.cells_per_s.<preset>,                                               (campaign section)       end-to-end metrics
//	                            campaign.retries, campaign.failed
//	client, per class           class.<class>.p50_ms                            p50_ms, p99_ms               serve-warm, serve-cold   —
//	process                     proc.cpu_us_per_op, proc.allocs_per_op,         throughput_rps               serve-warm               —
//	                            proc.bytes_per_op, proc.gc_cpu_frac
//	benchmark itself            loadgen.client_self_us, trace.overhead_frac     run validity                 all                      —
//
// On serve-warm every caller waits on one chain (client → fleet.router →
// fleet.forward → service.server) on the same cores, so a layer's saving
// lowers p50_ms by at most its share of that chain, and in a closed loop
// throughput_rps ≈ callers ÷ latency. On serve-cold the solve dominates
// the chain and the slow classes (hetero, sweeps) set p99_ms. The
// campaign runs Workers chains at a time, so a study's wall time follows
// the slowest chains (robustness's machine-level cells). Scheduler
// queueing is zero by construction with nproc closed-loop callers.
//
// # Why closed loops
//
// An open-loop generator was tried first on a 2-vCPU machine: Poisson
// arrivals at 2000 requests/s on the same in-process fleet, latency
// measured from each request's due time. Three identical 20 s runs gave
// p99 of 7.2, 15.2 and 19.4 ms, while the generator's own sleep overshoot
// reached 3.5–9 ms at p99: the tail measured Go's timer on a shared VM,
// not the program. The serving workloads are therefore closed loops; a
// workload with an arrival schedule belongs to a change that claims a
// queueing gain.
package main
