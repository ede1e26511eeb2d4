// Package amdahlyd reproduces "When Amdahl Meets Young/Daly" (Cavelan,
// Li, Robert, Sun — IEEE Cluster 2016): the optimal processor allocation
// and checkpointing period for a parallel job whose speedup obeys
// Amdahl's law, on a platform subject to both fail-stop and silent
// errors, protected by verified checkpoints (the VC protocol).
//
// The library lives under internal/:
//
//   - internal/core — exact expected pattern time (Proposition 1),
//     Theorems 1–3, case analysis and validity bounds;
//   - internal/optimize — the numerical (T, P) optimizer: one memoized
//     outer processor scan over one grid-then-refine routine, shared by
//     every pattern solver;
//   - internal/sim — pattern-level and machine-level Monte-Carlo
//     simulators of the VC protocol;
//   - internal/experiments — drivers regenerating Figs. 2–7;
//   - internal/baselines — Young, Daly, fail-stop-only and
//     iterative-relaxation comparators;
//   - internal/multilevel — the two-level pattern extension (future
//     work in the paper's Section V), end-to-end: joint (T, K, P)
//     optimizer, warm-start sweep solver and parallel campaigns;
//   - internal/hetero — heterogeneous platform topologies: per-group
//     compilation of a platform.Topology and the joint work-split
//     optimizer with its own warm-start sweep solver;
//   - internal/service — the long-running evaluation service behind
//     cmd/amdahl-serve;
//   - internal/campaign — the crash-safe, resumable grid orchestrator
//     behind "amdahl-exp campaign";
//   - substrates: speedup, costmodel, platform, failures, rng, stats,
//     xmath, report.
//
// # Evaluator architecture: Model vs Frozen
//
// internal/core deliberately exposes the paper's formulas twice. Model is
// the specification: every method takes (t, p) and derives the platform
// rates, resilience costs and exponentials from first principles on each
// call — use it for one-off evaluations, validation and readable code.
// core.Frozen is the compiled kernel: Model.Freeze(p) hoists everything
// that is invariant for a fixed processor count (λf_P, λs_P, C_P, R_P,
// V_P, D, 1/λf + D, e^{λf·C}, e^{λf·R}, H(P), the Theorem 1 constants and
// the λf→0 branch decision) so that PatternTime/Overhead cost two expm1
// calls and a handful of multiplies, allocation-free. The two paths are
// bit-exact by construction — Model methods are thin wrappers over a
// one-shot Freeze, and property tests pin the equivalence — so use Frozen
// in any loop that holds P fixed (the period minimizer probes one P
// thousands of times; the Monte-Carlo runner prices one (T, P) over
// hundreds of runs) and Model everywhere else. What only a loop or the
// service needs lives on Frozen alone: the first-order expansion, the
// speedup and the derivatives the period search steps on.
//
// # Failure distributions beyond the exponential
//
// The paper's model is memoryless end to end; real platform logs are
// not (Weibull shape < 1 is the standard fit). failures.Distribution
// generalizes the inter-arrival law — Exponential, Weibull, LogNormal,
// Gamma, each calibrated to the platform MTBF so rates stay comparable
// — with raw draws in internal/rng. The law threads through the trace
// generator (failures.GenerateTraceDist), the machine-level simulator
// (sim.NewMachineDist, per-processor renewal clocks that pause across
// downtime), and experiments.RobustnessStudy ("amdahl-exp robustness"),
// which prices the exponential-optimal pattern under the true law
// against a re-tuned period. Exponential fast paths stay bit-identical
// for fixed seeds, pinned by golden tests. See DESIGN.md.
//
// # Batch sweeps: SweepSolver for served and campaign axes
//
// A POST /v1/sweep request and a campaign chain — many optimizations
// along an ordered axis over which the optimum varies smoothly — run
// on optimize.SweepSolver (or its two-level and hetero counterparts),
// which warm-starts each cell from its neighbour's optimum (a
// single-level cell is the previous optimum, its two neighbours one
// cold-grid step away and one Brent polish seeded with the three; cold
// fallback on class changes or bracket escapes). A warm single-level
// cell costs about half the kernel calls of a per-cell OptimalPattern
// (TestWarmCellEvals), and FuzzSweepWarmMatchesCold pins their
// agreement on the error status, AtPBound and H. The bracket state and
// fallback rule are one type, optimize.WarmChain, which the two-level
// solver shares with its own ×32, 10-point bracket. Underneath, every
// pattern solver — OptimalPattern, SweepSolver, SemiAnalyticOptimum
// and the two-level solvers — runs one outer processor scan,
// optimize.Scan, whose probe memo lives on its stack, over one
// grid-then-refine routine whose Brent polish starts from the grid's
// own three points and answers a grid end without a polish when a
// probe just inside it is no lower (TestEdgeOptimumCost); warm and
// cold solves differ in grids and brackets, not in algorithm.
// The experiment drivers (Figs. 2, 4–7 and the studies) do not
// warm-start: the paper's curves are independent per-point optima, so
// each figure and study cell solves its own (OptimalPattern,
// multilevel.OptimalPattern or hetero.OptimalPattern) inside the
// parallel job that prices it. Figure, study and campaign cells all
// price through one function per protocol — experiments.PricePattern
// (pattern-level, or machine-level at the rounded allocation under a
// non-exponential law), PriceTwoLevel and PriceHetero — which own the
// rule that makes a cell unsimulable: error pressure, a machine
// population above sim.MaxMachineProcs, or a two-level optimum at the
// allocation bound. See DESIGN.md, "Warm-start sweep solver" and
// "Campaign orchestrator".
//
// # Two-level resilience end-to-end
//
// internal/multilevel promotes the Section V two-level protocol (cheap
// in-memory checkpoints under the disk level) to a first-class
// workload: multilevel.OptimalPattern searches the joint (T, K, P) box
// — the paper's central how-many-processors question asked of the
// two-level protocol — on optimize.Scan, with a closed-form inner
// (T, K) solve per compiled evaluator; multilevel.SweepSolver warm-starts
// (T*, K*, P*) chains along smooth axes on the same optimize.WarmChain
// as optimize.SweepSolver; Simulator.SimulateContext prices patterns on
// the shared worker pool (sim.ForEachRun) with per-run streams and
// fail-fast cancellation, and multilevel.SimulateModel
// derives costs, rates and H(P) from a core.Model for every caller. The
// simulator refuses patterns beyond the single-level simulators'
// iteration budget with sim.ErrErrorPressure. New two-level work goes through
// multilevel.OptimalPattern, multilevel.SweepSolver or POST
// /v1/multilevel/*, never per-cell FirstOrder calls in a loop. The study driver is
// experiments.MultilevelStudy ("amdahl-exp multilevel"); the service
// endpoints are /v1/multilevel/optimize, /v1/multilevel/simulate and
// the "multilevel" axis switch on /v1/sweep, cached under the
// versioned ml1| key namespace. See DESIGN.md, "Multilevel
// end-to-end".
//
// # Heterogeneous platform topologies
//
// The paper's platform is P interchangeable processors with one failure
// law and one checkpoint cost. platform.Topology generalizes it to
// named groups — per-group error rate, speed, size and checkpoint/
// verification costs, plus one inter-group comm coefficient — and
// hetero.CompileTopology lowers a topology to a core.HeteroModel whose
// groups are ordinary Models (comm enters as an AmdahlComm speedup
// profile, versioned under the hg1| cache-key namespace). A one-group
// zero-comm topology compiles bit-identically to the classical Model.
// hetero.OptimalPattern answers the joint question: which groups to
// activate, how to split the work (harmonic in the per-group effective
// overheads), and each group's own (T, P) — warm-started along smooth
// axes by hetero.SweepSolver over per-(group, active-count) chains,
// which its Cold mode runs cold.
// Group-shaped platform work goes through platform.Topology +
// hetero.OptimalPattern or hetero.SweepSolver, not ad-hoc per-group
// loops. The study driver is
// experiments.HeterogeneousStudy ("amdahl-exp hetero"); the service
// endpoints are /v1/hetero/optimize, /v1/hetero/simulate and the
// "hetero" switch on /v1/sweep; the campaign preset is "hetero" (comm
// axis). sim.SimulateHeteroContext prices a joint plan on the shared
// worker pool, scoring each run by its makespan overhead
// max_g x_g·H_g. FuzzHeteroDivisibleLoad holds every answer to the
// divisible-load optimality conditions (equal finish times, shares
// summing to 1, no profitable shift of work, every useful group active
// without comm). See DESIGN.md, "Heterogeneous topologies".
//
// # Service layer
//
// internal/service + cmd/amdahl-serve turn the analyses into a planning
// API: JSON endpoints for evaluate (exact overhead/pattern time at a
// given (T, P)), optimize ((T*, P*) via internal/optimize), simulate
// (seeded Monte-Carlo campaigns, machine-level and -dist laws included)
// and sweep (a whole axis solved as one warm-start chain, streamed as
// NDJSON, one cache entry per cell; rows leave in batches, flushed at
// most every 5 ms, so a fast axis is one write and a slow one still
// streams row by row).
// The engine caches compiled Frozen evaluators, optimizer results and
// campaign results in LRUs under canonical model keys
// (core.Model.CacheKey: exact hex float encoding, structural profile
// keys; every request key is appended into one stack buffer and looked
// up by its bytes, so a hit allocates nothing and a miss one string),
// deduplicates concurrent identical requests
// (single-flight, one solve per key), bounds heavy jobs on a scheduler, and threads request
// contexts into sim.SimulateContext so a client hang-up aborts its
// campaign. The three protocols share that machinery rather than copy
// it: one generic cache-miss path behind all six optimize/simulate
// methods, one generic sweep loop behind the three /v1/sweep protocols,
// and one table of result caches behind peer warm-fill, which accepts a
// value only if it re-encodes to the offered bytes. Responses are bit-identical to the equivalent CLI invocation
// for fixed seeds; campaigns replay from cache bit-exactly because they
// are pure functions of their seeded configuration. Cancellation is also
// available library-side: sim.SimulateContext and the experiment drivers
// (experiments.Fig2 et al., each taking a context) abort between runs and
// fail fast on the first error. See DESIGN.md, "Service layer".
//
// # Enforced invariants: amdahl-lint
//
// The conventions the architecture depends on — hot loops on
// core.Frozen, NaN-proof float validation (!(x > 0), never x <= 0),
// artifact writes through internal/atomicio, randomness through
// internal/rng, cache keys in exact hex, sorted iteration wherever map
// contents become output, wall-clock readings confined to the
// latency/backoff packages, rng seeds derived only from canonical
// material, 5xx classification centralized in service/fleet — are
// enforced mechanically by cmd/amdahl-lint, a multichecker over the
// nine analyzers in internal/analyzers (frozenloop, nanguard,
// atomicwrite, rawrand, keyfmt, mapiter, walltime, seedflow,
// errclass). The last two are interprocedural: they attach
// gob-serialized facts to objects, carried between packages in
// dependency order. CI runs the suite via scripts/lint.sh, with
// -format=github annotations. It has one driver, which loads packages
// through `go list -export`; it does not plug into `go vet`, whose
// build cache bought nothing (0.45 s for ./... against 5.3 s cold and
// ~1 s warm under vet, 2-CPU host). Justified exceptions are annotated
// in place with `//lint:allow <analyzer> <reason>`. New cross-cutting
// invariants ship with an analyzer, not a comment. See DESIGN.md,
// "Enforced invariants".
//
// Executables: cmd/amdahl-opt (optimal patterns), cmd/amdahl-sim
// (Monte-Carlo pricing of one pattern), cmd/amdahl-exp (regenerate the
// paper's figures plus the profile, baseline and robustness extension
// studies), cmd/amdahl-trace (generate, verify and replay failure
// traces, exponential or not), and cmd/amdahl-serve (the HTTP planning
// service). Runnable examples live in examples/.
//
// The benchmarks in this package regenerate each of the paper's figures
// (BenchmarkFig2 … BenchmarkFig7) at a reduced Monte-Carlo budget and
// measure the hot paths (exact formula, optimizers, simulators).
package amdahlyd
