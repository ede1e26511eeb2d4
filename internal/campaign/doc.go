// Package campaign is the crash-safe grid orchestrator: a declarative
// manifest expands into a deterministic grid of cells — one protocol
// under one failure law, over platforms × scenarios × one sweep axis —
// each cell is solved on the warm-start sweep solvers and priced by
// Monte-Carlo, and every result lands as one atomic, checksummed
// artifact file. The protocol and the law are four scalar fields:
//
//	{"protocol": "multilevel", "in_mem_fraction": 0.1,
//	 "dist": "exponential", "axis": "alpha", "values": [0.05, 0.1]}
//
// (a non-exponential law such as {"dist": "weibull", "shape": 0.7}
// prices only single-level cells). A
// campaign killed at any instant — SIGKILL included — loses at most its
// in-flight cells: resuming re-plans the grid, verifies completed
// artifacts by checksum, deterministically replays the solver chains,
// and re-runs only what is missing, producing a byte-identical aggregate
// report (see DESIGN.md, "Campaign orchestrator & fault injection").
//
// # Determinism
//
// Cell identity is content-addressed: the ID hashes the canonical
// core.Model.CacheKey and failures.CacheKey material plus protocol,
// fraction and budget, so IDs survive manifest reordering, and each
// cell's Monte-Carlo seed derives from the same material XOR the
// manifest's master seed. Reports are pure functions of the plan and the
// banked artifacts — no timestamps, no counters — which is what makes
// "byte-identical after resume" a testable contract rather than a hope.
// Skipped cells are Observed into the warm-start chains exactly as their
// original solve would have been, so resumed chains replay the original
// refinement path.
//
// # Robustness
//
// The executor is built to survive the failures the modeled applications
// survive: transient cell errors retry with exponential backoff and
// deterministic jitter, a failure budget fails the campaign fast when
// exceeded (banked cells stay banked either way), cells run under
// optional per-attempt timeouts, an interrupt cancels in-flight work and
// flushes the journal, and a deterministic fault-injection plan
// (FaultPlan: error/panic/delay by cell ID, label or wildcard) lets
// tests prove the crash/resume/retry behavior instead of hoping for it.
//
// The CLI entry point is "amdahl-exp campaign"; the six study presets
// (Preset, PresetNames) express the hand-written drivers as manifests,
// and a seventh, smoke, is the tiny CI grid.
package campaign
