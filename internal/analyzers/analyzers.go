// Package analyzers is amdahl-lint's rule set: nine repo-specific
// analyzers, each mechanically enforcing an invariant this codebase
// previously enforced only by reviewer memory.
//
// The original five are purely local — one package at a time:
//
//	frozenloop  — PR-1 two-tier rule: no Model.Overhead / Model.Freeze /
//	              hetero.CompileTopology inside loop bodies; hot loops
//	              run on a core.Frozen compiled once per P.
//	nanguard    — the twice-recurred float-validation bug class: a
//	              rejection gated on x <= 0 (or x < lo || x > hi) is
//	              false for NaN, so NaN passes validation.
//	atomicwrite — PR-6 durability rule: artifact/report writes go
//	              through internal/atomicio, never os.Create and kin.
//	rawrand     — bit-identity contract: randomness comes from
//	              internal/rng streams, never math/rand.
//	keyfmt      — cache-key canonicalization: float parameters in key
//	              builders use core.FormatFloatKey's exact-hex token,
//	              never %v/%g/%f.
//
// PR 10 added the determinism suite, two of which are interprocedural
// through the facts layer in the sibling analysis package (facts are
// gob-encoded per object and propagated in dependency order):
//
//	mapiter     — no order-sensitive output (appends, row/CSV/JSON
//	              writes, string building, float accumulation, channel
//	              sends, goroutine spawns, outer-container merges) while
//	              ranging over a map without an intervening sort.
//	walltime    — time.Now/time.Since only in the latency/backoff
//	              packages (internal/fleet, internal/service); wall
//	              clock must never reach cache keys, seeds or artifacts.
//	seedflow    — facts-based: rng seeds derive only from rng.Split
//	              streams, FNV label-hash material, or the flag-declared
//	              master seed; SeedParamFact carries seed positions to
//	              callers across packages.
//	errclass    — facts-based: literal 5xx status comparisons only
//	              inside internal/service and internal/fleet, whose
//	              exported classifiers carry StatusClassifierFact.
//
// The repo rule going forward (ROADMAP): a new invariant ships with an
// analyzer here, not with a comment. Legitimate exceptions carry
// //lint:allow <analyzer> <reason> on or directly above the flagged
// line; the runner rejects reasons that are missing and directives that
// no longer suppress anything.
package analyzers

import "amdahlyd/internal/analyzers/analysis"

// All returns the full amdahl-lint suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		AtomicWrite,
		ErrClass,
		FrozenLoop,
		KeyFmt,
		MapIter,
		NaNGuard,
		RawRand,
		SeedFlow,
		WallTime,
	}
}
