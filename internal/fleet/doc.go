// Package fleet turns N amdahl-serve replicas into one fault-tolerant
// planning service (DESIGN.md, "Planning fleet").
//
// The shard space is the canonical model-key space the service layer
// already caches under (core.Model.CacheKey and the ml1|/hg1| variants):
// a consistent-hash Ring places each key on an owner replica, so all
// work for one model concentrates where its compiled kernels and result
// caches live. The Router fronts the fleet — it extracts the shard key
// from each request body, forwards to the owner, hedges slow owners to
// the ring successor, fails over on transport errors and transient
// statuses with bounded jittered backoff (internal/backoff), resumes a
// sweep stream mid-axis when a replica dies after k rows, and sheds load
// at its own bounded in-flight cap instead of amplifying a saturated
// replica into a retry storm. It forwards over keep-alive connections
// of its own, each exchange on the request's goroutine, and replays a
// request once on a fresh connection when a reused one proves closed
// before any byte of the response (forward.go). The HealthChecker
// drives ring membership from /readyz probes and warm-fills a rejoining
// replica from its ring Neighbour before readmission, under a deadline
// derived from the probe timeout so a hung donor cannot stall
// membership.
//
// Everything rests on one invariant inherited from the service layer:
// responses are pure functions of requests (solves are deterministic,
// campaigns are seeded). That is what makes hedging and replay always
// safe, warm-fill bit-identical, and an N-node fleet indistinguishable
// from a single node — the fleet adds availability, never a different
// answer.
//
// The package's tests script replica misbehaviour (injected statuses,
// delays, connection drops, mid-stream deaths) by peer and request class
// through a fault-injection harness that lives in faults_test.go, so
// every degradation path above is exercised by deterministic tests
// rather than left to production to discover.
package fleet
