#!/usr/bin/env bash
# lint.sh — build amdahl-lint and run the repo's invariant analyzers
# over the whole module (see DESIGN.md "Enforced invariants" and
# internal/analyzers for the rule set).
#
# Usage: scripts/lint.sh [packages...]
#   packages default to ./... .
#
#        scripts/lint.sh -selfcheck [packages...]
#   Gate-of-the-gate: before the real run, seed known violations in a
#   scratch module — one each for five of the nine analyzers
#   (atomicwrite, mapiter, walltime, errclass, seedflow) — and require
#   the suite to reject every one, so a silently broken analyzer build
#   cannot pass as "no findings". The seedflow seed is cross-package
#   (the SeedParam fact is earned in seed/lib and the bad caller lives
#   in seed/app), so fact propagation in dependency order is exercised
#   end to end.
#
# Exit status 1 on any diagnostic (after //lint:allow suppression).
# amdahl-lint has one driver, the source mode run here; it does not
# plug into `go vet`, whose build cache bought nothing (0.45 s for ./...
# here against 5.3 s cold and ~1 s warm under vet, on a 2-CPU host).
set -euo pipefail

cd "$(dirname "$0")/.."

bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/amdahl-lint" ./cmd/amdahl-lint

if [ "${1:-}" = "-selfcheck" ]; then
    shift
    seed="$bin/seed"
    mkdir -p "$seed/lib" "$seed/app" "$seed/internal/rng"
    cat >"$seed/go.mod" <<'EOF'
module seed

go 1.24
EOF
    cat >"$seed/internal/rng/rng.go" <<'EOF'
package rng

type Rand struct{ s uint64 }

func New(seed uint64) *Rand { return &Rand{s: seed} }
EOF
    cat >"$seed/lib/lib.go" <<'EOF'
package lib

import (
	"os"
	"time"

	"seed/internal/rng"
)

// one seeded violation per analyzer the self-check gates on:

func atomicwriteSeed() error { return os.WriteFile("x", nil, 0o644) }

func mapiterSeed(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func walltimeSeed() int64 { return time.Now().UnixNano() }

func errclassSeed(code int) bool { return code == 503 }

// NewStream earns a SeedParam fact; the violating caller is in seed/app,
// one compilation unit downstream.
func NewStream(s uint64) *rng.Rand { return rng.New(s) }
EOF
    cat >"$seed/app/app.go" <<'EOF'
package app

import (
	"os"

	"seed/lib"
)

func FromPid() interface{} { return lib.NewStream(uint64(os.Getpid())) }
EOF
    echo "lint.sh: self-check — seeded violations must be caught…" >&2
    if out="$(cd "$seed" && "$bin/amdahl-lint" ./... 2>&1)"; then
        echo "lint.sh: SELF-CHECK FAILED: analyzers missed every seeded violation" >&2
        exit 2
    fi
    for a in atomicwrite mapiter walltime errclass seedflow; do
        if ! grep -q "\[$a\]" <<<"$out"; then
            echo "lint.sh: SELF-CHECK FAILED: analyzer $a missed its seeded violation" >&2
            echo "$out" >&2
            exit 2
        fi
    done
    if ! grep -q "app.go.*\[seedflow\]" <<<"$out"; then
        echo "lint.sh: SELF-CHECK FAILED: cross-package seedflow violation not caught" >&2
        echo "$out" >&2
        exit 2
    fi
    echo "lint.sh: self-check ok" >&2
fi

# No exec: the EXIT trap must still clean up the scratch dir.
"$bin/amdahl-lint" "${@:-./...}"
