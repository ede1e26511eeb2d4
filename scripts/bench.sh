#!/usr/bin/env bash
# bench.sh — run the full benchmark suite and record it as BENCH_<N>.json
# in the repository root, so the perf trajectory of the project is tracked
# PR over PR.
#
# Usage: scripts/bench.sh [N] [extra go test args...]
#   N defaults to one past the highest existing BENCH_<N>.json.
#
#        scripts/bench.sh -compare BENCH_<N>.json [extra go test args...]
#   Regression gate: re-runs the frozen-kernel benchmarks (count=5,
#   -benchmem, min ns/op — the min absorbs frequency-scaling dips on
#   shared hosts) and exits 1 if any of them regressed by more than 15%
#   in ns/op, or its minimum allocs/op exceeds the named baseline's.
#   Allocation counts do not depend on the host; ns/op does. Nothing is
#   written.
#
# The JSON records the environment (go version, CPU, GOMAXPROCS), the raw
# `go test -bench` output, and a parsed {name: {ns_per_op, bytes_per_op,
# allocs_per_op}} map taking the minimum ns/op over -count 3 runs.
set -euo pipefail

cd "$(dirname "$0")/.."

# The frozen-kernel hot paths gated by -compare: the per-call costs every
# optimizer and simulator loop is built on. Macro benchmarks (figures,
# campaigns) are recorded but not gated — they move with design changes;
# these must only ever go down. BenchmarkFleetLoadGen is the one gated
# end-to-end path: warm per-request latency through the fleet router
# (its qps/p50/p99 extras are recorded alongside, not gated).
frozen_benchmarks="BenchmarkExactPatternTime BenchmarkFreeze BenchmarkFrozenOverhead BenchmarkFrozenPatternTimeDerivs BenchmarkFirstOrderSolve BenchmarkMultilevelOptimize BenchmarkMultilevelCampaign BenchmarkHeteroOptimize BenchmarkHeteroSweep BenchmarkFleetLoadGen"
regression_pct=15

# parse_min <raw-file>: emit "name ns allocs" lines, the minimum ns/op
# and the minimum allocs/op per benchmark.
parse_min() {
    awk '
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        ns = ""; allocs = ""
        for (i = 2; i <= NF; i++) {
            if ($(i) == "ns/op") ns = $(i - 1)
            if ($(i) == "allocs/op") allocs = $(i - 1)
        }
        if (ns == "" || allocs == "") next
        if (!(name in best) || ns + 0 < best[name] + 0) best[name] = ns
        if (!(name in fewest) || allocs + 0 < fewest[name] + 0) fewest[name] = allocs
    }
    END { for (name in best) print name, best[name], fewest[name] }' "$1"
}

# baseline_field <name> <field> <baseline-file>: one field of a benchmark
# entry in a BENCH_<N>.json file (empty when absent).
baseline_field() {
    awk -v n="\"$1\"" -v f="\"$2\"" '
        index($0, n ": {") && index($0, f ":") {
            s = $0
            sub(".*" f ": *", "", s)
            sub(/[,}].*/, "", s)
            print s
        }' "$3"
}

if [ "${1:-}" = "-compare" ]; then
    baseline="${2:-}"
    if [ -z "$baseline" ] || [ ! -f "$baseline" ]; then
        echo "bench.sh -compare: baseline file required (e.g. BENCH_4.json)" >&2
        exit 2
    fi
    shift 2
    regex="^($(echo "$frozen_benchmarks" | tr ' ' '|'))$"
    raw="$(mktemp)"
    trap 'rm -f "$raw"' EXIT
    echo "running frozen-kernel benchmarks (count=5) for comparison against $baseline…" >&2
    go test -bench "$regex" -benchmem -count 5 -run XXX "$@" . | tee "$raw" >&2

    expected=$(echo "$frozen_benchmarks" | wc -w)
    parse_min "$raw" | {
        status=0
        compared=0
        while read -r name ns allocs; do
            base_ns="$(baseline_field "$name" ns_per_op "$baseline")"
            base_allocs="$(baseline_field "$name" allocs_per_op "$baseline")"
            if [ -z "$base_ns" ] || [ -z "$base_allocs" ]; then
                echo "  $name: not in baseline, skipped" >&2
                continue
            fi
            over="$(awk -v new="$ns" -v old="$base_ns" -v pct="$regression_pct" \
                'BEGIN { print (new > old * (1 + pct / 100)) ? 1 : 0 }')"
            delta="$(awk -v new="$ns" -v old="$base_ns" \
                'BEGIN { printf "%+.1f%%", (new / old - 1) * 100 }')"
            compared=$((compared + 1))
            if [ "$over" = 1 ]; then
                echo "  REGRESSION $name: $ns ns/op vs baseline $base_ns ($delta > +${regression_pct}%)" >&2
                status=1
            else
                echo "  ok $name: $ns ns/op vs baseline $base_ns ($delta)" >&2
            fi
            if [ "$allocs" -gt "$base_allocs" ]; then
                echo "  REGRESSION $name: $allocs allocs/op vs baseline $base_allocs" >&2
                status=1
            else
                echo "  ok $name: $allocs allocs/op vs baseline $base_allocs" >&2
            fi
        done
        # A gate that compared nothing (renamed benchmark, stale baseline
        # keys) must fail, not pass vacuously.
        if [ "$compared" -lt "$expected" ]; then
            echo "  ERROR: only $compared of $expected frozen-kernel benchmarks were compared" >&2
            status=1
        fi
        exit $status
    }
    exit $?
fi

n="${1:-}"
if [ -z "$n" ]; then
    n=1
    for f in BENCH_*.json; do
        [ -e "$f" ] || continue
        i="${f#BENCH_}"
        i="${i%.json}"
        case "$i" in
        *[!0-9]*) continue ;;
        esac
        if [ "$i" -ge "$n" ]; then n=$((i + 1)); fi
    done
else
    shift
fi

out="BENCH_${n}.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "running benchmarks (count=3)…" >&2
go test -bench . -benchmem -count 3 -run XXX "$@" . | tee "$raw" >&2

go_version="$(go version)"
date_utc="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

awk -v go_version="$go_version" -v date_utc="$date_utc" '
function esc(s) { gsub(/"/, "\\\"", s); return s }
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""; qps = ""; p50 = ""; p99 = ""; conns = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op") ns = $(i - 1)
        if ($(i) == "B/op") bytes = $(i - 1)
        if ($(i) == "allocs/op") allocs = $(i - 1)
        if ($(i) == "qps") qps = $(i - 1)
        if ($(i) == "p50-ns") p50 = $(i - 1)
        if ($(i) == "p99-ns") p99 = $(i - 1)
        if ($(i) == "conns/op") conns = $(i - 1)
    }
    if (ns == "") next
    if (!(name in best) || ns + 0 < best[name]) {
        best[name] = ns + 0
        b[name] = bytes
        a[name] = allocs
        q[name] = qps
        l50[name] = p50
        l99[name] = p99
        c[name] = conns
        if (!(name in seen)) { order[++k] = name; seen[name] = 1 }
    }
}
END {
    printf "{\n"
    printf "  \"date\": \"%s\",\n", esc(date_utc)
    printf "  \"go\": \"%s\",\n", esc(go_version)
    printf "  \"cpu\": \"%s\",\n", esc(cpu)
    printf "  \"count\": 3,\n"
    printf "  \"metric\": \"min ns/op over runs\",\n"
    printf "  \"benchmarks\": {\n"
    for (i = 1; i <= k; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_per_op\": %s", esc(name), best[name]
        if (b[name] != "") printf ", \"bytes_per_op\": %s", b[name]
        if (a[name] != "") printf ", \"allocs_per_op\": %s", a[name]
        if (q[name] != "") printf ", \"qps\": %s", q[name]
        if (l50[name] != "") printf ", \"p50_ns\": %s", l50[name]
        if (l99[name] != "") printf ", \"p99_ns\": %s", l99[name]
        if (c[name] != "") printf ", \"conns_per_op\": %s", c[name]
        printf "}%s\n", (i < k ? "," : "")
    }
    printf "  }\n}\n"
}' "$raw" >"$out"

echo "wrote $out" >&2
