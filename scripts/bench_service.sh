#!/usr/bin/env bash
# Compile-service benchmark: requests/sec through the content-addressed
# compile cache (src/cache/) on a mutated PolyBench stream, plus
# parallel per-component pass execution against serial, written to
# BENCH_service.json. The bench binary itself verifies that every warm,
# incremental (never-seen single-kernel edits, each a cache miss) and
# parallel artifact is byte-identical to a cold serial compile. Under
# --check the throughput gates are enforced too: warm must beat cold
# (and be >= 5x), and on multi-core hosts parallel `-p all` must be
# >= 1.5x serial on the multi-component workload — that gate
# auto-skips on 1-core hosts, the identity gates never skip.
#
# Usage: scripts/bench_service.sh [path/to/bench_service] [extra flags]
#   e.g. scripts/bench_service.sh build/bench_service --small --check
#
# CI runs the --small --check configuration: two kernels, short
# streams, hard failure on any identity or throughput gate.
set -u

bench="${1:-build/bench_service}"
shift 2>/dev/null || true
if [ ! -x "$bench" ]; then
    echo "bench_service: bench binary not found at '$bench'" >&2
    exit 1
fi

# A caller-supplied --out wins (the driver takes the last --out given);
# track it so the output check validates the right file.
out="BENCH_service.json"
prev=""
for arg in "$@"; do
    if [ "$prev" = "--out" ]; then
        out="$arg"
    fi
    prev="$arg"
done

"$bench" --out "$out" "$@"
status=$?
if [ $status -ne 0 ]; then
    echo "bench_service: driver failed (exit $status)" >&2
    exit $status
fi

if [ ! -s "$out" ]; then
    echo "bench_service: $out missing or empty" >&2
    exit 1
fi
echo "bench_service: wrote $out"
