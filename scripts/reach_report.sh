#!/usr/bin/env bash
# reach_report.sh — which src/ functions do the benches, examples and the
# regime benchmark actually execute?
#
# Builds the tree twice with gcc --coverage at -O1 (the top-level project,
# for the benches and examples, and perfbench/CMakeLists.txt as-is, for the
# regime benchmark), runs
#   - every paper/extension bench with --benchmark_filter='^$' (the
#     experiment tables only; perf_kernels and perf_trial are skipped),
#   - every example with its default arguments,
#   - the four perfbench workloads at --trace 0 and --trace 1,
# then merges the gcov records of both builds and prints the src/
# functions that executed 0 times, grouped by file, with the totals
# "functions never reached" and "lines reached".
#
# Usage: scripts/reach_report.sh [OUT_DIR]   (default: build-reach)
# Takes about 8 minutes on a 4-vCPU host. Needs cmake, gcc/gcov and
# python3; writes nothing outside OUT_DIR. Not a CI job.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
OUT="$(mkdir -p "${1:-$ROOT/build-reach}" && cd "${1:-$ROOT/build-reach}" && pwd)"
JOBS="${JOBS:-$(( $(nproc) < 4 ? $(nproc) : 4 ))}"
PERF_SECONDS="${PERF_SECONDS:-2}"
export BACKFI_THREADS="${BACKFI_THREADS:-$JOBS}"

COV_FLAGS=(
  -DCMAKE_BUILD_TYPE=Release
  "-DCMAKE_CXX_FLAGS=--coverage"
  "-DCMAKE_CXX_FLAGS_RELEASE=-O1 -DNDEBUG"
  "-DCMAKE_EXE_LINKER_FLAGS=--coverage"
)

log() { printf '[reach] %s\n' "$*" >&2; }

benches=$(sed -n 's/^backfi_add_bench(\([a-z0-9_]*\))/\1/p' "$ROOT/bench/CMakeLists.txt" |
          grep -v '^perf_')
examples=$(sed -n 's/^backfi_add_example(\([a-z0-9_]*\))/\1/p' "$ROOT/examples/CMakeLists.txt")

log "configuring + building the top-level tree in $OUT/top"
cmake -S "$ROOT" -B "$OUT/top" "${COV_FLAGS[@]}" > "$OUT/top.configure.log"
# shellcheck disable=SC2086
cmake --build "$OUT/top" -j "$JOBS" --target $benches $examples > "$OUT/top.build.log"

log "configuring + building perfbench in $OUT/perfbench"
cmake -S "$ROOT/perfbench" -B "$OUT/perfbench" "${COV_FLAGS[@]}" \
  > "$OUT/perfbench.configure.log"
cmake --build "$OUT/perfbench" -j "$JOBS" --target perfbench \
  > "$OUT/perfbench.build.log"

# Delete counters from any earlier run, then run everything from a scratch
# working directory (the benches drop TELEMETRY_* files there).
find "$OUT" -name '*.gcda' -delete
mkdir -p "$OUT/run"
cd "$OUT/run"
for b in $benches; do
  log "bench $b"
  "$OUT/top/bench/$b" --benchmark_filter='^$' > "$OUT/run/$b.log" 2>&1
done
for e in $examples; do
  log "example $e"
  "$OUT/top/examples/$e" > "$OUT/run/$e.log" 2>&1
done
for w in trial_cold sweep_fig08 stream_reader trial_impaired; do
  for t in 0 1; do
    log "perfbench $w --trace $t"
    "$OUT/perfbench/perfbench" --workload "$w" --seed 1 \
      --seconds "$PERF_SECONDS" --trace "$t" > "$OUT/run/perf_${w}_$t.log" 2>&1
  done
done

log "collecting gcov records"
mkdir -p "$OUT/gcov"
cd "$OUT/gcov"
find "$OUT/top/src" "$OUT/perfbench/backfi_src" -name '*.gcda' -print0 |
  xargs -0 -n 16 gcov --json-format --stdout > "$OUT/gcov/records.jsonl" 2>/dev/null

python3 - "$ROOT/src" "$OUT/gcov/records.jsonl" <<'EOF'
import json
import os
import sys
from collections import defaultdict

src_root = os.path.realpath(sys.argv[1])
functions = {}                 # (file, line, name) -> executed at all
lines = defaultdict(bool)      # (file, line) -> executed at all
with open(sys.argv[2]) as records:
    for raw in records:
        raw = raw.strip()
        if not raw:
            continue
        for f in json.loads(raw)["files"]:
            path = os.path.realpath(f["file"])
            if not path.startswith(src_root + os.sep):
                continue
            rel = os.path.relpath(path, os.path.dirname(src_root))
            for fn in f["functions"]:
                key = (rel, fn["start_line"], fn["demangled_name"])
                functions[key] = functions.get(key, False) or fn["execution_count"] > 0
            for ln in f["lines"]:
                key = (rel, ln["line_number"])
                lines[key] = lines[key] or ln["count"] > 0

never = sorted(k for k, hit in functions.items() if not hit)
by_file = defaultdict(list)
for rel, line, name in never:
    by_file[rel].append((line, name))
for rel in sorted(by_file):
    print(rel)
    for line, name in by_file[rel]:
        print(f"  {line:5d}  {name}")
print()
print(f"functions never reached: {len(never)} of {len(functions)}")
print(f"lines reached: {sum(lines.values())} of {len(lines)}")
EOF
