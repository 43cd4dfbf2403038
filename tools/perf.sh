#!/usr/bin/env bash
# Wall-clock perf harness for the simulator core: Release build, then
# `oobp bench --perf` over the default perf set (PerfOptions::filter in
# src/runner/perf.h) — fig07/fig10 training, the fig13 sweeps, serve_*,
# the steady_* replay scenarios, fleet_rr_64, fleet_corun_ooo_64,
# cluster_ps_* and search_eval_perf (override with --filter). Emits
# <build-dir>/BENCH_sim_perf.json; the report's "host" object records
# hardware_concurrency, compiler, and build type so numbers from
# different machines aren't compared blindly. See
# src/runner/perf.h for the schema and DESIGN.md §6/§9 for how to read the
# numbers. Pass --check to gate event counts against bench/perf_baseline.json.
#
# Usage: tools/perf.sh [build-dir] [extra `oobp bench` flags...]
#   tools/perf.sh                        # default perf set, 1 warmup, 3 repeats
#   tools/perf.sh build-perf --filter='fig10_*' --repeats=5
#   tools/perf.sh build-perf --check     # also run the perf regression gate
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${REPO_ROOT}/build-perf"
if [[ $# -gt 0 && $1 != --* ]]; then
  BUILD_DIR="$1"
  shift
fi

cmake -S "${REPO_ROOT}" -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD_DIR}" -j"$(nproc)" --target oobp

"${BUILD_DIR}/tools/oobp" bench --perf --out "${BUILD_DIR}" "$@"
echo "perf.sh: wrote ${BUILD_DIR}/BENCH_sim_perf.json"
