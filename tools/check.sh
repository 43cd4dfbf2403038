#!/usr/bin/env bash
# One-shot health check, nine tiers:
#   1. Release build: unit-test tier + unit-time toy scenarios vs goldens.
#   2. ASan+UBSan build (-DOOBP_SANITIZE=ON): unit-test tier under the
#      sanitizers (catches lifetime bugs in the event slab / callback moves).
#   3. Serve: serve-labeled ctest tier + the serve_* scenarios against their
#      goldens (BENCH_serve_*.json), which pin the headline serving claim —
#      ooo-backprop co-run tightens inference p99 at <= 2% training cost.
#   4. Perf smoke + regression gate: one `oobp bench --perf --check` pass
#      over the default perf set with the golden gate on — asserts the fast
#      path still produces the exact golden values AND that per-scenario
#      event counts match bench/perf_baseline.json (inflation hard-fails;
#      wall-clock bands are informational, Release builds only).
#   5. Fleet: fleet-labeled ctest tier (router/autoscaler unit batteries +
#      fleet_golden_test's --jobs byte-identity and validator replay) plus
#      the fleet_* scenarios against their goldens (BENCH_fleet_*.json),
#      which pin the fleet headline — the 64-replica ooo co-run holds
#      inference p99 flat (<= 10% growth) as load doubles while the
#      in-order baseline degrades (see DESIGN.md §10).
#   6. Fuzz smoke: validate-labeled ctest tier (all golden scenarios
#      replayed under the SimValidator) plus 200 seeds of the differential
#      fuzzer under ASan/UBSan at a fixed base seed, parallelised across
#      cores with --jobs 0 (the merged report is byte-identical to a serial
#      run, so failures still reproduce with
#      `oobp fuzz --seeds 1 --base-seed <seed>`; see DESIGN.md §8-9), and
#      another 200 ASan seeds restricted to the fleet fuzz family (random
#      fleets, metamorphic add-a-replica check; every second seed runs),
#      and 2000 ASan seeds of the train family (each seed's conventional
#      and ooo runs, short and replayed, under the validator on the event
#      path, then again on the exact single-GPU executor: metrics must
#      match bit for bit, replay outcomes exactly; see DESIGN.md §6.3),
#      and 2000 ASan seeds of the pipeline family (a random pipeline
#      config under the validator on the event path, then on the exact
#      message-level executor: every result field, the replay outcome and
#      the event count must match bit for bit).
#   7. ThreadSanitizer build (-DOOBP_SANITIZE_THREAD=ON) of what still
#      starts threads: search_threads_identity_test (the search portfolio's
#      worker pool at threads 1/4/8), event_heap_test (the process-wide
#      event tally hammered from concurrent engines), and a 20-seed fleet
#      fuzz smoke on the fuzzer's --jobs pool.
#   8. Search baseline: search-labeled ctest tier (the 200-seed
#      searched-schedule property battery, the search_gap_*
#      golden/byte-identity tests, the analytic-evaluator bit-exactness
#      battery, and the parallel-trajectory byte-identity test at threads
#      1/4/8), every search_* scenario against its golden (the gap sweeps,
#      the deep-budget search_deep_fig07, search_eval_fidelity and
#      search_eval_perf), a perf smoke of the analytic evaluator gated by
#      the perf baseline's analytic-evals count and evals/sec floor, a TSan
#      run of the parallel trajectory portfolio (threads > beam-count
#      collapse included), and 200 ASan seeds of the search fuzz family
#      (checker gate, Tier-B rescoring, rerun and threads=3 identity, beam
#      monotonicity, an analytic-vs-simulator mutation walk, and a
#      differential searched-vs-heuristic run under the SimValidator;
#      every second seed runs — see DESIGN.md §13-14).
#   9. Benchmark self-test: `hostbench/run.py --selftest` builds the
#      host-time benchmark (its own Release CMake project over src/, in
#      build-dir/hostbench) and checks its helpers, that a seed's digest
#      and exact counters repeat across processes, and the pinned digests
#      of every workload (hostbench/pinned.json). Those digests cover
#      configs no golden does (48-GPU Pub-A data parallelism, random k,
#      8-GPU OOO-Pipe2), so a src/ change that moves one fails here.
#
# Tier matrix (tier x build):
#   tier 1, 3, 4, 5 -> Release build    (speed; golden gates are exact)
#   tier 2, 6       -> ASan+UBSan build (memory-safety of slab/fluid/fuzz paths)
#   tier 7          -> TSan build       (data races in the worker pools)
#   tier 8          -> Release (search goldens) + TSan (parallel portfolio)
#                      + ASan (search fuzz smoke)
#   tier 9          -> hostbench's own Release build
#
# Usage: tools/check.sh [build-dir [asan-build-dir [tsan-build-dir]]]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build-check}"
ASAN_DIR="${2:-${REPO_ROOT}/build-asan}"
TSAN_DIR="${3:-${REPO_ROOT}/build-tsan}"

# --- Tier 1: Release + unit tests + golden gate --------------------------
cmake -S "${REPO_ROOT}" -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD_DIR}" -j"$(nproc)"

ctest --test-dir "${BUILD_DIR}" -L unit --output-on-failure

"${BUILD_DIR}/tools/oobp" bench --filter 'fig0[456]*' --jobs 0 \
    --out "${BUILD_DIR}" --golden "${REPO_ROOT}/bench/golden"

# --- Tier 2: ASan + UBSan unit tests -------------------------------------
cmake -S "${REPO_ROOT}" -B "${ASAN_DIR}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DOOBP_SANITIZE=ON
cmake --build "${ASAN_DIR}" -j"$(nproc)"

ctest --test-dir "${ASAN_DIR}" -L unit --output-on-failure

# --- Tier 3: serving subsystem: serve tests + serve goldens ---------------
ctest --test-dir "${BUILD_DIR}" -L serve --output-on-failure

"${BUILD_DIR}/tools/oobp" bench --filter 'serve_*' --jobs 0 \
    --out "${BUILD_DIR}" --golden "${REPO_ROOT}/bench/golden"

# --- Tier 4: perf smoke with golden gate + event-count regression gate ----
"${BUILD_DIR}/tools/oobp" bench --perf --warmup 0 --repeats 1 --jobs 0 \
    --check="${REPO_ROOT}/bench/perf_baseline.json" \
    --out "${BUILD_DIR}" --golden "${REPO_ROOT}/bench/golden"

# --- Tier 5: fleet: router/autoscaler/golden tests + fleet goldens --------
ctest --test-dir "${BUILD_DIR}" -L fleet --output-on-failure

"${BUILD_DIR}/tools/oobp" bench --filter 'fleet_*,cluster_*' --jobs 0 \
    --out "${BUILD_DIR}" --golden "${REPO_ROOT}/bench/golden"

# --- Tier 6: fuzz smoke: validator replay + ASan fuzz seeds ---------------
ctest --test-dir "${BUILD_DIR}" -L validate --output-on-failure

"${ASAN_DIR}/tools/oobp" fuzz --seeds 200 --base-seed 1 --jobs 0

"${ASAN_DIR}/tools/oobp" fuzz --seeds 200 --base-seed 1 --jobs 0 \
    --checks=fleet

"${ASAN_DIR}/tools/oobp" fuzz --seeds 2000 --base-seed 1 --jobs 0 --checks=train

"${ASAN_DIR}/tools/oobp" fuzz --seeds 2000 --base-seed 1 --jobs 0 \
    --checks=pipeline

# --- Tier 7: TSan build: worker pools and the event tally ----------------
cmake -S "${REPO_ROOT}" -B "${TSAN_DIR}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DOOBP_SANITIZE_THREAD=ON
cmake --build "${TSAN_DIR}" -j"$(nproc)"

ctest --test-dir "${TSAN_DIR}" \
    -R '^(search_threads_identity_test|event_heap_test)$' --output-on-failure

"${TSAN_DIR}/tools/oobp" fuzz --seeds 20 --base-seed 1 --jobs 0 \
    --checks=fleet

# --- Tier 8: search baseline: goldens + fuzz smoke ------------------------
ctest --test-dir "${BUILD_DIR}" -L search --output-on-failure

# Every search golden: the gap sweeps (budget 400 and the deep 4000),
# analytic-vs-simulator fidelity, and the eval-perf counters.
"${BUILD_DIR}/tools/oobp" bench --filter 'search_*' --jobs 0 \
    --out "${BUILD_DIR}" --golden "${REPO_ROOT}/bench/golden"

# Analytic-evaluator perf smoke: the deterministic eval count must match
# the baseline exactly and Release throughput must clear the evals/sec
# floor (bench/perf_baseline.json, "analytic_per_sec_floor").
"${BUILD_DIR}/tools/oobp" bench --perf --warmup 0 --repeats 1 --jobs 0 \
    --filter search_eval_perf \
    --check="${REPO_ROOT}/bench/perf_baseline.json" \
    --out "${BUILD_DIR}"

# Parallel trajectory portfolio under TSan: more workers than trajectories
# exercises the pool's cap; the run only has to be race-free (scores are
# byte-identity-checked by search_threads_identity_test in the ctest tier).
"${TSAN_DIR}/tools/oobp" search --model=densenet121 \
    --beam=4 --budget=150 --seed=7 --threads=8

"${ASAN_DIR}/tools/oobp" fuzz --seeds 200 --base-seed 1 --jobs 0 \
    --checks=search

# --- Tier 9: benchmark self-test: pinned digests of every workload --------
CARGO_TARGET_DIR="${BUILD_DIR}" python3 "${REPO_ROOT}/hostbench/run.py" \
    --selftest

echo "check.sh: all green"
