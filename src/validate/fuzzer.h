// Seeded differential fuzzer for the ooo-backprop scheduling stack.
//
// Each seed deterministically generates a random training model
// (layer_builder layer mix, random blocks), a random GPU spec, and a random
// system profile, then:
//   * builds the conventional and the Algorithm-1 ooo schedule and proves
//     both are dependency-preserving permutations (schedule_checker);
//   * recomputes the memory timeline of both orders against the independent
//     interval-liveness reference, and checks the scheduler's memory-cap
//     fallback contract (peak within 1.1x of conventional, or every
//     backward region pre-scheduled);
//   * simulates both schedules end to end under the SimValidator (every
//     invariant of sim_validator.h checked at every event);
//   * runs metamorphic properties on random kernel DAGs: scaling all solo
//     durations by k scales the makespan by ~k, and adding SM capacity
//     never increases the makespan;
//   * on a subset of seeds, fuzzes the serving subsystem with a random
//     arrival process and batcher config under the validator, checking
//     metric sanity (monotone percentiles, bounded attainment);
//   * on a subset of seeds, fuzzes multi-replica serving fleets: random
//     replica counts, routing policies, bursty traces and autoscaler knobs
//     under the validator, with the metamorphic property that adding a
//     replica (single-request batches, same trace) never worsens the mean
//     queueing delay;
//   * on a subset of seeds, fuzzes the search-based scheduler baseline
//     (src/search): every searched schedule must pass the full
//     schedule_checker gate, never score worse than the in-order baseline,
//     carry a best_time a fresh simulator evaluator reproduces, reproduce
//     byte-identically (schedule and pipeline counters) for identical
//     options and at three worker threads, never get worse when the beam
//     is enlarged (portfolio monotonicity), and run clean in a
//     differential searched-vs-MakeOooSchedule execution under the
//     SimValidator; a warm analytic evaluator walked through single-gene
//     mutations of the searched genotype must match the simulator's time
//     and memory peak bit for bit at every step;
//   * fuzzes the pipeline engine's two producers (DESIGN.md §6.3): a random
//     strategy, GPU count, micro-batch count, zoo or random model,
//     unit-time mode, link (an ideal link with 1-ns chunks and a slow,
//     high-latency one among them), reverse-first-k and run length, run
//     under the SimValidator on the event path and again on the exact
//     message-level executor; every result field, the replay outcome and
//     the event count must match bit for bit. The family draws from its own
//     Rng, so selecting it moves no other family's draws.
//
// All randomness flows from the seed through the repo's splitmix64 Rng, so
// a failure reproduces with `oobp fuzz --seeds 1 --base-seed <seed>`.

#ifndef OOBP_SRC_VALIDATE_FUZZER_H_
#define OOBP_SRC_VALIDATE_FUZZER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace oobp {

struct FuzzOptions {
  uint64_t base_seed = 1;
  int num_seeds = 20;
  bool include_serve = true;  // serve-subsystem fuzz on every 4th seed
  bool verbose = false;       // per-seed progress on stderr
  // Thread-pool size; 0 = one worker per core. Every seed owns its entire
  // simulation stack (SimEngine, Gpu, Link, Rng), so seeds are independent
  // and the merged report is byte-identical for any jobs value.
  int jobs = 1;
  // Comma-separated glob list over check families: "schedule", "memory",
  // "train", "dag", "link", "serve", "fleet", "search", "pipeline". A
  // skipped family also skips its random draws, so repros must pass the
  // same --checks value as the failing run ("pipeline" draws from its own
  // stream and repeats under any --checks).
  std::string checks = "*";
};

struct FuzzResult {
  int seeds_run = 0;
  int failed_seeds = 0;
  // Messages of failing checks, each prefixed with its seed (capped).
  std::vector<std::string> errors;
  bool ok() const { return failed_seeds == 0; }
};

FuzzResult RunFuzz(const FuzzOptions& options);

// Runs the check families matching `checks` for one seed, appending failure
// messages to `errors`. Exposed for tests that pin specific seeds.
void FuzzOneSeed(uint64_t seed, bool include_serve, const std::string& checks,
                 std::vector<std::string>* errors);

// Back-compat overload: every check family.
void FuzzOneSeed(uint64_t seed, bool include_serve,
                 std::vector<std::string>* errors);

// `oobp fuzz` entry point: parses --seeds=N, --base-seed=N, --jobs=N,
// --checks=GLOBS, --no-serve, --verbose. Returns 0 on a clean run, 1 on
// check failures, 2 on bad usage, including a number that does not parse
// whole (ParseWhole in src/common/str_util.h).
int FuzzMain(int argc, char** argv);

}  // namespace oobp

#endif  // OOBP_SRC_VALIDATE_FUZZER_H_
