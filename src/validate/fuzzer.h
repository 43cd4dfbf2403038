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
//     SimValidator; one warm scorer (the single-GPU executor's time-only
//     entry point) walked through single-gene mutations of the searched
//     genotype must match the event path's time, under the SimValidator,
//     bit for bit at every step;
//   * fuzzes the pipeline engine's two producers (DESIGN.md §6.3): a random
//     strategy, GPU count, micro-batch count, zoo or random model,
//     unit-time mode, link (an ideal link with 1-ns chunks and a slow,
//     high-latency one among them), reverse-first-k and run length, run
//     under the SimValidator on the event path and again on the exact
//     message-level executor; every result field, the replay outcome and
//     the event count must match bit for bit. The family draws from its own
//     Rng, so selecting it moves no other family's draws;
//   * fuzzes the data-parallel engine's two producers the same way (the
//     "dp" family, its own Rng too): a random zoo or random model, BytePS or
//     Horovod, cluster, GPU count, reverse-first-k order, issue mode and
//     profile, unit-time runs with fractional sync units, and the edge
//     values commit window 0 (or less than one partition), a 1-byte fusion
//     buffer and a zero fusion cycle. The event path runs under the
//     SimValidator, then the five-slot executor; every metric and the event
//     count must match bit for bit;
//   * fuzzes the serving engines' two producers (the "serving" family, its
//     own Rng too): a ServeEngine or a fleet of 1-8 replicas under any
//     routing policy and random autoscaler knobs, serve-only or co-run with
//     in-order or ooo training over zoo or random models, a random GPU and
//     profile (zero setup and launch gaps among them), 1-2 inflight batches,
//     an optional rate envelope, and dense or sparse arrivals. The event
//     path runs under the SimValidator, then the slot executor; every
//     ServeMetrics, FleetMetrics and TrainMetrics field and the event count
//     must match bit for bit.
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
  bool verbose = false;       // per-seed progress on stderr
  // Thread-pool size; 0 = one worker per core. Every seed owns its entire
  // simulation stack (SimEngine, Gpu, Link, Rng), so seeds are independent
  // and the merged report is byte-identical for any jobs value.
  int jobs = 1;
  // Comma-separated glob list over check families: "schedule", "memory",
  // "train", "dag", "link", "serve" (every 4th seed), "fleet" (every 2nd),
  // "search" (every 2nd), "pipeline", "dp", "serving". A skipped family
  // also skips its random draws, so repros must pass the same --checks
  // value as the failing run ("pipeline", "dp" and "serving" draw from
  // their own streams and repeat under any --checks).
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

struct FleetMetrics;

// Empty when two serving runs agree bit for bit in every FleetMetrics field
// (the aggregate and per-replica ServeMetrics with their batch histograms,
// the autoscaler timeline, router decisions and the training metrics);
// otherwise the first field that differs, with both values. The serving
// fuzz family and the serving executor battery compare the two producers
// with it.
std::string ServingMismatch(const FleetMetrics& a, const FleetMetrics& b);

// Runs the check families matching `checks` for one seed, appending failure
// messages to `errors`. Exposed for tests that pin specific seeds.
void FuzzOneSeed(uint64_t seed, const std::string& checks,
                 std::vector<std::string>* errors);

// `oobp fuzz` entry point: parses --seeds=N, --base-seed=N, --jobs=N,
// --checks=GLOBS, --verbose. Returns 0 on a clean run, 1 on
// check failures, 2 on bad usage, including a number that does not parse
// whole (ParseWhole in src/common/str_util.h).
int FuzzMain(int argc, char** argv);

}  // namespace oobp

#endif  // OOBP_SRC_VALIDATE_FUZZER_H_
