// The parallel fuzzer's determinism contract: every seed owns its entire
// simulation stack, so the merged report is byte-identical whatever the
// thread-pool size (tier 5 of tools/check.sh runs 200 seeds with --jobs).

#include "src/validate/fuzzer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace oobp {
namespace {

FuzzResult RunSeeds(int seeds, int jobs, const std::string& checks = "*") {
  FuzzOptions opts;
  opts.base_seed = 100;
  opts.num_seeds = seeds;
  opts.jobs = jobs;
  opts.checks = checks;
  return RunFuzz(opts);
}

TEST(FuzzParallelTest, ParallelReportMatchesSerialByteForByte) {
  const FuzzResult serial = RunSeeds(16, 1);
  const FuzzResult parallel = RunSeeds(16, 8);
  EXPECT_EQ(serial.seeds_run, 16);
  EXPECT_EQ(parallel.seeds_run, 16);
  EXPECT_EQ(serial.failed_seeds, parallel.failed_seeds);
  // The error list (seed-prefixed messages in seed order) must be identical
  // element by element — the merge walks per-seed slots in order, never in
  // completion order.
  ASSERT_EQ(serial.errors.size(), parallel.errors.size());
  for (size_t i = 0; i < serial.errors.size(); ++i) {
    EXPECT_EQ(serial.errors[i], parallel.errors[i]) << i;
  }
  // This suite is expected to be clean; a failure here is a real bug, not a
  // determinism issue.
  EXPECT_TRUE(serial.ok())
      << (serial.errors.empty() ? std::string() : serial.errors[0]);
}

TEST(FuzzParallelTest, JobsZeroUsesAllCoresAndStaysDeterministic) {
  const FuzzResult auto_jobs = RunSeeds(8, 0);
  const FuzzResult serial = RunSeeds(8, 1);
  EXPECT_EQ(auto_jobs.seeds_run, serial.seeds_run);
  EXPECT_EQ(auto_jobs.failed_seeds, serial.failed_seeds);
  EXPECT_EQ(auto_jobs.errors, serial.errors);
}

TEST(FuzzParallelTest, ChecksGlobSelectsFamilies) {
  // Family subsets run clean and are themselves deterministic under jobs.
  for (const char* checks : {"dag", "link,serve", "schedule,memory,train"}) {
    const FuzzResult serial = RunSeeds(6, 1, checks);
    const FuzzResult parallel = RunSeeds(6, 4, checks);
    EXPECT_TRUE(serial.ok()) << checks;
    EXPECT_EQ(serial.errors, parallel.errors) << checks;
  }
  // An empty filter selects nothing; seeds still count as run.
  const FuzzResult none = RunSeeds(4, 2, "");
  EXPECT_EQ(none.seeds_run, 4);
  EXPECT_TRUE(none.ok());
}

}  // namespace
}  // namespace oobp
