// Unit tests for the validation layer: observer subscription, clean runs
// staying clean, and — crucially — sensitivity: a validator that can never
// fire is worthless, so every invariant it checks, broken permutations and
// tampered memory timelines must all be flagged.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/joint_scheduler.h"
#include "src/core/memory_model.h"
#include "src/core/schedule.h"
#include "src/hw/gpu.h"
#include "src/hw/gpu_spec.h"
#include "src/hw/link.h"
#include "src/hw/observer.h"
#include "src/nn/layer_builder.h"
#include "src/nn/train_graph.h"
#include "src/sim/engine.h"
#include "src/trace/trace.h"
#include "src/validate/fuzzer.h"
#include "src/validate/schedule_checker.h"
#include "src/validate/sim_validator.h"

namespace oobp {
namespace {

NnModel SmallModel() {
  NnModel model;
  model.name = "tiny";
  model.batch = 16;
  model.layers.push_back(MakeConv2d("c0", "b0", 16, 8, 16, 16, 16, 3, 1));
  model.layers.push_back(MakePool("p0", "b0", 16, 16, 8, 8));
  model.layers.push_back(MakeConv2d("c1", "b1", 16, 16, 8, 8, 32, 3, 1));
  model.layers.push_back(MakeDense("fc", "b1", 16, 1, 128, 10));
  return model;
}

// A scope subscribes for its life and scopes nest; a device reports to the
// subscribers of the moment if it was built in an observed run, and to no
// one otherwise.
TEST(ObserverScopeTest, SubscribesForItsLifeAndNests) {
  EXPECT_FALSE(RunIsObserved());
  SimEngine engine;
  Gpu unobserved(&engine, GpuSpec::V100());
  SimValidator outer;
  TraceRecorder inner;
  {
    const ObserverScope none(nullptr);
    EXPECT_FALSE(RunIsObserved());
    const ObserverScope a(&outer);
    EXPECT_TRUE(RunIsObserved());
    Gpu gpu(&engine, GpuSpec::V100());
    const StreamId s = gpu.CreateStream(0);
    {
      const ObserverScope b(&inner);
      gpu.Enqueue(s, KernelDesc{"k", "fwd", Us(1), 100.0, {}});
      unobserved.Enqueue(unobserved.CreateStream(0),
                         KernelDesc{"u", "fwd", Us(1), 100.0, {}});
      engine.Run();
    }
    EXPECT_TRUE(RunIsObserved());
  }
  EXPECT_FALSE(RunIsObserved());
  EXPECT_TRUE(outer.ok()) << outer.Summary();
  EXPECT_EQ(outer.gpus_observed(), 1);
  EXPECT_EQ(outer.kernels_finished(), 1);
  // The recorder joined after the Gpu was built: it still hears the kernel.
  ASSERT_EQ(inner.events().size(), 1u);
  EXPECT_EQ(inner.events()[0].name, "k");
}

TEST(SimValidatorTest, CleanMultiStreamRunHasNoViolations) {
  SimValidator validator;
  {
    ObserverScope scope(&validator);
    SimEngine engine;
    Gpu gpu(&engine, GpuSpec::V100());
    const StreamId main = gpu.CreateStream(0);
    const StreamId sub = gpu.CreateStream(2);
    KernelDesc a;
    a.solo_duration = 1000;
    a.thread_blocks = 400;
    const KernelId ka = gpu.Enqueue(main, a);
    KernelDesc b;
    b.solo_duration = 2000;
    b.thread_blocks = 1400;
    b.deps.push_back(ka);
    gpu.Enqueue(sub, b);
    KernelDesc c;
    c.solo_duration = 500;
    c.thread_blocks = 1520;
    gpu.Enqueue(main, c);
    engine.Run();
    EXPECT_EQ(gpu.kernels_completed(), 3u);
  }
  EXPECT_TRUE(validator.ok()) << validator.Summary();
  EXPECT_EQ(validator.gpus_observed(), 1);
  EXPECT_EQ(validator.kernels_finished(), 3);
}

TEST(SimValidatorTest, CleanLinkRunHasNoViolations) {
  SimValidator validator;
  int done = 0;
  {
    ObserverScope scope(&validator);
    SimEngine engine;
    Link link(&engine, LinkSpec::PcIe3(), /*chunk_bytes=*/64 << 10);
    link.Transfer(1 << 20, /*priority=*/1, "big", [&done] { ++done; });
    link.Transfer(4 << 10, /*priority=*/0, "small", [&done] { ++done; });
    engine.Run();
  }
  EXPECT_EQ(done, 2);
  EXPECT_TRUE(validator.ok()) << validator.Summary();
  EXPECT_EQ(validator.links_observed(), 1);
  EXPECT_EQ(validator.transfers_completed(), 2);
}

// Sensitivity: feed the validator impossible event sequences, as the values
// a callback carries and without a device, and check that each invariant
// fires with its own message.
class SimValidatorSensitivityTest : public ::testing::Test {
 protected:
  static constexpr int kGpu = 3;
  static constexpr int kLink = 4;
  static constexpr TimeNs kSetup = 10;  // the GPU's kernel_exec_overhead
  static constexpr TimeNs kSolo = 100;  // every kernel's solo duration

  SimValidatorSensitivityTest() {
    GpuSpec gpu = GpuSpec::V100();
    gpu.kernel_exec_overhead = kSetup;
    capacity_ = gpu.slot_capacity();
    v_.OnGpuCreated(kGpu, 0, gpu);
    // 1 byte/ns with a 1,000 ns latency: 100 bytes take at least 1,100 ns.
    v_.OnLinkCreated(kLink, 0, LinkSpec{"test-link", 1.0, 1000});
  }

  void Enqueue(TimeNs now, KernelId id, StreamId stream = 0,
               std::vector<KernelId> deps = {}) {
    v_.OnKernelEnqueued({.gpu = kGpu,
                         .now = now,
                         .id = id,
                         .stream = stream,
                         .solo_duration = kSolo,
                         .deps = deps});
  }
  void Start(TimeNs now, KernelId id) {
    v_.OnKernelStarted({.gpu = kGpu, .now = now, .id = id});
  }
  void Finish(TimeNs now, KernelId id) {
    v_.OnKernelFinished({.gpu = kGpu, .now = now, .id = id});
  }
  void Submit(TimeNs now, int64_t id, int64_t bytes = 100) {
    v_.OnTransferSubmitted(
        {.link = kLink, .now = now, .id = id, .bytes = bytes});
  }
  void Complete(TimeNs now, int64_t id, TimeNs busy_time = 0) {
    v_.OnTransferCompleted(
        {.link = kLink, .now = now, .id = id, .busy_time = busy_time});
  }

  // The validator flagged exactly one violation, and it says `text`.
  void ExpectOnly(const std::string& text) const {
    EXPECT_EQ(v_.total_violations(), 1) << v_.Summary();
    EXPECT_NE(v_.Summary().find(text), std::string::npos) << v_.Summary();
  }

  SimValidator v_;
  int capacity_ = 0;
};

TEST_F(SimValidatorSensitivityTest, CleanSequenceHasNoViolations) {
  Enqueue(0, 0);
  Enqueue(0, 1, /*stream=*/1, {0});
  Start(kSetup, 0);
  Finish(kSetup + kSolo, 0);
  Start(kSetup + kSolo, 1);
  Finish(kSetup + 2 * kSolo, 1);
  v_.OnGpuDestroyed(kGpu, 1000, 2.0 * kSolo * capacity_);
  Submit(0, 1);
  Complete(1100, 1, /*busy_time=*/1100);
  EXPECT_TRUE(v_.ok()) << v_.Summary();
}

TEST_F(SimValidatorSensitivityTest, FlagsUnregisteredGpu) {
  v_.OnKernelStarted({.gpu = kGpu + 10, .now = 0, .id = 0});
  ExpectOnly("gpu #13: kernel start from an unregistered device");
}

TEST_F(SimValidatorSensitivityTest, FlagsGpuTimeRunningBackwards) {
  Enqueue(50, 0);
  Enqueue(40, 1);
  ExpectOnly("enqueue at t=40 before t=50 (time moved backwards)");
}

TEST_F(SimValidatorSensitivityTest, FlagsSmOverAllocation) {
  v_.OnKernelEnqueued({.gpu = kGpu,
                       .now = 0,
                       .id = 0,
                       .allocated_rate = capacity_ + 1.0});
  ExpectOnly("exceeds capacity");
}

TEST_F(SimValidatorSensitivityTest, FlagsSparseKernelIds) {
  Enqueue(0, 1);
  ExpectOnly("kernel ids not dense (got 1, expected 0)");
}

TEST_F(SimValidatorSensitivityTest, FlagsDependencyOnALaterKernel) {
  Enqueue(0, 0, 0, {0});
  ExpectOnly("kernel 0 depends on 0, which is not an earlier kernel");
}

TEST_F(SimValidatorSensitivityTest, FlagsKernelStartedTwice) {
  Enqueue(0, 0);
  Start(kSetup, 0);
  Start(kSetup + 1, 0);
  ExpectOnly("kernel 0 started twice");
}

TEST_F(SimValidatorSensitivityTest, FlagsStartInsideTheSetupGap) {
  Enqueue(0, 0);
  Start(kSetup - 1, 0);
  ExpectOnly("before enqueue t=0 + setup overhead 10");
}

TEST_F(SimValidatorSensitivityTest, FlagsStartBeforeADependencyFinished) {
  Enqueue(0, 0);
  Enqueue(0, 1, /*stream=*/1, {0});
  Start(kSetup, 0);
  Start(kSetup, 1);
  ExpectOnly("kernel 1 started at t=10 but dependency 0 has not finished");
}

TEST_F(SimValidatorSensitivityTest, FlagsStartOutOfStreamOrder) {
  Enqueue(0, 0);
  Enqueue(0, 1);
  Start(kSetup, 1);
  ExpectOnly("kernel 1 started out of stream 0's enqueue order");
}

TEST_F(SimValidatorSensitivityTest, FlagsKernelFinishedTwice) {
  Enqueue(0, 0);
  Start(kSetup, 0);
  Finish(kSetup + kSolo, 0);
  Finish(kSetup + kSolo, 0);
  ExpectOnly("kernel 0 finished twice");
}

TEST_F(SimValidatorSensitivityTest, FlagsFinishWithoutStart) {
  Enqueue(0, 0);
  Finish(kSolo, 0);
  ExpectOnly("kernel 0 finished without starting");
}

TEST_F(SimValidatorSensitivityTest, FlagsKernelShorterThanItsSoloDuration) {
  Enqueue(0, 0);
  Start(kSetup, 0);
  Finish(kSetup + kSolo - 2, 0);
  ExpectOnly("kernel 0 ran 98 ns, shorter than its solo duration 100 ns");
}

TEST_F(SimValidatorSensitivityTest, FlagsFinishOutOfStreamOrder) {
  Enqueue(0, 0);
  Enqueue(0, 1);
  Start(kSetup, 0);
  Start(kSetup, 1);
  Finish(kSetup + kSolo, 1);
  ExpectOnly("kernel 1 finished out of stream 0's enqueue order");
}

TEST_F(SimValidatorSensitivityTest, FlagsBusyIntegralAboveCapacity) {
  v_.OnGpuDestroyed(kGpu, 100, 101.0 * capacity_);
  ExpectOnly("SM busy integral");
}

TEST_F(SimValidatorSensitivityTest, FlagsUnregisteredLink) {
  v_.OnTransferSubmitted({.link = kLink + 10, .now = 0, .id = 1});
  ExpectOnly("link #14: transfer submit from an unregistered device");
}

TEST_F(SimValidatorSensitivityTest, FlagsLinkTimeRunningBackwards) {
  Submit(50, 1);
  Submit(40, 2);
  ExpectOnly("transfer submit at t=40 before t=50 (time moved backwards)");
}

TEST_F(SimValidatorSensitivityTest, FlagsEmptyTransfer) {
  Submit(0, 1, /*bytes=*/0);
  ExpectOnly("transfer 1 submitted with 0 bytes");
}

TEST_F(SimValidatorSensitivityTest, FlagsReusedTransferId) {
  Submit(0, 1);
  Submit(0, 1);
  ExpectOnly("transfer id 1 reused");
}

TEST_F(SimValidatorSensitivityTest, FlagsUnknownTransferCompletion) {
  Complete(1100, 99);
  ExpectOnly("unknown transfer 99 completed");
}

TEST_F(SimValidatorSensitivityTest, FlagsTransferCompletedTwice) {
  Submit(0, 1);
  Complete(1100, 1);
  Complete(1100, 1);
  ExpectOnly("transfer 1 completed twice");
}

TEST_F(SimValidatorSensitivityTest, FlagsTransferFasterThanLatencyAndWire) {
  Submit(0, 1);
  Complete(1099, 1);
  ExpectOnly("transfer 1 took 1099 ns, below the latency + serialization "
             "floor 1100 ns");
}

TEST_F(SimValidatorSensitivityTest, FlagsBytesAboveTheBandwidthBudget) {
  // Each transfer meets its own floor, 3,000 ns, but the link cannot move
  // both in that window.
  Submit(0, 1, /*bytes=*/2000);
  Submit(0, 2, /*bytes=*/2000);
  Complete(3000, 1);
  Complete(3000, 2);
  ExpectOnly("4000 bytes completed in a window that fits only 3000");
}

TEST_F(SimValidatorSensitivityTest, FlagsBusyTimeAboveTheWindow) {
  Submit(0, 1);
  Complete(1100, 1, /*busy_time=*/1101);
  ExpectOnly("busy time 1101 ns exceeds the 1100 ns since the first submit");
}

// The schedule checker accepts both canonical schedules of a real model...
TEST(ScheduleCheckerTest, AcceptsConventionalAndOooSchedules) {
  const NnModel model = SmallModel();
  const TrainGraph graph(&model);
  const IterationSchedule conv = ConventionalIteration(graph);
  EXPECT_TRUE(CheckIterationSchedule(graph, conv).ok())
      << CheckIterationSchedule(graph, conv).ToString();
  const JointScheduleResult ooo =
      MakeOooSchedule(graph, GpuSpec::V100(), SystemProfile::TensorFlowXla());
  EXPECT_TRUE(CheckIterationSchedule(graph, ooo.schedule).ok())
      << CheckIterationSchedule(graph, ooo.schedule).ToString();
}

// ...and rejects dependency-violating permutations of them.
TEST(ScheduleCheckerTest, RejectsBrokenPermutations) {
  const NnModel model = SmallModel();
  const TrainGraph graph(&model);
  const IterationSchedule conv = ConventionalIteration(graph);

  {
    IterationSchedule bad = conv;  // drop the last op: not a permutation
    bad.ops.pop_back();
    EXPECT_FALSE(CheckIterationSchedule(graph, bad).ok());
  }
  {
    IterationSchedule bad = conv;  // duplicate an op
    bad.ops.push_back(bad.ops.front());
    EXPECT_FALSE(CheckIterationSchedule(graph, bad).ok());
  }
  {
    // Swap two dO ops: descending order broken.
    IterationSchedule bad = conv;
    int first_do = -1, second_do = -1;
    for (size_t p = 0; p < bad.ops.size(); ++p) {
      if (bad.ops[p].op.type == TrainOpType::kOutputGrad) {
        if (first_do < 0) {
          first_do = static_cast<int>(p);
        } else if (second_do < 0) {
          second_do = static_cast<int>(p);
        }
      }
    }
    ASSERT_GE(second_do, 0);
    std::swap(bad.ops[static_cast<size_t>(first_do)],
              bad.ops[static_cast<size_t>(second_do)]);
    EXPECT_FALSE(CheckIterationSchedule(graph, bad).ok());
  }
  {
    // Move a dW in front of the dO that produces its input gradient.
    IterationSchedule bad = conv;
    size_t dw = 0;
    while (dw < bad.ops.size() &&
           !(bad.ops[dw].op.type == TrainOpType::kWeightGrad &&
             bad.ops[dw].op.layer + 1 < graph.num_layers())) {
      ++dw;
    }
    ASSERT_LT(dw, bad.ops.size());
    ScheduledOp moved = bad.ops[dw];
    bad.ops.erase(bad.ops.begin() + static_cast<long>(dw));
    bad.ops.insert(bad.ops.begin(), moved);
    EXPECT_FALSE(CheckIterationSchedule(graph, bad).ok());
  }
}

TEST(ScheduleCheckerTest, MemoryTimelineMatchesAndTamperIsCaught) {
  const NnModel model = SmallModel();
  const TrainGraph graph(&model);
  const std::vector<TrainOp> order =
      ConventionalIteration(graph).MergedOrder();
  MemoryTimeline tl = EstimateBackpropMemory(model, order);
  EXPECT_TRUE(CheckMemoryTimeline(model, order, tl).ok())
      << CheckMemoryTimeline(model, order, tl).ToString();

  MemoryTimeline tampered = tl;
  tampered.peak += 1;
  EXPECT_FALSE(CheckMemoryTimeline(model, order, tampered).ok());

  tampered = tl;
  ASSERT_FALSE(tampered.usage_during.empty());
  tampered.usage_during[tampered.usage_during.size() / 2] -= 1;
  EXPECT_FALSE(CheckMemoryTimeline(model, order, tampered).ok());
}

// A handful of pinned fuzzer seeds as a deterministic regression net; the
// deeper 200-seed sweep lives in tools/check.sh's fuzz-smoke tier.
TEST(FuzzerTest, PinnedSeedsAreClean) {
  std::vector<std::string> errors;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    FuzzOneSeed(seed, "*", &errors);
  }
  EXPECT_TRUE(errors.empty()) << errors.front();
}

TEST(FuzzerTest, RunFuzzReportsSeedCount) {
  FuzzOptions opts;
  opts.base_seed = 100;
  opts.num_seeds = 3;
  const FuzzResult result = RunFuzz(opts);
  EXPECT_EQ(result.seeds_run, 3);
  EXPECT_TRUE(result.ok()) << result.errors.front();
}

}  // namespace
}  // namespace oobp
