#include <gtest/gtest.h>

#include <cstdio>

#include "src/core/corun_profiler.h"
#include "src/core/joint_scheduler.h"
#include "src/core/region.h"
#include "src/core/schedule_io.h"
#include "src/nn/model_zoo.h"
#include "src/runtime/single_gpu_engine.h"

namespace oobp {
namespace {

bool SameSchedule(const IterationSchedule& a, const IterationSchedule& b) {
  if (a.ops.size() != b.ops.size()) {
    return false;
  }
  for (size_t i = 0; i < a.ops.size(); ++i) {
    if (!(a.ops[i].op == b.ops[i].op) || a.ops[i].stream != b.ops[i].stream ||
        a.ops[i].wait_for_index != b.ops[i].wait_for_index) {
      return false;
    }
  }
  return true;
}

TEST(ScheduleIoTest, RoundTripConventional) {
  const NnModel m = Ffnn(6, 32);
  const TrainGraph g(&m);
  const IterationSchedule sched = ConventionalIteration(g);
  const std::string text = ScheduleToText(sched, m.name, m.num_layers());
  const auto parsed = ScheduleFromText(text, m.num_layers());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(SameSchedule(sched, *parsed));
}

TEST(ScheduleIoTest, RoundTripJointScheduleWithWaits) {
  const NnModel m = DenseNet(121, 32, 32, 224);
  const TrainGraph g(&m);
  const CostModel cost(GpuSpec::V100(), SystemProfile::TensorFlowXla());
  const CorunProfiler profiler(g, cost, BuildRegions(g));
  const JointScheduleResult r = MultiRegionJointSchedule(g, profiler);
  const std::string text = ScheduleToText(r.schedule, m.name, m.num_layers());
  const auto parsed = ScheduleFromText(text, m.num_layers());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(SameSchedule(r.schedule, *parsed));
}

TEST(ScheduleIoTest, ReplayedScheduleExecutesIdentically) {
  const NnModel m = DenseNet(121, 32, 32, 224);
  const TrainGraph g(&m);
  const CostModel cost(GpuSpec::V100(), SystemProfile::TensorFlowXla());
  const CorunProfiler profiler(g, cost, BuildRegions(g));
  const JointScheduleResult r = MultiRegionJointSchedule(g, profiler);

  const auto parsed =
      ScheduleFromText(ScheduleToText(r.schedule, m.name, m.num_layers()));
  ASSERT_TRUE(parsed.has_value());
  const SingleGpuEngine engine(
      {GpuSpec::V100(), SystemProfile::TensorFlowXla(), true, 2});
  EXPECT_EQ(engine.Run(m, r.schedule).iteration_time,
            engine.Run(m, *parsed).iteration_time);
}

TEST(ScheduleIoTest, RejectsMalformedInput) {
  EXPECT_FALSE(ScheduleFromText("").has_value());
  EXPECT_FALSE(ScheduleFromText("# wrong-magic\n").has_value());
  EXPECT_FALSE(
      ScheduleFromText("# oobp-schedule v1\nop nonsense 3 stream=0\n")
          .has_value());
  EXPECT_FALSE(
      ScheduleFromText("# oobp-schedule v1\nop fwd 0 stream=0 wait=5\n")
          .has_value());  // forward wait reference
  EXPECT_FALSE(
      ScheduleFromText("# oobp-schedule v1\nop fwd 0 bogus=1\n").has_value());
}

TEST(ScheduleIoTest, LayerCountValidation) {
  const NnModel m = Ffnn(4, 16);
  const TrainGraph g(&m);
  const std::string text =
      ScheduleToText(ConventionalIteration(g), m.name, m.num_layers());
  EXPECT_TRUE(ScheduleFromText(text, 4).has_value());
  EXPECT_FALSE(ScheduleFromText(text, 5).has_value());
}

TEST(ScheduleIoTest, FileRoundTrip) {
  const NnModel m = Ffnn(4, 16);
  const TrainGraph g(&m);
  const IterationSchedule sched = ConventionalIteration(g);
  const std::string path = "/tmp/oobp_schedule_test.txt";
  ASSERT_TRUE(WriteScheduleFile(path, sched, m.name, m.num_layers()));
  const auto parsed = ReadScheduleFile(path, m.num_layers());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(SameSchedule(sched, *parsed));
  std::remove(path.c_str());
  EXPECT_FALSE(ReadScheduleFile(path).has_value());
}

}  // namespace
}  // namespace oobp
