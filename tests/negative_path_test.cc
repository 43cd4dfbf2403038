// Negative-path coverage for the user-facing entry points: malformed
// schedule files and bad runner CLI invocations must produce a clean error
// (nullopt / nonzero exit + message on stderr), never a crash or a silently
// half-parsed schedule — plus proof that CheckIterationSchedule (the gate
// every searched schedule passes through) actually rejects broken
// schedules, not just accepts good ones.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/core/schedule.h"
#include "src/core/schedule_io.h"
#include "src/nn/layer_builder.h"
#include "src/nn/train_graph.h"
#include "src/runner/runner.h"
#include "src/validate/schedule_checker.h"

namespace oobp {
namespace {

IterationSchedule TinySchedule(NnModel* model) {
  model->name = "tiny";
  model->batch = 8;
  model->layers.push_back(MakeConv2d("c0", "b0", 8, 8, 8, 8, 8, 3, 1));
  model->layers.push_back(MakeDense("fc", "b0", 8, 1, 32, 8));
  return ConventionalIteration(TrainGraph(model));
}

TEST(ScheduleIoNegativeTest, MalformedTextsReturnNulloptNotCrash) {
  const std::vector<std::string> malformed = {
      "",                                    // empty
      "garbage\n",                           // wrong header
      "# oobp-schedule v2\n",                // wrong version
      "# oobp-schedule v1\nnot-an-op 1\n",   // unknown line kind
      "# oobp-schedule v1\nop bogus 0\n",    // unknown op token
      "# oobp-schedule v1\nop fwd -1\n",     // negative layer
      "# oobp-schedule v1\nop fwd\n",        // missing layer field
      "# oobp-schedule v1\nop fwd 0 stream=0 wait=5\n",  // forward wait
      "# oobp-schedule v1\nop fwd 0 color=red\n",        // unknown attr
      "# oobp-schedule v1\nmodel x nlayers 3\n",         // bad model line
  };
  for (const std::string& text : malformed) {
    EXPECT_FALSE(ScheduleFromText(text).has_value())
        << "accepted: " << text;
  }
}

TEST(ScheduleIoNegativeTest, LayerCountMismatchRejected) {
  NnModel model;
  const IterationSchedule sched = TinySchedule(&model);
  const std::string text = ScheduleToText(sched, model.name, 2);
  EXPECT_TRUE(ScheduleFromText(text, /*expect_layers=*/2).has_value());
  EXPECT_FALSE(ScheduleFromText(text, /*expect_layers=*/3).has_value());
}

TEST(ScheduleIoNegativeTest, RoundTripPreservesOps) {
  NnModel model;
  const IterationSchedule sched = TinySchedule(&model);
  const auto parsed = ScheduleFromText(ScheduleToText(sched, model.name, 2), 2);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->ops.size(), sched.ops.size());
  for (size_t i = 0; i < sched.ops.size(); ++i) {
    EXPECT_EQ(parsed->ops[i].op.type, sched.ops[i].op.type) << i;
    EXPECT_EQ(parsed->ops[i].op.layer, sched.ops[i].op.layer) << i;
    EXPECT_EQ(parsed->ops[i].stream, sched.ops[i].stream) << i;
    EXPECT_EQ(parsed->ops[i].wait_for_index, sched.ops[i].wait_for_index) << i;
  }
}

TEST(ScheduleIoNegativeTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(
      ReadScheduleFile("/nonexistent/dir/schedule.txt").has_value());
}

// The tiny model's conventional iteration is
//   [dO_1, dW_1, U_1, dO_0, dW_0, U_0, F_0, F_1]
// (both layers have parameters), so indices below are positional.

TEST(ScheduleCheckerNegativeTest, DuplicatedOpRejected) {
  NnModel model;
  IterationSchedule sched = TinySchedule(&model);
  const TrainGraph graph(&model);
  ASSERT_TRUE(CheckIterationSchedule(graph, sched).ok());
  sched.ops.push_back(sched.ops[0]);  // second dO_1
  const ScheduleCheckReport report = CheckIterationSchedule(graph, sched);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("duplicate dO[1]"), std::string::npos)
      << report.ToString();
}

TEST(ScheduleCheckerNegativeTest, CrossStreamWaitOnSubStreamOpRejected) {
  // A wait edge must target a main-stream op: sub-stream completion order
  // is not observable, so "wait for a sub-stream op" is a dependency
  // inversion the engines cannot honor.
  NnModel model;
  IterationSchedule sched = TinySchedule(&model);
  const TrainGraph graph(&model);
  sched.ops[1].stream = kSubStream;    // dW_1 moved off the main stream
  sched.ops[2].wait_for_index = 1;     // U_1 "waits" on it
  const ScheduleCheckReport report = CheckIterationSchedule(graph, sched);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("targets a non-main-stream op"),
            std::string::npos)
      << report.ToString();
}

TEST(ScheduleCheckerNegativeTest, CrossStreamProducerInversionRejected) {
  // dW_0 hoisted onto the sub stream *before* its producer dO_1 ran: the
  // classic cross-stream inversion a buggy search move could emit.
  NnModel model;
  IterationSchedule sched = TinySchedule(&model);
  const TrainGraph graph(&model);
  ScheduledOp wgrad0 = sched.ops[4];
  wgrad0.stream = kSubStream;
  sched.ops.erase(sched.ops.begin() + 4);
  sched.ops.insert(sched.ops.begin(), wgrad0);
  const ScheduleCheckReport report = CheckIterationSchedule(graph, sched);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("dW[0] at 0 precedes its producer dO[1]"),
            std::string::npos)
      << report.ToString();
}

TEST(ScheduleCheckerNegativeTest, ForwardPointingWaitRejected) {
  NnModel model;
  IterationSchedule sched = TinySchedule(&model);
  const TrainGraph graph(&model);
  sched.ops[0].wait_for_index = 3;  // dO_1 waiting on an op that runs later
  const ScheduleCheckReport report = CheckIterationSchedule(graph, sched);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("does not point backwards"),
            std::string::npos)
      << report.ToString();
}

int CallBenchMain(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  return BenchMain(static_cast<int>(argv.size()), argv.data());
}

TEST(RunnerCliNegativeTest, UnknownScenarioNameExitsNonzeroWithMessage) {
  testing::internal::CaptureStderr();
  const int rc =
      CallBenchMain({"oobp", "bench", "--filter=no_such_scenario_*"});
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("no scenario matches filter"), std::string::npos) << err;
}

TEST(RunnerCliNegativeTest, UnknownFlagExitsNonzeroWithUsage) {
  // --sim-threads was removed and must fail like any other unknown flag.
  for (const std::string flag : {"--frobnicate", "--sim-threads"}) {
    testing::internal::CaptureStderr();
    const int rc = CallBenchMain({"oobp", "bench", flag, "4"});
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 2) << flag;
    EXPECT_NE(err.find("unknown flag " + flag), std::string::npos) << err;
    EXPECT_NE(err.find("usage:"), std::string::npos) << err;
  }
}

struct CliRun {
  int rc = 0;
  std::string out;
  std::string err;
};

// `oobp bench` over fig04_dp_unit (a unit-time toy that runs in
// milliseconds) plus `flags`, with stdout and stderr captured.
CliRun RunFig04(const std::vector<std::string>& flags) {
  std::vector<std::string> args = {"oobp", "bench", "--filter=fig04_dp_unit"};
  args.insert(args.end(), flags.begin(), flags.end());
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  CliRun run;
  run.rc = CallBenchMain(std::move(args));
  run.out = testing::internal::GetCapturedStdout();
  run.err = testing::internal::GetCapturedStderr();
  return run;
}

std::string TempDirFor(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("negative_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(RunnerCliNegativeTest, MalformedGoldenFileIsAGoldenFailure) {
  const std::string dir = TempDirFor("golden");
  std::ofstream(dir + "/fig04_dp_unit.json")
      << R"({"scenario": "fig04_dp_unit", "checks": [{"key": "unit_a", "exp)";
  const CliRun run = RunFig04({"--golden=" + dir, "--out=" + dir});
  EXPECT_EQ(run.rc, 1) << run.out << run.err;
  EXPECT_NE(run.out.find("golden MISMATCH: " + dir + "/fig04_dp_unit.json: "),
            std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("1 golden-checked, 1 mismatched"), std::string::npos)
      << run.out;
}

TEST(RunnerCliNegativeTest, MissingGoldenOrOutputDirIsAUsageError) {
  const std::string out = TempDirFor("missing_dir");
  for (const std::vector<std::string>& flags :
       {std::vector<std::string>{"--golden=/no/such/dir", "--out=" + out},
        std::vector<std::string>{"--out=/no/such/dir"}}) {
    const CliRun run = RunFig04(flags);
    EXPECT_EQ(run.rc, 2) << flags[0];
    EXPECT_NE(run.err.find("no such directory: /no/such/dir"),
              std::string::npos)
        << run.err;
    EXPECT_EQ(run.out.find("fig04_dp_unit"), std::string::npos)
        << "ran despite " << flags[0] << ": " << run.out;
  }
}

TEST(RunnerCliNegativeTest, MalformedNumericFlagIsAUsageError) {
  const std::string out = TempDirFor("numeric_flag");
  for (const std::string flag :
       {"--jobs=abc", "--jobs=-1", "--jobs=4x", "--warmup=x",
        "--repeats=2.5"}) {
    const CliRun run = RunFig04({flag, "--out=" + out});
    EXPECT_EQ(run.rc, 2) << flag;
    EXPECT_NE(run.err.find("needs an integer"), std::string::npos)
        << flag << ": " << run.err;
  }
}

TEST(RunnerCliNegativeTest, MalformedParamFailsTheScenarioNamingTheKey) {
  const CliRun run = RunFig04(
      {"--param", "unit_sync_units=3x", "--out=" + TempDirFor("param")});
  EXPECT_EQ(run.rc, 1);
  EXPECT_NE(run.out.find("FAILED: param 'unit_sync_units': '3x'"),
            std::string::npos)
      << run.out;
}

}  // namespace
}  // namespace oobp
