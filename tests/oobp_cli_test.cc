// End-to-end checks of the `oobp` command line (ctest label: unit). Each
// case runs the built binary as a child process and inspects its exit
// status and combined stdout/stderr.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>
#include <utility>

#ifndef OOBP_CLI_BIN
#error "OOBP_CLI_BIN must name the built oobp binary"
#endif

namespace oobp {
namespace {

struct CliRun {
  int exit_code = -1;  // -1 when the child did not exit normally
  std::string output;
};

CliRun RunOobp(const std::string& args) {
  CliRun run;
  const std::string command =
      std::string("'") + OOBP_CLI_BIN + "' " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return run;
  }
  char buffer[4096];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  if (status != -1 && WIFEXITED(status)) {
    run.exit_code = WEXITSTATUS(status);
  }
  return run;
}

TEST(OobpCliTest, MalformedIntegerFlagIsAUsageErrorNamingTheFlag) {
  for (const std::string flag :
       {"--budget=abc", "--beam=abc", "--seed=4OO", "--threads="}) {
    const CliRun run = RunOobp("search --model=ffnn " + flag);
    EXPECT_EQ(run.exit_code, 2) << flag << ":\n" << run.output;
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(run.output.find(name), std::string::npos) << run.output;
  }
}

TEST(OobpCliTest, FuzzRejectsMalformedNumbersNamingTheFlag) {
  for (const std::string flag :
       {"--seeds=2x", "--jobs=abc", "--base-seed=-", "--base-seed=1e3",
        "--seeds 2x", "--jobs ''"}) {
    const CliRun run = RunOobp("fuzz --checks=link " + flag);
    EXPECT_EQ(run.exit_code, 2) << flag << ":\n" << run.output;
    const std::string name = flag.substr(0, flag.find_first_of("= "));
    EXPECT_NE(run.output.find(name), std::string::npos) << run.output;
  }
}

TEST(OobpCliTest, FuzzTakesWholeNumbersInBothForms) {
  const CliRun run =
      RunOobp("fuzz --seeds 2 --base-seed=18446744073709551615 --jobs=1 "
              "--checks=link");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("2 seed(s), 0 failed (base seed "
                            "18446744073709551615)"),
            std::string::npos)
      << run.output;
}

// Search has one scoring pipeline, so the flag that chose one is gone.
TEST(OobpCliTest, RemovedEvalFlagIsUnknown) {
  const CliRun run = RunOobp("search --model=ffnn --eval=two-tier");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("unknown flag --eval"), std::string::npos)
      << run.output;
}

TEST(OobpCliTest, SearchRunsAndVerifiesItsSchedules) {
  const CliRun run = RunOobp("search --model=ffnn --budget=8 --beam=2");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("budget=8)"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("schedules verified"), std::string::npos)
      << run.output;
}

// A name flag whose value names nothing exits 2, naming the flag and the
// values it accepts, instead of running a default.
TEST(OobpCliTest, UnknownNameFlagIsAUsageErrorListingTheChoices) {
  struct Case {
    const char* args;
    const char* flag;
    const char* accepted;
  };
  const Case cases[] = {
      {"dp --model=ffnn --scheme=bogus", "--scheme", "byteps|horovod"},
      {"dp --model=ffnn --cluster=privA", "--cluster", "priva"},
      {"single --model=ffnn --gpu=a100", "--gpu", "v100|p100|titanxp"},
      {"single --model=ffnn --system=oooo", "--system", "xla|ooo|nimble"},
      {"pipeline --model=ffnn --strategy=gpipee", "--strategy", "gpipe|"},
      {"dp --model=resnet5", "--model", "resnet50"},
  };
  for (const Case& c : cases) {
    const CliRun run = RunOobp(c.args);
    EXPECT_EQ(run.exit_code, 2) << c.args << ":\n" << run.output;
    EXPECT_NE(run.output.find(c.flag), std::string::npos) << run.output;
    EXPECT_NE(run.output.find(c.accepted), std::string::npos) << run.output;
  }
}

// Every mode takes flags only. A positional argument exits 2, naming it,
// instead of running a default model or every scenario.
TEST(OobpCliTest, PositionalArgumentIsAUsageErrorNamingIt) {
  struct Case {
    const char* args;
    const char* positional;
  };
  const Case cases[] = {
      {"bench fig05_mp_unit", "fig05_mp_unit"},
      {"single resnet50", "resnet50"},
      {"pipeline bert12 --gpus=2", "bert12"},
      {"search ffnn --budget=5", "ffnn"},
  };
  for (const Case& c : cases) {
    const CliRun run = RunOobp(c.args);
    EXPECT_EQ(run.exit_code, 2) << c.args << ":\n" << run.output;
    EXPECT_NE(run.output.find(std::string("unexpected argument '") +
                              c.positional + "'"),
              std::string::npos)
        << run.output;
  }
}

// A flag the mode does not take exits 2 and names it in every mode, so a
// typo never runs the default in its place.
TEST(OobpCliTest, UnknownFlagIsAUsageErrorInEveryMode) {
  struct Case {
    const char* args;
    const char* flag;
  };
  const Case cases[] = {
      {"single --modle=resnet50", "--modle"},
      {"dp --model=ffnn --gpu=v100", "--gpu"},
      {"pipeline --model=ffnn --replicas=2", "--replicas"},
      {"hybrid --gpus=8 --replica=4", "--replica"},
      {"replay --model=ffnn --shedule=x", "--shedule"},
  };
  for (const Case& c : cases) {
    const CliRun run = RunOobp(c.args);
    EXPECT_EQ(run.exit_code, 2) << c.args << ":\n" << run.output;
    EXPECT_NE(run.output.find(std::string("unknown flag ") + c.flag),
              std::string::npos)
        << run.output;
  }
}

// The other side of the two cases above: each mode still runs with every
// flag it takes.
TEST(OobpCliTest, EveryModeTakesAllItsFlags) {
  const std::string schedule = ::testing::TempDir() + "oobp_cli_schedule.txt";
  const std::string runs[] = {
      "single --model=ffnn --batch=8 --image=224 --gpu=v100 --system=ooo "
      "--trace=/dev/null --export-schedule=" + schedule,
      "replay --model=ffnn --batch=8 --image=224 --gpu=v100 --trace=/dev/null "
      "--schedule=" + schedule,
      "dp --model=ffnn --batch=8 --image=224 --cluster=puba --gpus=2 "
      "--scheme=byteps --k=0 --trace=/dev/null",
      "pipeline --model=ffnn --batch=8 --image=224 --micro=2 --cluster=pubb "
      "--gpus=2 --group=1 --k=0 --strategy=ooo2 --trace=/dev/null",
      "hybrid --model=ffnn --batch=8 --image=224 --cluster=pubb --gpus=2 "
      "--micro=2 --k=0 --replicas=2 --strategy=ooo2",
  };
  for (const std::string& args : runs) {
    const CliRun run = RunOobp(args);
    EXPECT_EQ(run.exit_code, 0) << args << ":\n" << run.output;
  }
  std::remove(schedule.c_str());
}

// Without --trace a run is unobserved and takes its engine's exact
// executor, which may stop stepping at a repeated iteration boundary; with
// it, the engine subscribes a recorder and takes the event path. Both print
// the same metric lines.
TEST(OobpCliTest, TracingChangesNoMetricLine) {
  const std::string trace = ::testing::TempDir() + "oobp_cli_trace.json";
  const std::string runs[] = {
      "dp --model=resnet50 --batch=32 --gpus=16 --k=0",
      "pipeline --model=bert12 --batch=64 --micro=4 --gpus=4 "
      "--strategy=pipedream",
  };
  for (const std::string& args : runs) {
    const CliRun plain = RunOobp(args);
    const CliRun traced = RunOobp(args + " --trace=" + trace);
    EXPECT_EQ(plain.exit_code, 0) << args << ":\n" << plain.output;
    EXPECT_EQ(traced.output,
              plain.output + "trace written to " + trace + "\n")
        << args;
  }
  std::remove(trace.c_str());
}

// A file the run cannot write fails the run closed: exit 1, naming it.
TEST(OobpCliTest, UnwritableOutputFileExitsOneNamingIt) {
  const std::string dir = ::testing::TempDir() + "oobp_cli_no_such_dir/";
  const std::pair<std::string, std::string> runs[] = {
      {"single --model=ffnn --trace=", "t.json"},
      {"single --model=ffnn --export-schedule=", "s.txt"},
      {"search --model=ffnn --budget=20 --export-schedule=", "s.txt"},
      {"dp --model=ffnn --gpus=4 --k=0 --trace=", "t.json"},
  };
  for (const auto& [args, file] : runs) {
    const CliRun run = RunOobp(args + dir + file);
    EXPECT_EQ(run.exit_code, 1) << args << ":\n" << run.output;
    EXPECT_NE(run.output.find("cannot write " + dir + file),
              std::string::npos)
        << args << ":\n" << run.output;
  }
}

TEST(OobpCliTest, DataParallelPrintsItsScheme) {
  for (const std::string scheme : {"byteps", "horovod"}) {
    const CliRun run =
        RunOobp("dp --model=ffnn --gpus=4 --k=0 --scheme=" + scheme);
    EXPECT_EQ(run.exit_code, 0) << run.output;
    EXPECT_NE(run.output.find(scheme == "byteps" ? "(Pub-A), BytePS, k=0"
                                                 : "(Pub-A), Horovod, k=0"),
              std::string::npos)
        << run.output;
  }
}

}  // namespace
}  // namespace oobp
