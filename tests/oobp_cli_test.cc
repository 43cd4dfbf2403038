// End-to-end checks of the `oobp` command line (ctest label: unit). Each
// case runs the built binary as a child process and inspects its exit
// status and combined stdout/stderr.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>

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

}  // namespace
}  // namespace oobp
