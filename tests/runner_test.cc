// Tests for the scenario registry, glob filtering, the parallel runner's
// byte-identical-output guarantee, and golden-file tolerance semantics.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/runner/golden.h"
#include "src/runner/json.h"
#include "src/runner/registry.h"
#include "src/runner/runner.h"

namespace oobp {
namespace {

namespace fs = std::filesystem;

// Each test starts from an empty registry (the registry is process-global).
class RunnerTest : public ::testing::Test {
 protected:
  void SetUp() override { ScenarioRegistry::Global().Clear(); }
  void TearDown() override { ScenarioRegistry::Global().Clear(); }

  // Registers a deterministic synthetic scenario whose values depend only on
  // its name and parameters.
  void AddSynthetic(const std::string& name, double base) {
    ScenarioRegistry::Global().Register(
        {name, "Test", "synthetic scenario " + name,
         [name, base](const ScenarioParams& params) {
           ScenarioResult r;
           r.Set("base", base);
           r.Set("scaled", base * params.GetDouble("scale", 2.0));
           r.Set("third", base / 3.0);  // non-integral: exercises %.12g
           r.AddNote("note for " + name);
           return r;
         }});
  }

  fs::path MakeTempDir(const std::string& tag) {
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("runner_test_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
  }

  static std::string ReadFile(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }
};

TEST_F(RunnerTest, RegistryFindAndRegistrationOrder) {
  AddSynthetic("alpha", 1.0);
  AddSynthetic("beta", 2.0);
  AddSynthetic("gamma", 3.0);
  const ScenarioRegistry& reg = ScenarioRegistry::Global();
  EXPECT_EQ(reg.size(), 3u);
  ASSERT_NE(reg.Find("beta"), nullptr);
  EXPECT_EQ(reg.Find("beta")->description, "synthetic scenario beta");
  EXPECT_EQ(reg.Find("delta"), nullptr);
  const auto all = reg.Match("*");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->name, "alpha");
  EXPECT_EQ(all[1]->name, "beta");
  EXPECT_EQ(all[2]->name, "gamma");
}

// Scenarios start longest first by cost hint, registration order among
// equal hints; the report and the written files stay in registration order.
TEST_F(RunnerTest, DispatchesHighestCostHintFirst) {
  static std::vector<std::string> started;
  started.clear();
  auto add = [](const std::string& name, double hint) {
    ScenarioRegistry::Global().Register(
        {name, "Test", "records its start",
         [name](const ScenarioParams&) {
           started.push_back(name);
           ScenarioResult r;
           r.Set("one", 1.0);
           return r;
         },
         "train", hint});
  };
  add("a", 0.0);
  add("b", 1.0);
  add("c", 0.0);
  add("d", 5.0);
  add("e", 1.0);
  RunnerOptions opts;
  opts.jobs = 1;
  opts.print = false;
  const RunnerReport report = RunScenarios(opts);
  EXPECT_EQ(started, (std::vector<std::string>{"d", "b", "e", "a", "c"}));
  ASSERT_EQ(report.runs.size(), 5u);
  const char* registered[] = {"a", "b", "c", "d", "e"};
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(report.runs[i].scenario->name, registered[i]);
  }
}

TEST_F(RunnerTest, DuplicateRegistrationAborts) {
  AddSynthetic("dup", 1.0);
  EXPECT_DEATH(AddSynthetic("dup", 2.0), "duplicate scenario");
}

TEST_F(RunnerTest, GlobMatching) {
  EXPECT_TRUE(GlobMatch("*", "anything"));
  EXPECT_TRUE(GlobMatch("fig05_*", "fig05_mp_unit"));
  EXPECT_FALSE(GlobMatch("fig05_*", "fig06_pipe_unit"));
  EXPECT_TRUE(GlobMatch("fig0?_mp_unit", "fig05_mp_unit"));
  // Character classes — the check.sh gate filter.
  EXPECT_TRUE(GlobMatch("fig0[456]*", "fig04_dp_unit"));
  EXPECT_TRUE(GlobMatch("fig0[456]*", "fig05_mp_unit"));
  EXPECT_TRUE(GlobMatch("fig0[456]*", "fig06_pipe_unit"));
  EXPECT_FALSE(GlobMatch("fig0[456]*", "fig07_resnet50"));
  EXPECT_FALSE(GlobMatch("fig0[456]*", "fig10_puba"));
}

TEST_F(RunnerTest, MatchRespectsFilterAndOrder) {
  AddSynthetic("fig04_x", 1.0);
  AddSynthetic("other", 2.0);
  AddSynthetic("fig05_y", 3.0);
  const auto matched = ScenarioRegistry::Global().Match("fig0[45]*");
  ASSERT_EQ(matched.size(), 2u);
  EXPECT_EQ(matched[0]->name, "fig04_x");
  EXPECT_EQ(matched[1]->name, "fig05_y");
}

TEST_F(RunnerTest, ScenarioParamsTypedGetters) {
  ScenarioParams p;
  p.Set("k", "7");
  p.Set("ratio", "1.25");
  p.Set("mode", "fast");
  EXPECT_EQ(p.GetInt("k", -1), 7);
  EXPECT_EQ(p.GetInt("missing", -1), -1);
  EXPECT_DOUBLE_EQ(p.GetDouble("ratio", 0.0), 1.25);
  EXPECT_DOUBLE_EQ(p.GetDouble("missing", 0.5), 0.5);
  EXPECT_EQ(p.GetString("mode", ""), "fast");
  EXPECT_TRUE(p.Has("mode"));
  EXPECT_FALSE(p.Has("missing"));

  // A number must be the whole value: no trailing junk, no blanks, no
  // fraction for an int, no overflow. The error names the key.
  for (const char* bad : {"4OO", "", " 7", "7 ", "1.5", "abc", "99999999999"}) {
    p.Set("budget", bad);
    try {
      p.GetInt("budget", 0);
      ADD_FAILURE() << "GetInt accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos)
          << e.what();
    }
  }
  for (const char* bad : {"1.25x", "", "x1", "1,5"}) {
    p.Set("ratio", bad);
    EXPECT_THROW(p.GetDouble("ratio", 0.0), std::invalid_argument) << bad;
  }
}

TEST_F(RunnerTest, ParamsReachScenarios) {
  AddSynthetic("parameterized", 10.0);
  RunnerOptions opts;
  opts.filter = "parameterized";
  opts.print = false;
  opts.params.Set("scale", "5");
  const RunnerReport report = RunScenarios(opts);
  ASSERT_EQ(report.runs.size(), 1u);
  EXPECT_DOUBLE_EQ(report.runs[0].result.Get("scaled"), 50.0);
}

TEST_F(RunnerTest, ParallelMatchesSerialByteForByte) {
  // Enough scenarios that a 4-thread pool actually interleaves.
  for (int i = 0; i < 12; ++i) {
    AddSynthetic("synthetic_" + std::to_string(i), 0.7 * (i + 1));
  }
  const fs::path serial_dir = MakeTempDir("serial");
  const fs::path parallel_dir = MakeTempDir("parallel");

  RunnerOptions serial;
  serial.jobs = 1;
  serial.print = false;
  serial.output_dir = serial_dir.string();
  const RunnerReport serial_report = RunScenarios(serial);

  RunnerOptions parallel = serial;
  parallel.jobs = 4;
  parallel.output_dir = parallel_dir.string();
  const RunnerReport parallel_report = RunScenarios(parallel);

  ASSERT_EQ(serial_report.runs.size(), 12u);
  ASSERT_EQ(parallel_report.runs.size(), 12u);
  EXPECT_TRUE(serial_report.ok());
  EXPECT_TRUE(parallel_report.ok());
  for (size_t i = 0; i < serial_report.runs.size(); ++i) {
    // Same registration-order slot, same JSON string...
    EXPECT_EQ(serial_report.runs[i].scenario->name,
              parallel_report.runs[i].scenario->name);
    EXPECT_EQ(serial_report.runs[i].json, parallel_report.runs[i].json);
    // ...and byte-identical files on disk.
    const std::string file =
        "BENCH_" + serial_report.runs[i].scenario->name + ".json";
    EXPECT_EQ(ReadFile(serial_dir / file), ReadFile(parallel_dir / file))
        << file;
  }
  fs::remove_all(serial_dir);
  fs::remove_all(parallel_dir);
}

TEST_F(RunnerTest, SecondSweepIntoOneDirReplacesEveryFile) {
  for (int i = 0; i < 4; ++i) {
    AddSynthetic("resweep_" + std::to_string(i), 1.5 * (i + 1));
  }
  const fs::path dir = MakeTempDir("resweep");
  RunnerOptions opts;
  opts.jobs = 2;
  opts.print = false;
  opts.output_dir = dir.string();
  ASSERT_TRUE(RunScenarios(opts).ok());
  std::vector<std::string> first;
  for (int i = 0; i < 4; ++i) {
    first.push_back(
        ReadFile(dir / ("BENCH_resweep_" + std::to_string(i) + ".json")));
  }
  // A hard link keeps the first sweep's file: the second sweep writes a new
  // file under the name instead of rewriting the old one in place.
  const fs::path file = dir / "BENCH_resweep_0.json";
  const fs::path link = dir / "first_sweep_link";
  fs::create_hard_link(file, link);

  ASSERT_TRUE(RunScenarios(opts).ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ReadFile(dir / ("BENCH_resweep_" + std::to_string(i) + ".json")),
              first[i]);
  }
  EXPECT_EQ(ReadFile(link), first[0]);
  EXPECT_EQ(fs::hard_link_count(file), 1u);
  EXPECT_EQ(fs::hard_link_count(link), 1u);
  fs::remove_all(dir);
}

TEST_F(RunnerTest, FailingScenarioIsReportedNotFatal) {
  AddSynthetic("good", 1.0);
  ScenarioRegistry::Global().Register(
      {"bad", "Test", "throws", [](const ScenarioParams&) -> ScenarioResult {
         throw std::runtime_error("synthetic failure");
       }});
  RunnerOptions opts;
  opts.print = false;
  const RunnerReport report = RunScenarios(opts);
  ASSERT_EQ(report.runs.size(), 2u);
  EXPECT_TRUE(report.runs[0].ok);
  EXPECT_FALSE(report.runs[1].ok);
  EXPECT_EQ(report.runs[1].error, "synthetic failure");
  EXPECT_EQ(report.num_scenario_failures, 1);
  EXPECT_FALSE(report.ok());
}

TEST_F(RunnerTest, UnwritableOutputFailsTheRun) {
  AddSynthetic("unwritable", 1.0);
  const fs::path dir = MakeTempDir("unwritable");
  std::ofstream(dir / "not_a_dir") << "x";
  RunnerOptions opts;
  opts.print = false;
  opts.output_dir = (dir / "not_a_dir").string();
  const RunnerReport report = RunScenarios(opts);
  ASSERT_EQ(report.runs.size(), 1u);
  EXPECT_FALSE(report.runs[0].ok);
  EXPECT_NE(report.runs[0].error.find("cannot write"), std::string::npos)
      << report.runs[0].error;
  EXPECT_EQ(report.num_scenario_failures, 1);
  fs::remove_all(dir);
}

TEST_F(RunnerTest, ScenarioJsonShapeAndDeterminism) {
  AddSynthetic("shaped", 4.0);
  RunnerOptions opts;
  opts.filter = "shaped";
  opts.print = false;
  const std::string json = RunScenarios(opts).runs[0].json;
  const auto doc = JsonValue::Parse(json);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Find("scenario")->string_value(), "shaped");
  EXPECT_EQ(doc->Find("figure")->string_value(), "Test");
  const JsonValue* values = doc->Find("values");
  ASSERT_NE(values, nullptr);
  EXPECT_DOUBLE_EQ(values->Find("base")->number_value(), 4.0);
  EXPECT_DOUBLE_EQ(values->Find("scaled")->number_value(), 8.0);
  ASSERT_NE(doc->Find("notes"), nullptr);
  EXPECT_EQ(doc->Find("notes")->array_items().size(), 1u);
  // Serialization is a pure function of the result.
  EXPECT_EQ(json, RunScenarios(opts).runs[0].json);
}

TEST_F(RunnerTest, JsonNumberFormatting) {
  EXPECT_EQ(JsonNumberToString(23.0), "23");
  EXPECT_EQ(JsonNumberToString(-4.0), "-4");
  EXPECT_EQ(JsonNumberToString(0.0), "0");
  EXPECT_EQ(JsonNumberToString(1.5), "1.5");
  // Round-trips through the parser.
  const auto parsed = JsonValue::Parse(JsonNumberToString(1.0 / 3.0));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NEAR(parsed->number_value(), 1.0 / 3.0, 1e-12);
}

// --- Golden tolerance semantics -------------------------------------------

TEST_F(RunnerTest, GoldenToleranceEdges) {
  GoldenCheck check;
  check.key = "v";
  check.has_expect = true;
  check.expect = 100.0;
  check.abs_tol = 0.5;
  check.rel_tol = 0.01;  // total tolerance: 0.5 + 1.0 = 1.5
  EXPECT_TRUE(GoldenCheckPasses(check, 100.0));
  EXPECT_TRUE(GoldenCheckPasses(check, 101.5));   // exactly at the edge
  EXPECT_TRUE(GoldenCheckPasses(check, 98.5));    // exactly at the edge
  EXPECT_FALSE(GoldenCheckPasses(check, 101.51));
  EXPECT_FALSE(GoldenCheckPasses(check, 98.49));

  GoldenCheck exact;
  exact.key = "v";
  exact.has_expect = true;
  exact.expect = 23.0;  // no tolerance: exact match only
  EXPECT_TRUE(GoldenCheckPasses(exact, 23.0));
  EXPECT_FALSE(GoldenCheckPasses(exact, 23.0001));

  GoldenCheck bounds;
  bounds.key = "v";
  bounds.has_min = true;
  bounds.min = 1.0;
  bounds.has_max = true;
  bounds.max = 2.0;
  EXPECT_TRUE(GoldenCheckPasses(bounds, 1.0));  // inclusive
  EXPECT_TRUE(GoldenCheckPasses(bounds, 2.0));  // inclusive
  EXPECT_FALSE(GoldenCheckPasses(bounds, 0.999));
  EXPECT_FALSE(GoldenCheckPasses(bounds, 2.001));
}

TEST_F(RunnerTest, CheckAgainstGoldenReportsMissingKeys) {
  ScenarioResult result;
  result.Set("present", 1.0);
  GoldenSpec spec;
  GoldenCheck ok;
  ok.key = "present";
  ok.has_expect = true;
  ok.expect = 1.0;
  GoldenCheck missing;
  missing.key = "absent";
  missing.has_min = true;
  missing.min = 0.0;
  spec.checks = {ok, missing};
  const auto failures = CheckAgainstGolden(spec, result);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("absent"), std::string::npos);
}

TEST_F(RunnerTest, GoldenFileRoundTripAndRunnerGate) {
  AddSynthetic("golden_target", 6.0);  // base=6, scaled=12, third=2
  const fs::path dir = MakeTempDir("golden");
  {
    std::ofstream out(dir / "golden_target.json");
    out << R"({
  "scenario": "golden_target",
  "checks": [
    {"key": "base", "expect": 6, "abs_tol": 0.01},
    {"key": "scaled", "min": 11.0, "max": 13.0}
  ]
})";
  }
  RunnerOptions opts;
  opts.filter = "golden_target";
  opts.print = false;
  opts.golden_dir = dir.string();
  RunnerReport report = RunScenarios(opts);
  ASSERT_EQ(report.runs.size(), 1u);
  EXPECT_TRUE(report.runs[0].golden_compared);
  EXPECT_TRUE(report.runs[0].golden_failures.empty());
  EXPECT_TRUE(report.ok());

  // Tighten the golden outside the measured value: the runner must fail.
  {
    std::ofstream out(dir / "golden_target.json");
    out << R"({"scenario": "golden_target", "checks": [
      {"key": "base", "expect": 5.9, "abs_tol": 0.05}
    ]})";
  }
  report = RunScenarios(opts);
  EXPECT_EQ(report.num_golden_failures, 1);
  EXPECT_FALSE(report.ok());
  fs::remove_all(dir);
}

TEST_F(RunnerTest, MalformedGoldenFileIsAParseError) {
  const fs::path dir = MakeTempDir("badgolden");
  {
    std::ofstream out(dir / "bad.json");
    out << R"({"checks": [{"key": "v"}]})";  // no expect/min/max
  }
  std::string error;
  EXPECT_FALSE(
      LoadGoldenFile((dir / "bad.json").string(), &error).has_value());
  EXPECT_NE(error.find("expect"), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace oobp
