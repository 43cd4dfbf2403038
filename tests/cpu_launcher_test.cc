#include <gtest/gtest.h>

#include <vector>

#include "src/hw/cpu_launcher.h"
#include "src/hw/gpu.h"
#include "src/sim/engine.h"

namespace oobp {
namespace {

GpuSpec TestSpec() {
  GpuSpec spec;
  spec.name = "test";
  spec.num_sms = 10;
  spec.blocks_per_sm = 10;
  spec.fp32_tflops = 1.0;
  spec.mem_bandwidth_gbps = 100.0;
  spec.mem_bytes = 1LL << 30;
  spec.kernel_exec_overhead = 0;
  return spec;
}

IssueItem Item(StreamId stream, TimeNs dur, TimeNs issue, const char* name) {
  IssueItem it;
  it.stream = stream;
  it.name = name;
  it.category = "test";
  it.solo_duration = dur;
  it.thread_blocks = 100;
  it.issue_latency = issue;
  return it;
}

TEST(CpuLauncherTest, PerOpIssueSerializesOnHost) {
  SimEngine engine;
  Gpu gpu(&engine, TestSpec());
  const StreamId s = gpu.CreateStream(0);
  CpuLauncher launcher(&engine, &gpu, CpuLauncher::Mode::kPerOp);

  // Issue latency 100 each, kernels 10ns: the GPU starves on the host.
  std::vector<IssueItem> items;
  for (int i = 0; i < 5; ++i) {
    items.push_back(Item(s, 10, 100, "k"));
  }
  std::vector<KernelId> ids(5, -1);
  launcher.Launch(items, [&](size_t i, KernelId id) { ids[i] = id; });
  engine.Run();
  // Kernel i is issued at (i+1)*100 and runs immediately for 10ns.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(gpu.CompletionTime(ids[i]), (i + 1) * 100 + 10);
  }
  EXPECT_EQ(launcher.issue_busy_time(), 500);
}

TEST(CpuLauncherTest, IssueLatencyMaskedByLongKernels) {
  SimEngine engine;
  Gpu gpu(&engine, TestSpec());
  const StreamId s = gpu.CreateStream(0);
  CpuLauncher launcher(&engine, &gpu, CpuLauncher::Mode::kPerOp);

  std::vector<IssueItem> items;
  for (int i = 0; i < 4; ++i) {
    items.push_back(Item(s, 1000, 100, "k"));  // exec >> issue
  }
  std::vector<KernelId> ids(4, -1);
  launcher.Launch(items, [&](size_t i, KernelId id) { ids[i] = id; });
  engine.Run();
  // First kernel starts at 100; the rest are fully pipelined.
  EXPECT_EQ(gpu.CompletionTime(ids[3]), 100 + 4 * 1000);
}

TEST(CpuLauncherTest, PrecompiledPaysOneGraphLaunch) {
  SimEngine engine;
  Gpu gpu(&engine, TestSpec());
  const StreamId s = gpu.CreateStream(0);
  CpuLauncher launcher(&engine, &gpu, CpuLauncher::Mode::kPrecompiled,
                       /*graph_launch_latency=*/50);
  std::vector<IssueItem> items;
  for (int i = 0; i < 5; ++i) {
    items.push_back(Item(s, 10, 100, "k"));  // per-op latency ignored
  }
  std::vector<KernelId> ids(5, -1);
  bool all_issued = false;
  launcher.Launch(items, [&](size_t i, KernelId id) { ids[i] = id; },
                  [&] { all_issued = true; });
  engine.Run();
  EXPECT_TRUE(all_issued);
  EXPECT_EQ(gpu.CompletionTime(ids[4]), 50 + 5 * 10);
  EXPECT_EQ(launcher.issue_busy_time(), 50);
}

TEST(CpuLauncherTest, DependenciesResolvedByItemIndex) {
  SimEngine engine;
  Gpu gpu(&engine, TestSpec());
  const StreamId s0 = gpu.CreateStream(0);
  const StreamId s1 = gpu.CreateStream(1);
  CpuLauncher launcher(&engine, &gpu, CpuLauncher::Mode::kPrecompiled, 0);

  std::vector<IssueItem> items;
  items.push_back(Item(s0, 100, 0, "a"));
  IssueItem b = Item(s1, 100, 0, "b");
  b.AddDep(0);
  items.push_back(b);
  std::vector<KernelId> ids(2, -1);
  launcher.Launch(items, [&](size_t i, KernelId id) { ids[i] = id; });
  engine.Run();
  EXPECT_EQ(gpu.CompletionTime(ids[1]), 200);  // waits for item 0
}

TEST(CpuLauncherTest, BoundedQueueDepthThrottlesIssue) {
  SimEngine engine;
  Gpu gpu(&engine, TestSpec());
  const StreamId s = gpu.CreateStream(0);
  // Depth 2: the executor may run at most 2 kernels ahead.
  CpuLauncher launcher(&engine, &gpu, CpuLauncher::Mode::kPerOp, Us(5),
                       /*max_outstanding=*/2);
  std::vector<IssueItem> items;
  for (int i = 0; i < 6; ++i) {
    items.push_back(Item(s, 1000, 10, "k"));  // cheap issue, long kernels
  }
  std::vector<KernelId> ids(6, -1);
  launcher.Launch(items, [&](size_t i, KernelId id) { ids[i] = id; });
  engine.Run();
  // Execution is still back-to-back (issue always completes in time because
  // a slot opens 1000ns before it is needed).
  EXPECT_EQ(gpu.CompletionTime(ids[5]), 10 + 6 * 1000);
}

TEST(CpuLauncherTest, QueueDepthExposesIssueAfterBlocking) {
  SimEngine engine;
  Gpu gpu(&engine, TestSpec());
  const StreamId s = gpu.CreateStream(0);
  CpuLauncher launcher(&engine, &gpu, CpuLauncher::Mode::kPerOp, Us(5),
                       /*max_outstanding=*/1);
  std::vector<IssueItem> items;
  for (int i = 0; i < 3; ++i) {
    items.push_back(Item(s, 100, 50, "k"));
  }
  std::vector<KernelId> ids(3, -1);
  launcher.Launch(items, [&](size_t i, KernelId id) { ids[i] = id; });
  engine.Run();
  // With depth 1 each kernel's 50ns issue starts only after the previous
  // kernel completes: period = 150ns.
  EXPECT_EQ(gpu.CompletionTime(ids[0]), 150);
  EXPECT_EQ(gpu.CompletionTime(ids[1]), 300);
  EXPECT_EQ(gpu.CompletionTime(ids[2]), 450);
}

}  // namespace
}  // namespace oobp
