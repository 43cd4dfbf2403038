#include "src/nn/model_cache.h"

#include <map>
#include <mutex>
#include <utility>

#include "src/common/str_util.h"

namespace oobp {

namespace {

// Bounded size: sweeps touch a few dozen distinct points; a runaway caller
// generating unbounded keys flushes the cache instead of growing it forever.
constexpr size_t kMaxEntries = 512;

std::mutex& CacheMutex() {
  static std::mutex mu;
  return mu;
}

std::map<std::string, std::shared_ptr<const NnModel>>& ModelMap() {
  static auto* m = new std::map<std::string, std::shared_ptr<const NnModel>>();
  return *m;
}

std::map<std::string, std::shared_ptr<const CostModel>>& CostMap() {
  static auto* m = new std::map<std::string, std::shared_ptr<const CostModel>>();
  return *m;
}

std::string CostModelCacheKey(const GpuSpec& gpu,
                              const SystemProfile& profile) {
  // Every field of both structs: a missed field would alias two distinct
  // configurations onto one cached cost model.
  return StrFormat(
      "%s|%d|%d|%.17g|%.17g|%lld|%lld||%s|%.17g|%.17g|%lld|%d|%lld|%d|%.17g",
      gpu.name.c_str(), gpu.num_sms, gpu.blocks_per_sm, gpu.fp32_tflops,
      gpu.mem_bandwidth_gbps, static_cast<long long>(gpu.mem_bytes),
      static_cast<long long>(gpu.kernel_exec_overhead), profile.name.c_str(),
      profile.compute_efficiency, profile.mem_efficiency,
      static_cast<long long>(profile.issue_latency_per_op),
      profile.fused ? 1 : 0,
      static_cast<long long>(profile.graph_launch_latency),
      profile.issue_queue_depth, profile.allocator_overhead);
}

}  // namespace

std::shared_ptr<const NnModel> CachedModel(
    const std::string& key, const std::function<NnModel()>& builder) {
  {
    std::lock_guard<std::mutex> lock(CacheMutex());
    auto it = ModelMap().find(key);
    if (it != ModelMap().end()) {
      return it->second;
    }
  }
  // Build outside the lock: builders can be expensive, and a builder that
  // itself consults the cache must not deadlock. Concurrent first requests
  // may build twice; the first insert wins and both get identical values.
  auto built = std::make_shared<const NnModel>(builder());
  std::lock_guard<std::mutex> lock(CacheMutex());
  if (ModelMap().size() >= kMaxEntries) {
    ModelMap().clear();
  }
  auto [it, inserted] = ModelMap().emplace(key, std::move(built));
  return it->second;
}

std::shared_ptr<const CostModel> CachedCostModel(const GpuSpec& gpu,
                                                 const SystemProfile& profile) {
  const std::string key = CostModelCacheKey(gpu, profile);
  {
    std::lock_guard<std::mutex> lock(CacheMutex());
    auto it = CostMap().find(key);
    if (it != CostMap().end()) {
      return it->second;
    }
  }
  auto built = std::make_shared<const CostModel>(gpu, profile);
  std::lock_guard<std::mutex> lock(CacheMutex());
  if (CostMap().size() >= kMaxEntries) {
    CostMap().clear();
  }
  auto [it, inserted] = CostMap().emplace(key, std::move(built));
  return it->second;
}

size_t ModelCacheSize() {
  std::lock_guard<std::mutex> lock(CacheMutex());
  return ModelMap().size();
}

size_t CostModelCacheSize() {
  std::lock_guard<std::mutex> lock(CacheMutex());
  return CostMap().size();
}

void ClearModelCaches() {
  std::lock_guard<std::mutex> lock(CacheMutex());
  ModelMap().clear();
  CostMap().clear();
}

}  // namespace oobp
