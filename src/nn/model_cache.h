// Immutable model-zoo / cost-model cache.
//
// Registry-hosted sweeps (src/runner/sweep_scenarios.cc) evaluate the same
// (model, GPU, profile) points many times — once per strategy per scaling
// point, and again under the validator replay and the perf suite. NnModel
// construction walks the whole layer table and CostModel is rebuilt per
// engine run; both are pure values, so repeated points can share one
// immutable instance instead of rebuilding it.
//
// Thread-safety: a single mutex-guarded map, safe under the scenario
// runner's `--jobs` thread pool. Entries are shared_ptr<const T>; a caller
// keeps its reference alive independently of the cache, so the bounded
// clear-on-overflow eviction can never invalidate an object in use.

#ifndef OOBP_SRC_NN_MODEL_CACHE_H_
#define OOBP_SRC_NN_MODEL_CACHE_H_

#include <functional>
#include <memory>
#include <string>

#include "src/nn/cost_model.h"
#include "src/nn/layer.h"

namespace oobp {

// Returns the cached model for `key`, building it with `builder` on the
// first request. `key` must uniquely describe the built model (e.g.
// "bert:L48:B16"); two callers using the same key MUST build identical
// models.
std::shared_ptr<const NnModel> CachedModel(
    const std::string& key, const std::function<NnModel()>& builder);

// Returns the cached cost model for (gpu, profile). The cache key serializes
// every field of both structs, so distinct configurations never collide.
std::shared_ptr<const CostModel> CachedCostModel(const GpuSpec& gpu,
                                                 const SystemProfile& profile);

// Testing hooks: entry counts and explicit reset.
size_t ModelCacheSize();
size_t CostModelCacheSize();
void ClearModelCaches();

}  // namespace oobp

#endif  // OOBP_SRC_NN_MODEL_CACHE_H_
