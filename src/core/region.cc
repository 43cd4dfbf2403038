#include "src/core/region.h"

#include <algorithm>

#include "src/common/check.h"

namespace oobp {

int Region::FirstLayer() const {
  OOBP_CHECK(!main_ops.empty());
  int lo = main_ops.front().layer;
  for (const TrainOp& op : main_ops) {
    lo = std::min(lo, op.layer);
  }
  return lo;
}

int Region::LastLayer() const {
  OOBP_CHECK(!main_ops.empty());
  int hi = main_ops.front().layer;
  for (const TrainOp& op : main_ops) {
    hi = std::max(hi, op.layer);
  }
  return hi;
}

namespace {

// Groups consecutive ops (in execution order) by layer block, merging small
// groups into their predecessor.
void AppendRegions(const NnModel& model, const std::vector<TrainOp>& ops,
                   Region::Kind kind, const std::string& prefix,
                   int min_ops_per_region, std::vector<Region>* out) {
  std::vector<Region> pending;
  const std::string* pending_block = nullptr;  // block of pending.back()
  for (const TrainOp& op : ops) {
    const std::string& block = model.layers[op.layer].block;
    if (pending.empty() || block != *pending_block) {
      Region r;
      r.kind = kind;
      r.name = prefix + block;
      pending.push_back(std::move(r));
      pending_block = &block;
    }
    pending.back().main_ops.push_back(op);
  }
  // Merge undersized regions into the previous one (or the next, for a
  // leading undersized region).
  std::vector<Region> merged;
  for (Region& r : pending) {
    if (!merged.empty() &&
        static_cast<int>(r.main_ops.size()) < min_ops_per_region) {
      Region& prev = merged.back();
      prev.main_ops.insert(prev.main_ops.end(), r.main_ops.begin(),
                           r.main_ops.end());
    } else if (merged.empty() &&
               static_cast<int>(r.main_ops.size()) < min_ops_per_region &&
               pending.size() > 1) {
      // Defer: stash the ops so the next region absorbs them.
      merged.push_back(std::move(r));
      merged.back().name += "+";
    } else {
      if (!merged.empty() && merged.back().name.ends_with("+")) {
        // Absorb the stashed leading region into this one.
        Region lead = std::move(merged.back());
        merged.pop_back();
        lead.main_ops.insert(lead.main_ops.end(), r.main_ops.begin(),
                             r.main_ops.end());
        lead.name = r.name;
        lead.kind = r.kind;
        merged.push_back(std::move(lead));
      } else {
        merged.push_back(std::move(r));
      }
    }
  }
  for (Region& r : merged) {
    out->push_back(std::move(r));
  }
}

}  // namespace

std::vector<Region> BuildRegions(const TrainGraph& graph, bool include_forward,
                                 int min_ops_per_region) {
  std::vector<Region> regions;
  // Backward main-stream ops: the dO chain, last layer first.
  std::vector<TrainOp> bwd;
  for (int i = graph.num_layers() - 1; i >= 0; --i) {
    bwd.push_back({TrainOpType::kOutputGrad, i});
  }
  AppendRegions(graph.model(), bwd, Region::Kind::kBackward, "bwd:",
                min_ops_per_region, &regions);
  if (include_forward) {
    AppendRegions(graph.model(), graph.Forward(), Region::Kind::kForward,
                  "fwd:", min_ops_per_region, &regions);
  }
  return regions;
}

}  // namespace oobp
