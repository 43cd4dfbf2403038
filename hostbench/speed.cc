// Host-speed probe: a fixed kernel, independent of the simulator's code, whose
// time says how fast a core of the host runs right now (see HostSpeed in
// bench.h).

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "hostbench/bench.h"

namespace hostbench {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

volatile uint64_t g_sink = 0;

// An event-heap hold model and small-object allocation churn, the kinds of
// work the simulator spends its host time on.
double KernelMs() {
  constexpr int kPending = 1 << 12;
  constexpr int kHolds = 20000;
  constexpr int kRing = 1 << 12;
  constexpr int kAllocs = 20000;
  uint64_t state = 11;
  const int64_t t0 = NowNs();

  std::vector<uint64_t> heap;
  heap.reserve(kPending);
  for (int i = 0; i < kPending; ++i) {
    heap.push_back(SplitMix64(&state) >> 24);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  for (int i = 0; i < kHolds; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    heap.back() += SplitMix64(&state) & 0xffff;
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }

  // Replace random slots of a ring of live objects.
  std::vector<std::unique_ptr<uint64_t[]>> ring(kRing);
  uint64_t acc = heap.front();
  for (int i = 0; i < kAllocs; ++i) {
    const uint64_t r = SplitMix64(&state);
    auto& slot = ring[r % kRing];
    slot = std::make_unique<uint64_t[]>(4 + (r >> 60));
    slot[0] = r;
    const auto& other = ring[(r >> 20) % kRing];
    acc += other ? other[0] : 0;
  }
  g_sink = g_sink + acc;
  return static_cast<double>(NowNs() - t0) / 1e6;
}

bool Restrict(const std::vector<int>& cores) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int core : cores) {
    CPU_SET(core, &set);
  }
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

}  // namespace

HostSpeed::HostSpeed(int threads) : threads_(std::max(threads, 1)) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int core = 0; core < CPU_SETSIZE; ++core) {
      if (CPU_ISSET(core, &allowed)) {
        allowed_.push_back(core);
      }
    }
  }
}

HostSpeed::~HostSpeed() { Restrict(allowed_); }

double HostSpeed::MeanMs(const std::vector<int>& cores,
                         std::vector<std::pair<double, int>>* per_core) {
  double sum = 0;
  int probed = 0;
  for (const int core : cores) {
    if (Restrict({core})) {
      const double ms = KernelMs();
      sum += ms;
      ++probed;
      if (per_core != nullptr) {
        per_core->push_back({ms, core});
      }
    }
  }
  return probed > 0 ? sum / probed : KernelMs();
}

double HostSpeed::PinFastest() {
  std::vector<std::pair<double, int>> per_core;
  MeanMs(allowed_, &per_core);
  std::sort(per_core.begin(), per_core.end());
  per_core.resize(std::min(per_core.size(), static_cast<size_t>(threads_)));
  pinned_.clear();
  double sum = 0;
  for (const auto& [ms, core] : per_core) {
    pinned_.push_back(core);
    sum += ms;
  }
  if (pinned_.empty() || !Restrict(pinned_)) {
    pinned_.clear();
    Restrict(allowed_);
    return KernelMs();
  }
  return sum / static_cast<double>(pinned_.size());
}

double HostSpeed::ProbePinned() {
  if (pinned_.empty()) {
    return KernelMs();
  }
  const double ms = MeanMs(pinned_, nullptr);
  Restrict(pinned_);
  return ms;
}

}  // namespace hostbench
