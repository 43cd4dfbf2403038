#include "src/validate/sim_validator.h"

#include <cmath>
#include <utility>

#include "src/common/str_util.h"

namespace oobp {

namespace {
// Slack for floating-point rate sums; capacities are integers in the
// hundreds-to-thousands range, so absolute 1e-6 is far below half an ulp of
// any legal sum.
constexpr double kRateEpsilon = 1e-6;
}  // namespace

void SimValidator::AddViolation(std::string message) {
  ++total_violations_;
  if (static_cast<int>(violations_.size()) < kMaxStoredViolations) {
    violations_.push_back(std::move(message));
  }
}

std::string SimValidator::Summary() const {
  std::string out = StrFormat(
      "%lld violation(s) across %lld gpu(s), %lld link(s), "
      "%lld kernel(s), %lld transfer(s)",
      static_cast<long long>(total_violations_),
      static_cast<long long>(gpus_observed_),
      static_cast<long long>(links_observed_),
      static_cast<long long>(kernels_finished_),
      static_cast<long long>(transfers_completed_));
  for (const std::string& v : violations_) {
    out += "\n  ";
    out += v;
  }
  return out;
}

void SimValidator::OnGpuCreated(int gpu, TimeNs now, const GpuSpec& spec) {
  GpuState& state = gpus_[gpu];
  state.name = spec.name;
  state.capacity = static_cast<double>(spec.slot_capacity());
  state.exec_overhead = spec.kernel_exec_overhead;
  state.last_event = now;
  ++gpus_observed_;
}

void SimValidator::OnLinkCreated(int link, TimeNs now, const LinkSpec& spec) {
  LinkState& state = links_[link];
  state.spec = spec;
  state.last_event = now;
  ++links_observed_;
}

SimValidator::GpuState* SimValidator::CommonGpuChecks(const KernelEvent& e,
                                                      const char* event) {
  auto it = gpus_.find(e.gpu);
  if (it == gpus_.end()) {
    AddViolation(StrFormat("gpu #%d: %s from an unregistered device", e.gpu,
                           event));
    return nullptr;
  }
  GpuState& state = it->second;
  if (e.now < state.last_event) {
    AddViolation(StrFormat("gpu %s: %s at t=%lld before t=%lld (time moved "
                           "backwards)",
                           state.name.c_str(), event,
                           static_cast<long long>(e.now),
                           static_cast<long long>(state.last_event)));
  }
  state.last_event = e.now;
  if (e.allocated_rate > state.capacity + kRateEpsilon) {
    AddViolation(StrFormat("gpu %s: %s at t=%lld allocated SM rate %.9f "
                           "exceeds capacity %.0f",
                           state.name.c_str(), event,
                           static_cast<long long>(e.now), e.allocated_rate,
                           state.capacity));
  }
  return &state;
}

void SimValidator::OnKernelEnqueued(const KernelEvent& e) {
  GpuState* state = CommonGpuChecks(e, "enqueue");
  if (state == nullptr) {
    return;
  }
  const char* name = state->name.c_str();
  if (e.id != static_cast<KernelId>(state->kernels.size())) {
    AddViolation(StrFormat("gpu %s: kernel ids not dense (got %lld, expected "
                           "%zu)",
                           name, static_cast<long long>(e.id),
                           state->kernels.size()));
    return;
  }
  KernelRecord rec;
  rec.enqueue = e.now;
  rec.stream = e.stream;
  rec.solo_duration = e.solo_duration;
  for (const KernelId dep : e.deps) {
    if (dep < 0 || dep >= e.id) {
      AddViolation(StrFormat("gpu %s: kernel %lld depends on %lld, which is "
                             "not an earlier kernel",
                             name, static_cast<long long>(e.id),
                             static_cast<long long>(dep)));
      continue;
    }
    rec.deps.push_back(dep);
  }
  if (rec.stream >= 0) {
    if (static_cast<size_t>(rec.stream) >= state->streams.size()) {
      state->streams.resize(static_cast<size_t>(rec.stream) + 1);
    }
    state->streams[static_cast<size_t>(rec.stream)].order.push_back(e.id);
  }
  state->kernels.push_back(std::move(rec));
}

void SimValidator::OnKernelStarted(const KernelEvent& e) {
  GpuState* state = CommonGpuChecks(e, "kernel start");
  if (state == nullptr ||
      e.id < 0 || e.id >= static_cast<KernelId>(state->kernels.size())) {
    return;
  }
  const char* name = state->name.c_str();
  KernelRecord& rec = state->kernels[static_cast<size_t>(e.id)];
  if (rec.start >= 0) {
    AddViolation(StrFormat("gpu %s: kernel %lld started twice", name,
                           static_cast<long long>(e.id)));
    return;
  }
  rec.start = e.now;
  if (e.now < rec.enqueue + state->exec_overhead) {
    AddViolation(StrFormat("gpu %s: kernel %lld started at t=%lld, before "
                           "enqueue t=%lld + setup overhead %lld",
                           name, static_cast<long long>(e.id),
                           static_cast<long long>(e.now),
                           static_cast<long long>(rec.enqueue),
                           static_cast<long long>(state->exec_overhead)));
  }
  // Happens-before: every declared dependency finished no later than this
  // kernel's execution start.
  for (KernelId dep : rec.deps) {
    const KernelRecord& d = state->kernels[static_cast<size_t>(dep)];
    if (d.done < 0 || d.done > e.now) {
      AddViolation(StrFormat("gpu %s: kernel %lld started at t=%lld but "
                             "dependency %lld %s",
                             name, static_cast<long long>(e.id),
                             static_cast<long long>(e.now),
                             static_cast<long long>(dep),
                             d.done < 0 ? "has not finished"
                                        : "finished after the start"));
    }
  }
  // Streams start their kernels strictly in enqueue order.
  StreamState& stream = state->streams[static_cast<size_t>(rec.stream)];
  if (stream.next_start >= stream.order.size() ||
      stream.order[stream.next_start] != e.id) {
    AddViolation(StrFormat("gpu %s: kernel %lld started out of stream %d's "
                           "enqueue order",
                           name, static_cast<long long>(e.id), rec.stream));
  } else {
    ++stream.next_start;
  }
}

void SimValidator::OnKernelFinished(const KernelEvent& e) {
  GpuState* state = CommonGpuChecks(e, "kernel finish");
  if (state == nullptr ||
      e.id < 0 || e.id >= static_cast<KernelId>(state->kernels.size())) {
    return;
  }
  const char* name = state->name.c_str();
  KernelRecord& rec = state->kernels[static_cast<size_t>(e.id)];
  if (rec.done >= 0) {
    AddViolation(StrFormat("gpu %s: kernel %lld finished twice", name,
                           static_cast<long long>(e.id)));
    return;
  }
  rec.done = e.now;
  ++kernels_finished_;
  if (rec.start < 0) {
    AddViolation(StrFormat("gpu %s: kernel %lld finished without starting",
                           name, static_cast<long long>(e.id)));
    return;
  }
  // Contention can only stretch a kernel: its span is never shorter than its
  // solo duration. The fluid processor's integer-ns wake-ups can shave at
  // most 1 ns off the ideal span, hence the -1.
  if (e.now - rec.start < rec.solo_duration - 1) {
    AddViolation(StrFormat("gpu %s: kernel %lld ran %lld ns, shorter than "
                           "its solo duration %lld ns",
                           name, static_cast<long long>(e.id),
                           static_cast<long long>(e.now - rec.start),
                           static_cast<long long>(rec.solo_duration)));
  }
  // Streams complete their kernels strictly in enqueue order.
  StreamState& stream = state->streams[static_cast<size_t>(rec.stream)];
  if (stream.next_finish >= stream.order.size() ||
      stream.order[stream.next_finish] != e.id) {
    AddViolation(StrFormat("gpu %s: kernel %lld finished out of stream %d's "
                           "enqueue order",
                           name, static_cast<long long>(e.id), rec.stream));
  } else {
    ++stream.next_finish;
  }
}

void SimValidator::OnGpuDestroyed(int gpu, TimeNs now, double busy_integral) {
  auto it = gpus_.find(gpu);
  if (it == gpus_.end()) {
    return;
  }
  const GpuState& state = it->second;
  // Capacity conservation over the whole run: the busy integral cannot
  // exceed capacity x elapsed time (relative slack for the float sum).
  const double bound = state.capacity * static_cast<double>(now);
  if (busy_integral > bound * (1.0 + 1e-9) + kRateEpsilon) {
    AddViolation(StrFormat("gpu %s: SM busy integral %.3f exceeds capacity x "
                           "elapsed = %.3f",
                           state.name.c_str(), busy_integral, bound));
  }
  gpus_.erase(it);
}

void SimValidator::OnTransferSubmitted(const TransferEvent& e) {
  LinkState* state = CommonLinkChecks(e, "transfer submit");
  if (state == nullptr) {
    return;
  }
  const char* name = state->spec.name.c_str();
  TransferRecord rec;
  rec.submit = e.now;
  rec.bytes = e.bytes;
  if (e.bytes <= 0) {
    AddViolation(StrFormat("link %s: transfer %lld submitted with %lld bytes",
                           name, static_cast<long long>(e.id),
                           static_cast<long long>(e.bytes)));
  }
  if (state->first_submit < 0) {
    state->first_submit = e.now;
  }
  if (!state->transfers.emplace(e.id, rec).second) {
    AddViolation(StrFormat("link %s: transfer id %lld reused", name,
                           static_cast<long long>(e.id)));
  }
}

void SimValidator::OnTransferCompleted(const TransferEvent& e) {
  LinkState* state = CommonLinkChecks(e, "transfer complete");
  if (state == nullptr) {
    return;
  }
  const LinkSpec& spec = state->spec;
  const char* name = spec.name.c_str();
  auto it = state->transfers.find(e.id);
  if (it == state->transfers.end()) {
    AddViolation(StrFormat("link %s: unknown transfer %lld completed", name,
                           static_cast<long long>(e.id)));
    return;
  }
  TransferRecord& rec = it->second;
  if (rec.done) {
    AddViolation(StrFormat("link %s: transfer %lld completed twice", name,
                           static_cast<long long>(e.id)));
    return;
  }
  rec.done = true;
  ++transfers_completed_;
  // A message pays its propagation latency once plus at least the full
  // serialization time of its bytes (chunk ceils only round up).
  const TimeNs floor = spec.latency + SerializationTime(spec, rec.bytes);
  if (e.now - rec.submit < floor) {
    AddViolation(StrFormat("link %s: transfer %lld took %lld ns, below the "
                           "latency + serialization floor %lld ns",
                           name, static_cast<long long>(e.id),
                           static_cast<long long>(e.now - rec.submit),
                           static_cast<long long>(floor)));
  }
  state->completed_bytes += rec.bytes;
  // Bandwidth conservation: all completed bytes fit in the elapsed window at
  // link bandwidth (bandwidth_gbps is bytes per ns).
  const double elapsed = static_cast<double>(e.now - state->first_submit);
  const double byte_budget = spec.bandwidth_gbps * elapsed;
  if (static_cast<double>(state->completed_bytes) >
      byte_budget * (1.0 + 1e-9) + kRateEpsilon) {
    AddViolation(StrFormat("link %s: %lld bytes completed in a window that "
                           "fits only %.0f at %.3f GB/s",
                           name,
                           static_cast<long long>(state->completed_bytes),
                           byte_budget, spec.bandwidth_gbps));
  }
  // The link's busy intervals are disjoint and within the window.
  if (e.busy_time > e.now - state->first_submit) {
    AddViolation(StrFormat("link %s: busy time %lld ns exceeds the %lld ns "
                           "since the first submit",
                           name, static_cast<long long>(e.busy_time),
                           static_cast<long long>(e.now - state->first_submit)));
  }
}

SimValidator::LinkState* SimValidator::CommonLinkChecks(const TransferEvent& e,
                                                        const char* event) {
  auto it = links_.find(e.link);
  if (it == links_.end()) {
    AddViolation(StrFormat("link #%d: %s from an unregistered device", e.link,
                           event));
    return nullptr;
  }
  LinkState& state = it->second;
  if (e.now < state.last_event) {
    AddViolation(StrFormat("link %s: %s at t=%lld before t=%lld (time moved "
                           "backwards)",
                           state.spec.name.c_str(), event,
                           static_cast<long long>(e.now),
                           static_cast<long long>(state.last_event)));
  }
  state.last_event = e.now;
  return &state;
}

}  // namespace oobp
