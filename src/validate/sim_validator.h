// Simulation invariant validator.
//
// Subscribes to the observer list (src/hw/observer.h), so it hears from
// every Gpu and Link an observed run builds, and checks, at each simulation
// event, that the timeline the simulator produces is physically and
// semantically possible on real hardware:
//
//   * time monotonicity       — observed event timestamps never decrease
//                               per device;
//   * stream FIFO             — kernels of one stream start and finish in
//                               enqueue order (CUDA stream semantics);
//   * happens-before          — a kernel starts only after every declared
//                               dependency finished (cudaStreamWaitEvent),
//                               and no earlier than its enqueue time plus
//                               the per-kernel SM setup gap;
//   * occupancy               — the fluid processor's total allocated SM
//                               slot rate never exceeds device capacity, and
//                               the busy integral never exceeds capacity x
//                               elapsed time;
//   * duration floor          — a kernel's span is never shorter than its
//                               solo duration (contention only slows);
//   * link conservation       — a transfer takes at least latency +
//                               bytes/bandwidth, and the link never moves
//                               more bytes than bandwidth x elapsed allows.
//
// Every check reads only the values the callbacks carry, so a test can
// drive the validator with hand-written events and no device. The validator
// never mutates simulation state, and an observed run gives the values an
// unobserved one does. Violations are collected (not fatal) so a fuzzer can
// report all failures of a seed at once.

#ifndef OOBP_SRC_VALIDATE_SIM_VALIDATOR_H_
#define OOBP_SRC_VALIDATE_SIM_VALIDATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/hw/gpu_spec.h"
#include "src/hw/link.h"
#include "src/hw/observer.h"

namespace oobp {

class SimValidator : public DeviceObserver {
 public:
  SimValidator() = default;
  SimValidator(const SimValidator&) = delete;
  SimValidator& operator=(const SimValidator&) = delete;

  void OnGpuCreated(int gpu, TimeNs now, const GpuSpec& spec) override;
  void OnKernelEnqueued(const KernelEvent& e) override;
  void OnKernelStarted(const KernelEvent& e) override;
  void OnKernelFinished(const KernelEvent& e) override;
  void OnGpuDestroyed(int gpu, TimeNs now, double busy_integral) override;

  void OnLinkCreated(int link, TimeNs now, const LinkSpec& spec) override;
  void OnTransferSubmitted(const TransferEvent& e) override;
  void OnTransferCompleted(const TransferEvent& e) override;

  bool ok() const { return total_violations_ == 0; }
  // Counts every violation; Summary lists the first kMaxStoredViolations.
  int64_t total_violations() const { return total_violations_; }
  std::string Summary() const;

  // Coverage counters: a passing validation run over zero events proves
  // nothing, so tests assert these too.
  int64_t gpus_observed() const { return gpus_observed_; }
  int64_t links_observed() const { return links_observed_; }
  int64_t kernels_finished() const { return kernels_finished_; }
  int64_t transfers_completed() const { return transfers_completed_; }

 private:
  static constexpr int kMaxStoredViolations = 64;

  struct KernelRecord {
    TimeNs enqueue = -1;
    TimeNs start = -1;
    TimeNs done = -1;
    StreamId stream = 0;
    TimeNs solo_duration = 0;
    std::vector<KernelId> deps;
  };
  struct StreamState {
    std::vector<KernelId> order;  // enqueue order
    size_t next_start = 0;        // frontier into `order`
    size_t next_finish = 0;
  };
  struct GpuState {
    std::string name;
    std::vector<KernelRecord> kernels;
    std::vector<StreamState> streams;
    TimeNs last_event = 0;
    double capacity = 0.0;
    TimeNs exec_overhead = 0;
  };
  struct TransferRecord {
    TimeNs submit = -1;
    int64_t bytes = 0;
    bool done = false;
  };
  struct LinkState {
    LinkSpec spec;
    std::map<int64_t, TransferRecord> transfers;
    TimeNs first_submit = -1;
    int64_t completed_bytes = 0;
    TimeNs last_event = 0;
  };

  void AddViolation(std::string message);
  // Shared per-event checks: device-local time monotonicity and the
  // occupancy-at-this-instant bound.
  GpuState* CommonGpuChecks(const KernelEvent& e, const char* event);
  LinkState* CommonLinkChecks(const TransferEvent& e, const char* event);

  std::map<int, GpuState> gpus_;    // by device id
  std::map<int, LinkState> links_;  // by device id
  std::vector<std::string> violations_;
  int64_t total_violations_ = 0;
  int64_t gpus_observed_ = 0;
  int64_t links_observed_ = 0;
  int64_t kernels_finished_ = 0;
  int64_t transfers_completed_ = 0;
};

}  // namespace oobp

#endif  // OOBP_SRC_VALIDATE_SIM_VALIDATOR_H_
