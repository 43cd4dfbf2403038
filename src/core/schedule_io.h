// Schedule serialization.
//
// The paper's artifact ships "the execution schedules for the evaluated
// neural network models" alongside the code; this module provides the same
// capability: schedules computed by the (potentially slow) profiling +
// scheduling passes can be exported once and replayed later or on another
// machine. The format is a line-oriented text format designed to be
// diffable and hand-editable:
//
//   # oobp-schedule v1
//   model DenseNet-121(k=32) layers 126
//   op fwd 0 stream=0
//   op dW 12 stream=1 wait=37
//   ...

#ifndef OOBP_SRC_CORE_SCHEDULE_IO_H_
#define OOBP_SRC_CORE_SCHEDULE_IO_H_

#include <optional>
#include <string>

#include "src/core/schedule.h"

namespace oobp {

// Serializes a single-GPU iteration schedule. `model_name`/`num_layers`
// are recorded for validation at load time.
std::string ScheduleToText(const IterationSchedule& schedule,
                           const std::string& model_name, int num_layers);

// Parses a schedule; returns std::nullopt on malformed input. If
// `expect_layers` >= 0, a mismatch with the recorded layer count fails.
std::optional<IterationSchedule> ScheduleFromText(const std::string& text,
                                                  int expect_layers = -1);

// File helpers; return false / nullopt on I/O failure.
bool WriteScheduleFile(const std::string& path,
                       const IterationSchedule& schedule,
                       const std::string& model_name, int num_layers);
std::optional<IterationSchedule> ReadScheduleFile(const std::string& path,
                                                  int expect_layers = -1);

}  // namespace oobp

#endif  // OOBP_SRC_CORE_SCHEDULE_IO_H_
