#include "src/core/schedule_io.h"

#include <fstream>
#include <sstream>

#include "src/common/str_util.h"

namespace oobp {

namespace {

const char* OpToken(TrainOpType type) {
  switch (type) {
    case TrainOpType::kForward:
      return "fwd";
    case TrainOpType::kOutputGrad:
      return "dO";
    case TrainOpType::kWeightGrad:
      return "dW";
    case TrainOpType::kWeightUpdate:
      return "update";
  }
  return "?";
}

std::optional<TrainOpType> OpFromToken(const std::string& token) {
  if (token == "fwd") {
    return TrainOpType::kForward;
  }
  if (token == "dO") {
    return TrainOpType::kOutputGrad;
  }
  if (token == "dW") {
    return TrainOpType::kWeightGrad;
  }
  if (token == "update") {
    return TrainOpType::kWeightUpdate;
  }
  return std::nullopt;
}

}  // namespace

std::string ScheduleToText(const IterationSchedule& schedule,
                           const std::string& model_name, int num_layers) {
  std::string out = "# oobp-schedule v1\n";
  out += StrFormat("model %s layers %d\n", model_name.c_str(), num_layers);
  for (const ScheduledOp& op : schedule.ops) {
    out += StrFormat("op %s %d stream=%d", OpToken(op.op.type), op.op.layer,
                     op.stream);
    if (op.wait_for_index >= 0) {
      out += StrFormat(" wait=%d", op.wait_for_index);
    }
    out += "\n";
  }
  return out;
}

std::optional<IterationSchedule> ScheduleFromText(const std::string& text,
                                                  int expect_layers) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "# oobp-schedule v1") {
    return std::nullopt;
  }
  IterationSchedule schedule;
  int recorded_layers = -1;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "model") {
      std::string name, layers_kw;
      fields >> name >> layers_kw >> recorded_layers;
      if (layers_kw != "layers") {
        return std::nullopt;
      }
      continue;
    }
    if (kind != "op") {
      return std::nullopt;
    }
    std::string op_token;
    int layer = -1;
    fields >> op_token >> layer;
    const std::optional<TrainOpType> type = OpFromToken(op_token);
    if (!type.has_value() || layer < 0 || fields.fail()) {
      return std::nullopt;
    }
    ScheduledOp op;
    op.op = {*type, layer};
    std::string attr;
    while (fields >> attr) {
      if (attr.rfind("stream=", 0) == 0) {
        op.stream = std::atoi(attr.c_str() + 7);
      } else if (attr.rfind("wait=", 0) == 0) {
        op.wait_for_index = std::atoi(attr.c_str() + 5);
      } else {
        return std::nullopt;
      }
    }
    if (op.wait_for_index >= static_cast<int>(schedule.ops.size())) {
      return std::nullopt;  // wait target must precede the op
    }
    schedule.ops.push_back(op);
  }
  if (expect_layers >= 0 && recorded_layers != expect_layers) {
    return std::nullopt;
  }
  return schedule;
}

bool WriteScheduleFile(const std::string& path,
                       const IterationSchedule& schedule,
                       const std::string& model_name, int num_layers) {
  std::ofstream f(path);
  if (!f) {
    return false;
  }
  f << ScheduleToText(schedule, model_name, num_layers);
  return static_cast<bool>(f);
}

std::optional<IterationSchedule> ReadScheduleFile(const std::string& path,
                                                  int expect_layers) {
  std::ifstream f(path);
  if (!f) {
    return std::nullopt;
  }
  std::string text((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  return ScheduleFromText(text, expect_layers);
}

}  // namespace oobp
