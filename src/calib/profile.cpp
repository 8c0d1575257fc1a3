#include "src/calib/profile.h"

#include <stdexcept>
#include <utility>

#include "src/tier/hierarchy.h"
#include "src/util/enum_names.h"
#include "src/util/json.h"

namespace karma::calib {

namespace json = util::json;

const char* cost_kind_name(CostKind kind) {
  switch (kind) {
    case CostKind::kCompute: return "compute";
    case CostKind::kH2d: return "h2d";
    case CostKind::kD2h: return "d2h";
    case CostKind::kNvmeRead: return "nvme_read";
    case CostKind::kNvmeWrite: return "nvme_write";
    case CostKind::kCpuUpdate: return "cpu_update";
  }
  return "?";
}

std::optional<CostKind> cost_kind_from(std::string_view name) {
  return util::enum_from_name(name, cost_kind_name, CostKind::kCpuUpdate);
}

std::string ProfileArtifact::to_json() const {
  json::Writer w;
  w.begin_object();
  w.key("version");
  w.value(version);
  w.key("device_class");
  w.value(device_class);
  w.key("model_name");
  w.value(model_name);
  w.key("samples");
  w.begin_array();
  for (const ProfileSample& s : samples) {
    w.begin_object();
    w.key("kind");
    w.value(cost_kind_name(s.kind));
    w.key("bytes");
    w.value(static_cast<std::int64_t>(s.bytes));
    w.key("predicted");
    w.value(s.predicted);
    w.key("measured");
    w.value(s.measured);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

ProfileArtifact ProfileArtifact::from_json(std::string_view text) {
  const json::Document root = json::parse(text);
  ProfileArtifact p;
  p.version = json::as_int32(root.at("version"), "profile version");
  if (p.version != kProfileJsonVersion)
    throw std::runtime_error("ProfileArtifact: unsupported version " +
                             std::to_string(p.version));
  p.device_class = root.at("device_class").as_string();
  p.model_name = root.at("model_name").as_string();
  for (const json::Value& s : root.at("samples").as_array()) {
    // Unknown kinds are skipped, not fatal: a newer recorder may emit op
    // kinds this build does not know how to calibrate.
    const auto kind = cost_kind_from(s.at("kind").as_string());
    if (!kind) continue;
    ProfileSample sample;
    sample.kind = *kind;
    sample.bytes = static_cast<Bytes>(s.at("bytes").as_int());
    sample.predicted = s.at("predicted").as_double();
    sample.measured = s.at("measured").as_double();
    p.samples.push_back(sample);
  }
  return p;
}

ProfileRecorder::ProfileRecorder(const sim::DeviceSpec& device,
                                 std::string model_name)
    : device_(device), model_name_(std::move(model_name)) {}

void ProfileRecorder::record(CostKind kind, Bytes bytes, Seconds measured) {
  Seconds predicted = 0.0;
  switch (kind) {
    case CostKind::kCompute:
      // Bandwidth roofline only: the recorder has no FLOP count for the
      // op, and the numeric twin in train/ is memory-bound anyway.
      predicted = device_.kernel_time(graph::LayerKind::kReLU, 0.0, bytes);
      break;
    case CostKind::kH2d:
      predicted = device_.h2d_time(bytes);
      break;
    case CostKind::kD2h:
      predicted = device_.d2h_time(bytes);
      break;
    case CostKind::kNvmeRead:
      // Full restore path (NVMe -> host -> device), matching what an
      // executor can actually time around a storage swap-in.
      if (!device_.has_nvme()) return;
      predicted = device_.read_from_tier_time(tier::Tier::kNvme, bytes);
      break;
    case CostKind::kNvmeWrite:
      if (!device_.has_nvme()) return;
      predicted = device_.write_to_tier_time(tier::Tier::kNvme, bytes);
      break;
    case CostKind::kCpuUpdate:
      predicted = device_.cpu_update_time(bytes);
      break;
  }
  record_predicted(kind, bytes, predicted, measured);
}

void ProfileRecorder::record_predicted(CostKind kind, Bytes bytes,
                                       Seconds predicted, Seconds measured) {
  ProfileSample s;
  s.kind = kind;
  s.bytes = bytes;
  s.predicted = predicted;
  s.measured = measured;
  samples_.push_back(s);
}

ProfileArtifact ProfileRecorder::artifact() const {
  ProfileArtifact p;
  p.device_class = device_.name;
  p.model_name = model_name_;
  p.samples = samples_;
  return p;
}

}  // namespace karma::calib
