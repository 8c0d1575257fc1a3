#include "src/cache/request_key.h"

#include <bit>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/api/plan_io.h"
#include "src/api/session.h"

namespace karma::cache {
namespace {

/// Canonical binary field stream: every field becomes little-endian
/// 8-byte words, written in one fixed order by code structure (the same
/// discipline as plan_io's JsonWriter, no schema walker):
///   - integers, bools and enums are one int64 word;
///   - doubles are one word holding their IEEE-754 bit pattern;
///   - strings are a length word, then their bytes zero-padded to a
///     word boundary; shapes, succ lists and the layer / fleet node lists
///     are likewise a count word, then their elements;
///   - optionals are a presence word, then the value when present.
/// Every variable-length item is length-prefixed, so the stream parses
/// back unambiguously: no value can impersonate a delimiter.
///
/// The words go to a Hasher128 (request_key) or are appended to a string
/// (request_fingerprint) — the same bytes either way.
class KeyWriter {
 public:
  explicit KeyWriter(util::Hasher128* hasher) : hasher_(hasher) {}
  explicit KeyWriter(std::string* bytes) : bytes_(bytes) {}

  template <class T>
  void put(T v) {
    if constexpr (std::is_floating_point_v<T>) {
      word(std::bit_cast<std::uint64_t>(static_cast<double>(v)));
    } else {
      static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
      word(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    }
  }
  void put(std::string_view s) {
    put(s.size());
    append(s.data(), s.size());
    static constexpr unsigned char kZeros[8] = {};
    append(kZeros, (8 - s.size() % 8) % 8);
  }
  void put(const std::string& s) { put(std::string_view(s)); }

 private:
  void word(std::uint64_t v) {
    unsigned char le[8];
    util::store_le64(le, v);
    append(le, sizeof le);
  }
  void append(const void* data, std::size_t n) {
    if (hasher_)
      hasher_->update(data, n);
    else
      bytes_->append(static_cast<const char*>(data), n);
  }

  util::Hasher128* hasher_ = nullptr;
  std::string* bytes_ = nullptr;
};

void write_shape(KeyWriter& w, const graph::TensorShape& shape) {
  w.put(shape.rank());
  for (std::size_t i = 0; i < shape.rank(); ++i) w.put(shape.dim(i));
}

void write_model(KeyWriter& w, const graph::Model& model) {
  w.put(model.name());
  w.put(model.dtype_bytes());
  w.put(model.activation_memory_scale());
  w.put(model.num_layers());
  for (const auto& layer : model.layers()) {
    w.put(layer.name);
    w.put(layer.kind);
    write_shape(w, layer.in_shape);
    write_shape(w, layer.out_shape);
    w.put(layer.kernel);
    w.put(layer.stride);
    w.put(layer.in_channels);
    w.put(layer.out_channels);
    w.put(layer.heads);
    w.put(layer.head_dim);
    w.put(layer.vocab);
    w.put(layer.weight_elems);
  }
  // Edges via succs(), kept sorted ascending by Model::add_edge — the
  // order edges were *added* in cannot reach the key. One count-prefixed
  // list per layer, in layer order.
  for (const auto& layer : model.layers()) {
    const std::vector<int>& succs = model.succs(layer.id);
    w.put(succs.size());
    for (const int s : succs) w.put(s);
  }
}

void write_device(KeyWriter& w, const sim::DeviceSpec& d) {
  w.put(d.name);
  w.put(d.memory_capacity);
  w.put(d.peak_flops);
  w.put(d.device_mem_bw);
  w.put(d.h2d_bw);
  w.put(d.d2h_bw);
  w.put(d.swap_latency);
  w.put(d.cpu_flops);
  w.put(d.host_mem_bw);
  w.put(d.host_capacity);
  w.put(d.nvme_capacity);
  w.put(d.nvme_read_bw);
  w.put(d.nvme_write_bw);
  w.put(d.nvme_latency);
  // NVMe contention model (DESIGN.md §16): unconditional like the scale
  // overlay — identity requests hash identical bytes to each other, and
  // contended devices never collide with their uncontended twins.
  w.put(d.nvme_contention.queue_depth);
  w.put(d.nvme_contention.mixed_read_penalty);
  w.put(d.nvme_contention.mixed_write_penalty);
  // Calibration overlay: identity for uncalibrated requests, but probe
  // requests derived from a calibrated flight embed scaled devices, and
  // those must not collide with their analytic twins.
  w.put(d.scale.compute);
  w.put(d.scale.h2d);
  w.put(d.scale.d2h);
  w.put(d.scale.nvme_read);
  w.put(d.scale.nvme_write);
  w.put(d.scale.cpu_update);
}

void write_planner(KeyWriter& w, const core::PlannerOptions& p) {
  w.put(p.enable_recompute);
  w.put(p.min_blocks);
  w.put(p.max_blocks);
  w.put(p.anneal_iterations);
  // Plan-affecting: the portfolio reduction is deterministic for a fixed
  // worker count, but different counts explore different rng streams.
  // reference_engine_loop is intentionally absent — both event loops
  // replay bit-identically, so it cannot change the plan.
  w.put(p.anneal_workers);
  w.put(p.seed);
  w.put(p.schedule.prefetch_window);
  w.put(p.schedule.reserved_host_bytes);
}

void write_optimizer(KeyWriter& w, const api::OptimizerSpec& o) {
  w.put(o.kind);
  w.put(o.host_resident);
  w.put(o.state_bytes_per_param_byte);
}

void write_distributed(KeyWriter& w,
                       const std::optional<core::DistributedOptions>& d) {
  w.put(d.has_value());
  if (!d) return;
  w.put(d->num_gpus);
  w.put(d->net.gpus_per_node);
  w.put(d->net.intra_bw);
  w.put(d->net.intra_latency);
  w.put(d->net.inter_bw);
  w.put(d->net.inter_latency);
  w.put(d->exchange);
  w.put(d->update);
  w.put(d->iterations);
  w.put(d->weight_shard_fraction);
  // d->planner is intentionally absent: Session supersedes it with
  // PlanRequest::planner (see the header's exclusion list).
}

void write_fleet(KeyWriter& w, const std::optional<place::FleetSpec>& f) {
  w.put(f.has_value());
  if (!f) return;
  w.put(f->nodes.size());
  for (const auto& node : f->nodes) {
    w.put(node.name);
    write_device(w, node.device);
  }
  w.put(f->net.gpus_per_node);
  w.put(f->net.intra_bw);
  w.put(f->net.intra_latency);
  w.put(f->net.inter_bw);
  w.put(f->net.inter_latency);
  w.put(f->strategy);
}

/// Key stream format version; bumping it re-keys every request.
constexpr int kFpVersion = 5;

void write_request(KeyWriter& w, const api::PlanRequest& request,
                   const std::string& calibration) {
  w.put(std::string_view("karma-request-key"));
  // v5: the binary word stream (KeyWriter) replaces v4's text key, and
  // util::Hasher128 replaces FNV-1a — every v4 disk entry now misses.
  // v4: fleet section + NVMe contention device fields (DESIGN.md §16) —
  // fleet-aware engines must never serve keys minted without them.
  // v3: anneal_workers + the rejection-sampled Rng (plans under the
  // unbiased stream differ from v2's, so v2 entries must miss).
  // v2: device scale fields + the calibration preamble entry below.
  w.put(kFpVersion);
  // Schema bump = cache invalidation: new keys never collide with entries
  // written under the old schema (which plan_from_json rejects anyway).
  w.put(api::kPlanJsonVersion);
  // The active CalibrationTable's content hash ("" = analytic model).
  // Hot-swapping a table therefore re-keys the whole cache — stale plans
  // miss, and the engine turns the old-key entry into a repair seed.
  w.put(calibration);
  write_model(w, request.model);
  write_device(w, request.device);
  write_planner(w, request.planner);
  write_optimizer(w, request.optimizer);
  write_distributed(w, request.distributed);
  write_fleet(w, request.fleet);
}

}  // namespace

std::string request_fingerprint(const api::PlanRequest& request,
                                const std::string& calibration) {
  std::string bytes;
  KeyWriter w(&bytes);
  write_request(w, request, calibration);
  return bytes;
}

RequestKey request_key(const api::PlanRequest& request,
                       const std::string& calibration) {
  util::Hasher128 hasher;
  KeyWriter w(&hasher);
  write_request(w, request, calibration);
  return {hasher.finish()};
}

}  // namespace karma::cache
