// One field list per request and plan-side type, and the JSON sinks
// derived from it (DESIGN.md §8, §10, §12, §16).
//
// Each type has one `fields(v, x)` template that names every field once,
// in wire order: `v("json_name", x.member)`, plus a tag when the type
// alone does not say how the field travels. A sink is any callable the
// list is run against:
//   - JsonOut writes the fields as one JSON object's members;
//   - JsonIn reads them back from a parsed DOM object, with every check
//     (the JSON type of each field, int narrowing, enum ranges, the strict
//     unsigned seed, schema versions, Model::validate, and the cross-field
//     checks of `after_read`);
//   - cache::request_key's key writer streams the keyed fields of a
//     request as binary words (src/cache/request_key.cpp).
// The same list drives all three, so a field added to a list is written,
// read and keyed without further code, and "every plan-affecting field is
// keyed" holds by construction. The plan-side lists (the plan artifact,
// its placement, PlanError) are written and read, never keyed. The lists
// are templates over the sink, so there is no virtual dispatch and no
// per-field allocation. A list takes `const T` for the writers and `T` for
// the reader.
//
// Deliberately absent from every list: Layer::id (the Model constructor
// assigns it), PlannerOptions::reference_engine_loop (both event loops
// replay bit-identically, so it cannot change a plan),
// DistributedOptions::planner (PlanRequest::planner supersedes it), and
// the plan's transient trace records and search stats.
#pragma once

#include <array>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "src/api/plan_io.h"
#include "src/api/request_io.h"
#include "src/api/session.h"
#include "src/util/enum_names.h"
#include "src/util/json.h"

namespace karma::api {

// ---------------------------------------------------------------------------
// Tags: how a field travels when its type alone does not say.
// ---------------------------------------------------------------------------

/// Delivery-only: sent on the wire but never keyed. A server needs it to
/// honor the request, yet it never changes the plan a search produces.
struct Unkeyed {};
/// The member's own field list is spliced into the enclosing object.
struct Inline {};
/// A member that is omitted while it equals its default (an optional:
/// while it is empty), so identity overlays and non-fleet plans leave
/// artifacts and goldens byte-unchanged. The key writes a presence word
/// instead.
struct IfNotDefault {};
/// A uint64 sent as decimal text: JSON integers here are int64.
struct DecimalText {};
/// A constant schema version: written, required equal on read, unkeyed.
struct SchemaVersion {};
/// An enum sent as its display name.
template <class E>
struct Named {
  const char* (*name)(E);
  E last;
};
/// An enum sent as its integer value, range-checked on read.
template <class E>
struct Coded {
  E last;
};

/// One already-encoded JSON value: written verbatim (Writer::raw) and read
/// back as its exact span of the parsed input, with `value` pointing at its
/// node of that parse so a reader can descend into it without re-parsing.
/// An empty `text` is absent, so `IfNotDefault` omits it.
struct RawJson {
  std::string_view text;
  const util::json::Value* value = nullptr;

  bool operator==(const RawJson& other) const { return text == other.text; }
};

/// A nested object of members the list names in place, drawn from the
/// enclosing type: `v("model", Group{[&](auto& g) { g("name", ...); }})`.
template <class F>
struct Group {
  F members;
};

template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

/// Types sent as a two-element JSON array `[first, second]` instead of an
/// object: a block's layer range and a skip edge.
template <Is<sim::Block> B>
auto pair_of(B& b) {
  return std::tie(b.first_layer, b.last_layer);
}
template <Is<std::array<int, 2>> A>
auto pair_of(A& a) {
  return std::tie(a[0], a[1]);
}

// ---------------------------------------------------------------------------
// Field lists.
// ---------------------------------------------------------------------------

template <class V, Is<graph::Layer> L>
void fields(V& v, L& l) {
  v("name", l.name);
  v("kind", l.kind, Named{graph::layer_kind_name, graph::LayerKind::kGeLU});
  v("in", l.in_shape);
  v("out", l.out_shape);
  v("kernel", l.kernel);
  v("stride", l.stride);
  v("in_channels", l.in_channels);
  v("out_channels", l.out_channels);
  v("heads", l.heads);
  v("head_dim", l.head_dim);
  v("vocab", l.vocab);
  v("weight_elems", l.weight_elems);
}

/// A model's skip edges: every edge except the chain edges id -> id + 1,
/// which add_layer wires itself. Walked in ascending (from, to) order, so
/// the order edges were added in cannot leak into the wire or the key.
struct SkipEdges {
  const graph::Model& model;

  template <class F>
  void for_each(F f) const {
    for (const graph::Layer& layer : model.layers())
      for (const int to : model.succs(layer.id))
        if (to != layer.id + 1) f(layer.id, to);
  }
};
/// Skip edges as read back, before they are added to the model.
using SkipPairs = std::vector<std::array<int, 2>>;

/// A Model is built through its constructor and add_edge rather than
/// assigned member by member, so its list visits its parts: a ModelView of
/// a const model for the writers, or for the reader (and any other editing
/// visitor) ModelParts, which the model then adopts.
template <class V, class P>
void model_fields(V& v, P& p) {
  v("name", p.name);
  v("dtype_bytes", p.dtype_bytes);
  v("act_scale", p.act_scale);
  v("layers", p.layers);
  v("skips", p.skips);
}

struct ModelView {
  const std::string& name;
  int dtype_bytes;
  double act_scale;
  const std::vector<graph::Layer>& layers;
  SkipEdges skips;
};

struct ModelParts {
  std::string name;
  int dtype_bytes = 4;
  double act_scale = 1.0;
  std::vector<graph::Layer> layers;
  SkipPairs skips;
};

template <class V>
void fields(V& v, const graph::Model& m) {
  const ModelView view{m.name(), m.dtype_bytes(), m.activation_memory_scale(),
                       m.layers(), SkipEdges{m}};
  model_fields(v, view);
}

template <class V>
void fields(V& v, graph::Model& m) {
  ModelParts parts{m.name(), m.dtype_bytes(), m.activation_memory_scale(),
                   m.layers(), {}};
  SkipEdges{m}.for_each(
      [&](int from, int to) { parts.skips.push_back({from, to}); });
  model_fields(v, parts);
  m = graph::Model(std::move(parts.name), parts.dtype_bytes,
                   std::move(parts.layers));
  m.set_activation_memory_scale(parts.act_scale);
  for (const auto& [from, to] : parts.skips) m.add_edge(from, to);
  m.validate();
}

template <class V, Is<sim::CostScale> S>
void fields(V& v, S& s) {
  v("compute", s.compute);
  v("h2d", s.h2d);
  v("d2h", s.d2h);
  v("nvme_read", s.nvme_read);
  v("nvme_write", s.nvme_write);
  v("cpu_update", s.cpu_update);
}

template <class V, Is<sim::NvmeContention> C>
void fields(V& v, C& c) {
  v("queue_depth", c.queue_depth);
  v("mixed_read_penalty", c.mixed_read_penalty);
  v("mixed_write_penalty", c.mixed_write_penalty);
}

template <class V, Is<sim::DeviceSpec> D>
void fields(V& v, D& d) {
  v("name", d.name);
  v("memory_capacity", d.memory_capacity);
  v("peak_flops", d.peak_flops);
  v("device_mem_bw", d.device_mem_bw);
  v("h2d_bw", d.h2d_bw);
  v("d2h_bw", d.d2h_bw);
  v("swap_latency", d.swap_latency);
  v("cpu_flops", d.cpu_flops);
  v("host_mem_bw", d.host_mem_bw);
  v("host_capacity", d.host_capacity);
  v("nvme_capacity", d.nvme_capacity);
  v("nvme_read_bw", d.nvme_read_bw);
  v("nvme_write_bw", d.nvme_write_bw);
  v("nvme_latency", d.nvme_latency);
  // The calibration overlay (DESIGN.md §13) and the NVMe contention model
  // (§16) are identity by default: uncalibrated, uncontended devices keep
  // their bytes, and scaled or contended ones never collide with their
  // identity twins in the key.
  v("scale", d.scale, IfNotDefault{});
  v("nvme_contention", d.nvme_contention, IfNotDefault{});
}

template <class V, Is<core::ScheduleOptions> S>
void fields(V& v, S& s) {
  v("prefetch", s.prefetch_window);
  v("reserved_host", s.reserved_host_bytes);
}

template <class V, Is<core::PlannerOptions> P>
void fields(V& v, P& p) {
  v("recompute", p.enable_recompute);
  v("min_blocks", p.min_blocks);
  v("max_blocks", p.max_blocks);
  v("anneal", p.anneal_iterations);
  // Plan-affecting: the portfolio reduction is deterministic for a fixed
  // worker count, but different counts explore different rng streams.
  v("anneal_workers", p.anneal_workers);
  v("seed", p.seed, DecimalText{});
  v("schedule", p.schedule, Inline{});
}

template <class V, Is<OptimizerSpec> O>
void fields(V& v, O& o) {
  v("kind", o.kind, Coded{OptimizerSpec::Kind::kAdam});
  v("host_resident", o.host_resident);
  v("state_per_param", o.state_bytes_per_param_byte);
}

template <class V, Is<net::NetSpec> N>
void fields(V& v, N& n) {
  v("gpus_per_node", n.gpus_per_node);
  v("intra_bw", n.intra_bw);
  v("intra_latency", n.intra_latency);
  v("inter_bw", n.inter_bw);
  v("inter_latency", n.inter_latency);
}

template <class V, Is<core::DistributedOptions> D>
void fields(V& v, D& d) {
  v("num_gpus", d.num_gpus);
  v("net", d.net, Inline{});
  v("exchange", d.exchange, Coded{core::ExchangeMode::kMerged});
  v("update", d.update, Coded{core::UpdateSite::kDevice});
  v("iterations", d.iterations);
  v("shard_fraction", d.weight_shard_fraction);
}

/// Fleet component schema version, independent of the request envelope
/// (fleet_to_json is also a standalone fixture format).
inline constexpr int kFleetJsonVersion = 1;

template <class V, Is<place::FleetNode> N>
void fields(V& v, N& n) {
  v("name", n.name);
  v("device", n.device);
}

template <class V, Is<place::FleetSpec> F>
void fields(V& v, F& f) {
  v("version", kFleetJsonVersion, SchemaVersion{});
  v("nodes", f.nodes);
  v("net", f.net, Inline{});
  v("strategy", f.strategy,
    Named{place::placement_strategy_name,
          place::PlacementStrategy::kRoundRobin});
}

template <class V, Is<PlanRequest::SearchLimits> L>
void fields(V& v, L& l) {
  v("deadline", l.deadline);
  v("max_candidates", l.max_candidates);
}

template <class V, Is<PlanRequest> R>
void fields(V& v, R& r) {
  v("version", kRequestJsonVersion, SchemaVersion{});
  v("model", r.model);
  v("device", r.device);
  v("planner", r.planner);
  v("optimizer", r.optimizer);
  v("distributed", r.distributed);
  v("fleet", r.fleet);
  // Shapes only the PlanError of a failed search, never the plan.
  v("probe_feasible_batch", r.probe_feasible_batch, Unkeyed{});
  // Patience, not content: a limit decides whether the deterministic
  // search finishes, never what it produces (DESIGN.md §11).
  v("limits", r.limits, Unkeyed{});
}

// ---------------------------------------------------------------------------
// Plan-side field lists: the plan artifact, its fleet placement and the
// PlanError envelope (DESIGN.md §8, §16).
// ---------------------------------------------------------------------------

template <class V, Is<sim::BlockCost> C>
void fields(V& v, C& c) {
  v("fwd_time", c.fwd_time);
  v("bwd_time", c.bwd_time);
  v("act_bytes", c.act_bytes);
  v("boundary_bytes", c.boundary_bytes);
  v("param_bytes", c.param_bytes);
  v("grad_bytes", c.grad_bytes);
}

/// A StorageHierarchy travels as the array of its tiers and is rebuilt
/// through its constructor, which checks their order and capacities.
template <class V, Is<tier::TierSpec> T>
void fields(V& v, T& t) {
  v("tier", t.tier, Named{tier::tier_name, tier::Tier::kNvme});
  v("capacity", t.capacity);
  v("read_bw", t.read_bw);
  v("write_bw", t.write_bw);
  v("latency", t.latency);
}

template <class V, Is<sim::Op> O>
void fields(V& v, O& op) {
  v("kind", op.kind, Named{sim::op_kind_name, sim::OpKind::kDeviceUpdate});
  v("block", op.block);
  v("tier", op.tier, Named{tier::tier_name, tier::Tier::kNvme});
  v("residency", op.residency,
    Named{tier::residency_name, tier::Residency::kOptimizerState});
  v("bytes", op.bytes);
  v("alloc", op.alloc);
  v("free", op.free);
  v("duration", op.duration);
  v("retains", op.retains);
  v("iteration", op.iteration);
  v("after_op", op.after_op);
}

template <class V, Is<sim::Plan> P>
void fields(V& v, P& p) {
  v("strategy", p.strategy);
  v("capacity", p.capacity);
  v("baseline_resident", p.baseline_resident);
  v("host_baseline_resident", p.host_baseline_resident);
  v("blocks", p.blocks);
  v("costs", p.costs);
  v("hierarchy", p.hierarchy);
  v("ops", p.ops);
  v("stage_of", p.stage_of);
}

/// An ExchangePlan travels as the array of its phases.
template <class V, Is<net::ExchangePhase> E>
void fields(V& v, E& e) {
  v("launch_after_block", e.launch_after_block);
  v("blocks", e.blocks);
  v("bytes", e.bytes);
  v("allreduce_time", e.allreduce_time);
}

/// Placement artifact schema version, independent of the plan schema
/// (placement_to_json is also a standalone fixture format).
inline constexpr int kPlacementJsonVersion = 1;

template <class V, Is<place::NodeSummary> N>
void fields(V& v, N& n) {
  v("name", n.name);
  v("device_name", n.device_name);
  v("owned_blocks", n.owned_blocks);
  v("owned_param_bytes", n.owned_param_bytes);
  v("owned_grad_bytes", n.owned_grad_bytes);
  v("reserved_host_bytes", n.reserved_host_bytes);
  v("plan_iteration_time", n.plan_iteration_time);
  v("exchange_tail", n.exchange_tail);
  v("update_time", n.update_time);
  v("total_time", n.total_time);
  v("warm_started", n.warm_started);
}

template <class V, Is<place::PlacementPlan> P>
void fields(V& v, P& p) {
  v("version", kPlacementJsonVersion, SchemaVersion{});
  v("strategy", p.strategy,
    Named{place::placement_strategy_name,
          place::PlacementStrategy::kRoundRobin});
  v("blocks", p.blocks);
  v("owner", p.owner);
  v("nodes", p.nodes);
  v("straggler", p.straggler);
  v("iteration_time", p.iteration_time);
}

template <class V, Is<Plan> P>
void fields(V& v, P& p) {
  v("version", kPlanJsonVersion, SchemaVersion{});
  v("model", Group{[&](auto& g) {
      g("name", p.model_name);
      g("batch", p.batch);
      g("layers", p.model_layers);
    }});
  v("device", p.device);
  v("schedule", p.schedule);
  v("policies", p.policies,
    Named{core::block_policy_name, core::BlockPolicy::kSwapNvme});
  // Only the trace's scalar metrics travel; simulate() regenerates the
  // per-op records deterministically.
  v("metrics", Group{[&](auto& g) {
      g("iteration_time", p.iteration_time);
      g("first_iteration_time", p.first_iteration_time);
      g("occupancy", p.occupancy);
      g("makespan", p.trace.makespan);
      g("peak_resident", p.trace.peak_resident);
      g("peak_host_resident", p.trace.peak_host_resident);
      g("peak_nvme_resident", p.trace.peak_nvme_resident);
    }});
  v("reserved_host_bytes", p.reserved_host_bytes);
  v("distributed", p.distributed);
  v("weights_resident", p.weights_resident);
  v("exchange", p.exchange);
  // Trailing and absent for every non-fleet plan, so those keep their
  // exact v2 bytes (cache entries, goldens).
  v("fleet", p.placement, IfNotDefault{});
}

template <class V, Is<TierDeficit> D>
void fields(V& v, D& d) {
  v("tier", d.tier, Named{tier::tier_name, tier::Tier::kNvme});
  v("required", d.required);
  v("capacity", d.capacity);
}

template <class V, Is<PlanError> E>
void fields(V& v, E& e) {
  v("code", e.code, Named{plan_error_code_name, PlanErrorCode::kUnavailable});
  v("message", e.message);
  v("model", e.model);
  v("device", e.device);
  v("violating_layer", e.violating_layer);
  v("violating_block", e.violating_block);
  v("deficits", e.deficits);
  v("nearest_feasible_batch", e.nearest_feasible_batch);
  v("probe_candidates", e.probe_candidates);
  v("probe_cache_hits", e.probe_cache_hits);
  v("from_negative_cache", e.from_negative_cache);
  v("retry_after", e.retry_after);
  // A nested plan object: the same bytes as the plan's own to_json().
  v("partial", e.partial);
}

/// The cross-field checks a reader runs once an artifact's own fields are
/// read (src/api/plan_io.cpp). Each throws std::runtime_error naming the
/// broken invariant; every other type has none.
void after_read(const Plan& plan);
void after_read(const place::PlacementPlan& placement);
template <class T>
void after_read(const T&) {}

// ---------------------------------------------------------------------------
// JSON sinks.
// ---------------------------------------------------------------------------

/// Writes a field list as the members of the JSON object being written.
class JsonOut {
 public:
  explicit JsonOut(util::json::Writer& w) : w_(w) {}

  template <class T>
  void operator()(const char* key, const T& x) {
    w_.key(key);
    put(x);
  }
  template <class T>
  void operator()(const char* key, const T& x, Unkeyed) {
    (*this)(key, x);
  }
  void operator()(const char* key, int x, SchemaVersion) { (*this)(key, x); }
  template <class T>
  void operator()(const char*, const T& x, Inline) {
    fields(*this, x);
  }
  template <class T>
  void operator()(const char* key, const T& x, IfNotDefault) {
    if (!(x == T{})) (*this)(key, x);
  }
  template <class T>
  void operator()(const char* key, const std::optional<T>& x, IfNotDefault) {
    if (x) (*this)(key, *x);
  }
  template <class F>
  void operator()(const char* key, const Group<F>& group) {
    w_.key(key);
    w_.begin_object();
    group.members(*this);
    w_.end_object();
  }
  template <class E>
  void operator()(const char* key, E x, Named<E> tag) {
    w_.key(key);
    w_.value(tag.name(x));
  }
  template <class E>
  void operator()(const char* key, const std::vector<E>& xs, Named<E> tag) {
    w_.key(key);
    w_.begin_array();
    for (const E x : xs) w_.value(tag.name(x));
    w_.end_array();
  }
  template <class E>
  void operator()(const char* key, E x, Coded<E>) {
    w_.key(key);
    w_.value(static_cast<int>(x));
  }
  void operator()(const char* key, std::uint64_t x, DecimalText) {
    char digits[24];
    const auto end = std::to_chars(digits, digits + sizeof digits, x).ptr;
    w_.key(key);
    w_.value(std::string_view(digits, static_cast<std::size_t>(end - digits)));
  }

  void put(const std::string& s) { w_.value(std::string_view(s)); }
  void put(bool b) { w_.value(b); }
  void put(int x) { w_.value(x); }
  void put(std::int64_t x) { w_.value(x); }
  /// Counters: JSON integers here are int64.
  void put(std::uint64_t x) { w_.value(static_cast<std::int64_t>(x)); }
  void put(double x) { w_.value(x); }
  void put(const RawJson& json) { w_.raw(json.text); }
  /// A request written in place from the caller's object.
  void put(const PlanRequest* request) { put(*request); }
  void put(const graph::TensorShape& shape) { put(shape.dims()); }
  void put(const SkipEdges& skips) {
    w_.begin_array();
    skips.for_each(
        [&](int from, int to) { put(std::array<int, 2>{from, to}); });
    w_.end_array();
  }
  void put(const tier::StorageHierarchy& h) { put(h.tiers()); }
  void put(const net::ExchangePlan& e) { put(e.phases); }
  template <class T>
  void put(const std::vector<T>& xs) {
    w_.begin_array();
    for (const T& x : xs) put(x);
    w_.end_array();
  }
  template <class T>
  void put(const std::optional<T>& x) {
    if (x) put(*x);
    else w_.null();
  }
  template <class T>
  void put(const std::shared_ptr<const T>& x) {
    if (x) put(*x);
    else w_.null();
  }
  /// Any other type is a pair, or else an object of its own field list.
  template <class T>
  void put(const T& x) {
    if constexpr (requires { pair_of(x); }) {
      const auto [first, second] = pair_of(x);
      w_.begin_array();
      put(first);
      put(second);
      w_.end_array();
    } else {
      w_.begin_object();
      fields(*this, x);
      w_.end_object();
    }
  }

 private:
  util::json::Writer& w_;
};

/// Reads a field list from the members of a parsed JSON object. A field of
/// the wrong JSON type is an error, never a default. Throws
/// std::runtime_error (or the std::invalid_argument of a bad shape or
/// hierarchy, or the std::logic_error of Model::validate) on malformed
/// input; each entry point maps that to its own structured PlanError.
/// `source` is the text the DOM was parsed from; only RawJson members need
/// it.
class JsonIn {
 public:
  explicit JsonIn(const util::json::Value& object,
                  std::string_view source = {})
      : object_(object), source_(source) {}

  template <class T>
  void operator()(const char* key, T& x) {
    get(object_.at(key), x, key);
  }
  template <class T>
  void operator()(const char* key, T& x, Unkeyed) {
    (*this)(key, x);
  }
  void operator()(const char* key, const int& expected, SchemaVersion) {
    const std::int64_t version = object_.at(key).as_int();
    if (version != expected)
      throw std::runtime_error("unsupported schema version " +
                               std::to_string(version));
  }
  template <class T>
  void operator()(const char*, T& x, Inline) {
    fields(*this, x);
  }
  template <class T>
  void operator()(const char* key, T& x, IfNotDefault) {
    if (object_.has(key)) (*this)(key, x);
  }
  template <class T>
  void operator()(const char* key, std::optional<T>& x, IfNotDefault) {
    if (object_.has(key)) (*this)(key, x.emplace());
  }
  template <class F>
  void operator()(const char* key, Group<F> group) {
    JsonIn in(object_.at(key), source_);
    group.members(in);
  }
  template <class E>
  void operator()(const char* key, E& x, Named<E> tag) {
    x = named(object_.at(key), tag, key);
  }
  template <class E>
  void operator()(const char* key, std::vector<E>& xs, Named<E> tag) {
    xs.clear();
    for (const auto& element : object_.at(key).as_array())
      xs.push_back(named(element, tag, key));
  }
  template <class E>
  void operator()(const char* key, E& x, Coded<E> tag) {
    const int i = util::json::as_int32(object_.at(key), key);
    if (i < 0 || i > static_cast<int>(tag.last))
      throw std::runtime_error(std::string(key) + " out of range");
    x = static_cast<E>(i);
  }
  void operator()(const char* key, std::uint64_t& x, DecimalText) {
    // Unsigned decimal digits only: from_chars takes no sign, space or
    // base prefix for an unsigned type, and reports overflow.
    const std::string_view s = object_.at(key).as_string();
    const char* end = s.data() + s.size();
    const auto [stop, ec] = std::from_chars(s.data(), end, x);
    if (ec != std::errc() || stop != end)
      throw std::runtime_error("bad " + std::string(key) + " '" +
                               std::string(s) + "'");
  }

  /// Reads `x` from `v`, one object of its field list, then runs its
  /// cross-field checks.
  template <class T>
  static void read(const util::json::Value& v, T& x,
                   std::string_view source = {}) {
    JsonIn in(v, source);
    fields(in, x);
    after_read(x);
  }

 private:
  template <class E>
  static E named(const util::json::Value& v, Named<E> tag, const char* key) {
    return util::enum_from_name(v.as_string(), tag.name, tag.last, key);
  }

  void get(const util::json::Value& v, graph::TensorShape& shape,
           const char*) {
    std::vector<std::int64_t> dims;
    for (const auto& d : v.as_array()) dims.push_back(d.as_int());
    shape = dims.empty() ? graph::TensorShape()
                         : graph::TensorShape(std::move(dims));
  }
  void get(const util::json::Value& v, tier::StorageHierarchy& h,
           const char* key) {
    std::vector<tier::TierSpec> tiers;
    get(v, tiers, key);
    h = tier::StorageHierarchy(std::move(tiers));
  }
  void get(const util::json::Value& v, net::ExchangePlan& e,
           const char* key) {
    get(v, e.phases, key);
  }
  void get(const util::json::Value& v, RawJson& json, const char*) {
    json = {v.span(source_), &v};
  }
  template <class T>
  void get(const util::json::Value& v, std::vector<T>& xs, const char* key) {
    const auto& elements = v.as_array();
    xs.clear();
    xs.reserve(elements.size());
    for (const auto& element : elements) get(element, xs.emplace_back(), key);
  }
  template <class T>
  void get(const util::json::Value& v, std::optional<T>& x, const char* key) {
    if (v.is_null()) x.reset();
    else get(v, x.emplace(), key);
  }
  template <class T>
  void get(const util::json::Value& v, std::shared_ptr<const T>& x,
           const char* key) {
    if (v.is_null()) {
      x.reset();
    } else {
      auto value = std::make_shared<T>();
      get(v, *value, key);
      x = std::move(value);
    }
  }
  /// A scalar, a pair, or else an object of its own field list.
  template <class T>
  void get(const util::json::Value& v, T& x, const char* key) {
    if constexpr (std::is_same_v<T, std::string>) x = v.as_string();
    else if constexpr (std::is_same_v<T, bool>) x = v.as_bool();
    else if constexpr (std::is_same_v<T, int>) x = util::json::as_int32(v, key);
    else if constexpr (std::is_same_v<T, std::int64_t>) x = v.as_int();
    else if constexpr (std::is_same_v<T, double>) x = v.as_double();
    else if constexpr (requires { pair_of(x); }) {
      const auto& items = v.as_array();
      if (items.size() != 2)
        throw std::runtime_error(std::string(key) + ": expected a pair");
      auto [first, second] = pair_of(x);
      get(items[0], first, key);
      get(items[1], second, key);
    } else {
      read(v, x, source_);
    }
  }

  const util::json::Value& object_;
  std::string_view source_;
};

/// `x` as JSON text: one object of its field list.
template <class T>
std::string write_json(const T& x) {
  util::json::Writer w;
  JsonOut(w).put(x);
  return w.take();
}

/// A PlanError{kParseError} naming the reader that failed and why.
inline PlanError parse_error(const char* reader, const std::string& why) {
  PlanError e;
  e.code = PlanErrorCode::kParseError;
  e.message = std::string(reader) + ": " + why;
  return e;
}

/// Reads `json` (text, or a node already parsed) as one object of T's
/// field list; any failure is a parse_error naming `reader`.
template <class T, class Json>
Expected<T, PlanError> read_json(const Json& json, const char* reader) {
  try {
    T x;
    if constexpr (std::is_base_of_v<util::json::Value, Json>)
      JsonIn::read(json, x);
    else
      JsonIn::read(util::json::parse(json), x);
    return x;
  } catch (const std::exception& ex) {
    return parse_error(reader, ex.what());
  }
}

}  // namespace karma::api
