#include "src/api/plan_io.h"

#include <stdexcept>

#include "src/api/request_fields.h"
#include "src/api/session.h"
#include "src/util/enum_names.h"
#include "src/util/json.h"

namespace karma::api {

namespace {

using util::json::Value;
using util::json::Writer;
using util::json::as_int32;

// Enums travel as their display names; the readers map them back with
// util::enum_from_name.

tier::Tier tier_from(const std::string& s) {
  return util::enum_from_name(s, tier::tier_name, tier::Tier::kNvme, "tier");
}

// ---------------------------------------------------------------------------
// Component writers / readers.
// ---------------------------------------------------------------------------

void write_hierarchy(Writer& w, const tier::StorageHierarchy& h) {
  w.begin_array();
  for (const auto& t : h.tiers()) {
    w.begin_object();
    w.key("tier"); w.value(tier::tier_name(t.tier));
    w.key("capacity"); w.value(t.capacity);
    w.key("read_bw"); w.value(t.read_bw);
    w.key("write_bw"); w.value(t.write_bw);
    w.key("latency"); w.value(t.latency);
    w.end_object();
  }
  w.end_array();
}

tier::StorageHierarchy read_hierarchy(const Value& v) {
  std::vector<tier::TierSpec> tiers;
  for (const auto& tv : v.array) {
    tier::TierSpec t;
    t.tier = tier_from(tv.at("tier").as_string());
    t.capacity = tv.at("capacity").as_int();
    t.read_bw = tv.at("read_bw").as_double();
    t.write_bw = tv.at("write_bw").as_double();
    t.latency = tv.at("latency").as_double();
    tiers.push_back(t);
  }
  return tier::StorageHierarchy(std::move(tiers));
}

void write_schedule(Writer& w, const sim::Plan& p) {
  w.begin_object();
  w.key("strategy"); w.value(p.strategy);
  w.key("capacity"); w.value(p.capacity);
  w.key("baseline_resident"); w.value(p.baseline_resident);
  w.key("host_baseline_resident"); w.value(p.host_baseline_resident);
  w.key("blocks");
  w.begin_array();
  for (const auto& b : p.blocks) {
    w.begin_array();
    w.value(b.first_layer);
    w.value(b.last_layer);
    w.end_array();
  }
  w.end_array();
  w.key("costs");
  w.begin_array();
  for (const auto& c : p.costs) {
    w.begin_object();
    w.key("fwd_time"); w.value(c.fwd_time);
    w.key("bwd_time"); w.value(c.bwd_time);
    w.key("act_bytes"); w.value(c.act_bytes);
    w.key("boundary_bytes"); w.value(c.boundary_bytes);
    w.key("param_bytes"); w.value(c.param_bytes);
    w.key("grad_bytes"); w.value(c.grad_bytes);
    w.end_object();
  }
  w.end_array();
  w.key("hierarchy");
  if (p.hierarchy) write_hierarchy(w, *p.hierarchy);
  else w.null();
  w.key("ops");
  w.begin_array();
  for (const auto& op : p.ops) {
    w.begin_object();
    w.key("kind"); w.value(sim::op_kind_name(op.kind));
    w.key("block"); w.value(op.block);
    w.key("tier"); w.value(tier::tier_name(op.tier));
    w.key("residency"); w.value(tier::residency_name(op.residency));
    w.key("bytes"); w.value(op.bytes);
    w.key("alloc"); w.value(op.alloc);
    w.key("free"); w.value(op.free);
    w.key("duration"); w.value(op.duration);
    w.key("retains"); w.value(op.retains);
    w.key("iteration"); w.value(op.iteration);
    w.key("after_op"); w.value(op.after_op);
    w.end_object();
  }
  w.end_array();
  w.key("stage_of");
  w.begin_array();
  for (const int s : p.stage_of) w.value(s);
  w.end_array();
  w.end_object();
}

sim::Plan read_schedule(const Value& v) {
  sim::Plan p;
  p.strategy = v.at("strategy").as_string();
  p.capacity = v.at("capacity").as_int();
  p.baseline_resident = v.at("baseline_resident").as_int();
  p.host_baseline_resident = v.at("host_baseline_resident").as_int();
  for (const auto& bv : v.at("blocks").array) {
    if (bv.array.size() != 2) throw std::runtime_error("bad block range");
    sim::Block b;
    b.first_layer = as_int32(bv.array[0], "block.first_layer");
    b.last_layer = as_int32(bv.array[1], "block.last_layer");
    p.blocks.push_back(b);
  }
  for (const auto& cv : v.at("costs").array) {
    sim::BlockCost c;
    c.fwd_time = cv.at("fwd_time").as_double();
    c.bwd_time = cv.at("bwd_time").as_double();
    c.act_bytes = cv.at("act_bytes").as_int();
    c.boundary_bytes = cv.at("boundary_bytes").as_int();
    c.param_bytes = cv.at("param_bytes").as_int();
    c.grad_bytes = cv.at("grad_bytes").as_int();
    p.costs.push_back(c);
  }
  if (v.at("hierarchy").type == Value::Type::kArray)
    p.hierarchy = read_hierarchy(v.at("hierarchy"));
  for (const auto& ov : v.at("ops").array) {
    sim::Op op;
    op.kind = util::enum_from_name(ov.at("kind").as_string(),
                                   sim::op_kind_name,
                                   sim::OpKind::kDeviceUpdate, "op kind");
    op.block = as_int32(ov.at("block"), "op.block");
    op.tier = tier_from(ov.at("tier").as_string());
    op.residency = util::enum_from_name(
        ov.at("residency").as_string(), tier::residency_name,
        tier::Residency::kOptimizerState, "residency");
    op.bytes = ov.at("bytes").as_int();
    op.alloc = ov.at("alloc").as_int();
    op.free = ov.at("free").as_int();
    op.duration = ov.at("duration").as_double();
    op.retains = ov.at("retains").as_bool();
    op.iteration = as_int32(ov.at("iteration"), "op.iteration");
    op.after_op = as_int32(ov.at("after_op"), "op.after_op");
    p.ops.push_back(op);
  }
  for (const auto& sv : v.at("stage_of").array)
    p.stage_of.push_back(as_int32(sv, "stage_of"));
  return p;
}

void write_exchange(Writer& w, const net::ExchangePlan& e) {
  w.begin_array();
  for (const auto& phase : e.phases) {
    w.begin_object();
    w.key("launch_after_block"); w.value(phase.launch_after_block);
    w.key("blocks");
    w.begin_array();
    for (const int b : phase.blocks) w.value(b);
    w.end_array();
    w.key("bytes"); w.value(phase.bytes);
    w.key("allreduce_time"); w.value(phase.allreduce_time);
    w.end_object();
  }
  w.end_array();
}

/// Placement artifact schema version (DESIGN.md §16). Independent of the
/// plan schema so the fixture format can evolve on its own.
constexpr int kPlacementJsonVersion = 1;

void write_placement(Writer& w, const place::PlacementPlan& p) {
  w.begin_object();
  w.key("version"); w.value(kPlacementJsonVersion);
  w.key("strategy"); w.value(place::placement_strategy_name(p.strategy));
  w.key("blocks");
  w.begin_array();
  for (const auto& b : p.blocks) {
    w.begin_array();
    w.value(b.first_layer);
    w.value(b.last_layer);
    w.end_array();
  }
  w.end_array();
  w.key("owner");
  w.begin_array();
  for (const int n : p.owner) w.value(n);
  w.end_array();
  w.key("nodes");
  w.begin_array();
  for (const auto& n : p.nodes) {
    w.begin_object();
    w.key("name"); w.value(n.name);
    w.key("device_name"); w.value(n.device_name);
    w.key("owned_blocks"); w.value(n.owned_blocks);
    w.key("owned_param_bytes"); w.value(n.owned_param_bytes);
    w.key("owned_grad_bytes"); w.value(n.owned_grad_bytes);
    w.key("reserved_host_bytes"); w.value(n.reserved_host_bytes);
    w.key("plan_iteration_time"); w.value(n.plan_iteration_time);
    w.key("exchange_tail"); w.value(n.exchange_tail);
    w.key("update_time"); w.value(n.update_time);
    w.key("total_time"); w.value(n.total_time);
    w.key("warm_started"); w.value(n.warm_started);
    w.end_object();
  }
  w.end_array();
  w.key("straggler"); w.value(p.straggler);
  w.key("iteration_time"); w.value(p.iteration_time);
  w.end_object();
}

place::PlacementPlan read_placement(const Value& v) {
  const std::int64_t version = v.at("version").as_int();
  if (version != kPlacementJsonVersion)
    throw std::runtime_error("unsupported placement schema version " +
                             std::to_string(version));
  place::PlacementPlan p;
  p.strategy = util::enum_from_name(
      v.at("strategy").as_string(), place::placement_strategy_name,
      place::PlacementStrategy::kRoundRobin, "placement strategy");
  for (const auto& bv : v.at("blocks").array) {
    if (bv.array.size() != 2)
      throw std::runtime_error("bad placement block range");
    sim::Block b;
    b.first_layer = as_int32(bv.array[0], "placement.block.first_layer");
    b.last_layer = as_int32(bv.array[1], "placement.block.last_layer");
    p.blocks.push_back(b);
  }
  for (const auto& ov : v.at("owner").array)
    p.owner.push_back(as_int32(ov, "placement.owner"));
  if (p.owner.size() != p.blocks.size())
    throw std::runtime_error("placement owner/blocks length mismatch");
  for (const auto& nv : v.at("nodes").array) {
    place::NodeSummary n;
    n.name = nv.at("name").as_string();
    n.device_name = nv.at("device_name").as_string();
    n.owned_blocks = as_int32(nv.at("owned_blocks"), "node.owned_blocks");
    n.owned_param_bytes = nv.at("owned_param_bytes").as_int();
    n.owned_grad_bytes = nv.at("owned_grad_bytes").as_int();
    n.reserved_host_bytes = nv.at("reserved_host_bytes").as_int();
    n.plan_iteration_time = nv.at("plan_iteration_time").as_double();
    n.exchange_tail = nv.at("exchange_tail").as_double();
    n.update_time = nv.at("update_time").as_double();
    n.total_time = nv.at("total_time").as_double();
    n.warm_started = nv.at("warm_started").as_bool();
    p.nodes.push_back(std::move(n));
  }
  p.straggler = as_int32(v.at("straggler"), "placement.straggler");
  p.iteration_time = v.at("iteration_time").as_double();
  const int num_nodes = static_cast<int>(p.nodes.size());
  for (const int owner : p.owner)
    if (owner < 0 || owner >= num_nodes)
      throw std::runtime_error("placement owner index out of range");
  if (p.straggler < -1 || p.straggler >= num_nodes)
    throw std::runtime_error("placement straggler index out of range");
  return p;
}

net::ExchangePlan read_exchange(const Value& v) {
  net::ExchangePlan e;
  for (const auto& pv : v.array) {
    net::ExchangePhase phase;
    phase.launch_after_block =
        as_int32(pv.at("launch_after_block"), "phase.launch_after_block");
    for (const auto& bv : pv.at("blocks").array)
      phase.blocks.push_back(as_int32(bv, "phase.block"));
    phase.bytes = pv.at("bytes").as_int();
    phase.allreduce_time = pv.at("allreduce_time").as_double();
    e.phases.push_back(std::move(phase));
  }
  return e;
}

}  // namespace

std::string plan_to_json(const Plan& plan) {
  Writer w;
  w.begin_object();
  w.key("version"); w.value(kPlanJsonVersion);
  w.key("model");
  w.begin_object();
  w.key("name"); w.value(plan.model_name);
  w.key("batch"); w.value(plan.batch);
  w.key("layers"); w.value(plan.model_layers);
  w.end_object();
  w.key("device");
  write_object(w, plan.device);
  w.key("schedule");
  write_schedule(w, plan.schedule);
  w.key("policies");
  w.begin_array();
  for (const auto p : plan.policies) w.value(core::block_policy_name(p));
  w.end_array();
  w.key("metrics");
  w.begin_object();
  w.key("iteration_time"); w.value(plan.iteration_time);
  w.key("first_iteration_time"); w.value(plan.first_iteration_time);
  w.key("occupancy"); w.value(plan.occupancy);
  w.key("makespan"); w.value(plan.trace.makespan);
  w.key("peak_resident"); w.value(plan.trace.peak_resident);
  w.key("peak_host_resident"); w.value(plan.trace.peak_host_resident);
  w.key("peak_nvme_resident"); w.value(plan.trace.peak_nvme_resident);
  w.end_object();
  w.key("reserved_host_bytes"); w.value(plan.reserved_host_bytes);
  w.key("distributed"); w.value(plan.distributed);
  w.key("weights_resident"); w.value(plan.weights_resident);
  w.key("exchange");
  if (plan.exchange) write_exchange(w, *plan.exchange);
  else w.null();
  // Trailing and conditional: non-fleet artifacts keep their exact v2
  // bytes (cache entries, goldens).
  if (plan.placement) {
    w.key("fleet");
    write_placement(w, *plan.placement);
  }
  w.end_object();
  return w.take();
}

Expected<Plan, PlanError> plan_from_json(std::string_view json) {
  const auto fail = [](const std::string& why) {
    PlanError e;
    e.code = PlanErrorCode::kParseError;
    e.message = "plan_from_json: " + why;
    return e;
  };
  try {
    const Value root = util::json::parse(json);
    const std::int64_t version = root.at("version").as_int();
    if (version != kPlanJsonVersion)
      return fail("unsupported schema version " + std::to_string(version));

    Plan plan;
    const Value& model = root.at("model");
    plan.model_name = model.at("name").as_string();
    plan.batch = model.at("batch").as_int();
    plan.model_layers = model.at("layers").as_int();
    read_object(root.at("device"), plan.device);
    plan.schedule = read_schedule(root.at("schedule"));
    for (const auto& pv : root.at("policies").array)
      plan.policies.push_back(
          util::enum_from_name(pv.as_string(), core::block_policy_name,
                               core::BlockPolicy::kSwapNvme, "policy"));
    if (plan.policies.size() != plan.schedule.blocks.size())
      return fail("policies/blocks length mismatch");
    // Structural validation: a parseable-but-corrupt artifact must not
    // reach the engine, which indexes costs/ops by these fields.
    if (plan.schedule.costs.size() != plan.schedule.blocks.size())
      return fail("costs/blocks length mismatch");
    if (!plan.schedule.stage_of.empty() &&
        plan.schedule.stage_of.size() != plan.schedule.ops.size())
      return fail("stage_of/ops length mismatch");
    const int num_blocks = static_cast<int>(plan.schedule.blocks.size());
    const int num_ops = static_cast<int>(plan.schedule.ops.size());
    for (int i = 0; i < num_ops; ++i) {
      const sim::Op& op = plan.schedule.ops[static_cast<std::size_t>(i)];
      if (op.block < 0 || op.block >= num_blocks)
        return fail("op " + std::to_string(i) + " block index out of range");
      if (op.after_op < -1 || op.after_op >= num_ops)
        return fail("op " + std::to_string(i) + " after_op out of range");
    }
    if (plan.model_layers < 0) return fail("negative model layer count");
    for (int b = 0; b < num_blocks; ++b) {
      const sim::Block& blk = plan.schedule.blocks[static_cast<std::size_t>(b)];
      if (blk.first_layer < 0 || blk.last_layer <= blk.first_layer)
        return fail("block " + std::to_string(b) + " has an invalid range");
      if (plan.model_layers > 0 && blk.last_layer > plan.model_layers)
        return fail("block " + std::to_string(b) +
                    " exceeds the model layer count");
    }
    const Value& metrics = root.at("metrics");
    plan.iteration_time = metrics.at("iteration_time").as_double();
    plan.first_iteration_time = metrics.at("first_iteration_time").as_double();
    plan.occupancy = metrics.at("occupancy").as_double();
    plan.trace.makespan = metrics.at("makespan").as_double();
    plan.trace.peak_resident = metrics.at("peak_resident").as_int();
    plan.trace.peak_host_resident = metrics.at("peak_host_resident").as_int();
    plan.trace.peak_nvme_resident = metrics.at("peak_nvme_resident").as_int();
    plan.reserved_host_bytes = root.at("reserved_host_bytes").as_int();
    plan.distributed = root.at("distributed").as_bool();
    plan.weights_resident = root.at("weights_resident").as_bool();
    if (root.at("exchange").type == Value::Type::kArray)
      plan.exchange = read_exchange(root.at("exchange"));
    if (root.has("fleet")) plan.placement = read_placement(root.at("fleet"));
    return plan;
  } catch (const std::exception& ex) {
    return fail(ex.what());
  }
}

std::string placement_to_json(const place::PlacementPlan& placement) {
  Writer w;
  write_placement(w, placement);
  return w.take();
}

place::PlacementPlan placement_from_json(std::string_view json) {
  return read_placement(util::json::parse(json));
}

}  // namespace karma::api
