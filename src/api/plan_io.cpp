#include "src/api/plan_io.h"

#include <stdexcept>
#include <string>

#include "src/api/request_fields.h"
#include "src/api/session.h"

namespace karma::api {

// A parseable but corrupt artifact must not reach the engine, which
// indexes costs and ops by these fields.
void after_read(const Plan& plan) {
  const sim::Plan& schedule = plan.schedule;
  const std::size_t num_blocks = schedule.blocks.size();
  if (plan.policies.size() != num_blocks)
    throw std::runtime_error("policies/blocks length mismatch");
  if (schedule.costs.size() != num_blocks)
    throw std::runtime_error("costs/blocks length mismatch");
  if (!schedule.stage_of.empty() &&
      schedule.stage_of.size() != schedule.ops.size())
    throw std::runtime_error("stage_of/ops length mismatch");
  const int num_ops = static_cast<int>(schedule.ops.size());
  for (int i = 0; i < num_ops; ++i) {
    const sim::Op& op = schedule.ops[static_cast<std::size_t>(i)];
    if (op.block < 0 || op.block >= static_cast<int>(num_blocks))
      throw std::runtime_error("op " + std::to_string(i) +
                               " block index out of range");
    if (op.after_op < -1 || op.after_op >= num_ops)
      throw std::runtime_error("op " + std::to_string(i) +
                               " after_op out of range");
  }
  if (plan.model_layers < 0)
    throw std::runtime_error("negative model layer count");
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const sim::Block& block = schedule.blocks[b];
    if (block.first_layer < 0 || block.last_layer <= block.first_layer)
      throw std::runtime_error("block " + std::to_string(b) +
                               " has an invalid range");
    if (plan.model_layers > 0 && block.last_layer > plan.model_layers)
      throw std::runtime_error("block " + std::to_string(b) +
                               " exceeds the model layer count");
  }
}

void after_read(const place::PlacementPlan& placement) {
  if (placement.owner.size() != placement.blocks.size())
    throw std::runtime_error("placement owner/blocks length mismatch");
  const int num_nodes = static_cast<int>(placement.nodes.size());
  for (const int owner : placement.owner)
    if (owner < 0 || owner >= num_nodes)
      throw std::runtime_error("placement owner index out of range");
  if (placement.straggler < -1 || placement.straggler >= num_nodes)
    throw std::runtime_error("placement straggler index out of range");
}

std::string plan_to_json(const Plan& plan) { return write_json(plan); }

Expected<Plan, PlanError> plan_from_json(std::string_view json) {
  return read_json<Plan>(json, "plan_from_json");
}

std::string placement_to_json(const place::PlacementPlan& placement) {
  return write_json(placement);
}

Expected<place::PlacementPlan, PlanError> placement_from_json(
    std::string_view json) {
  return read_json<place::PlacementPlan>(json, "placement_from_json");
}

}  // namespace karma::api
