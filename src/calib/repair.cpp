#include "src/calib/repair.h"

#include <algorithm>

namespace karma::calib {

int repair_anneal_budget(int cold_iterations) {
  return std::max(60, static_cast<int>(cold_iterations * 0.25));
}

core::PlanResult repair(const graph::Model& model,
                        const sim::DeviceSpec& device,
                        const CalibrationTable& table,
                        const std::vector<sim::Block>& seed_blocks,
                        const std::vector<core::BlockPolicy>& seed_policies,
                        const RepairOptions& options,
                        const CancelToken& control,
                        double cold_search_seconds) {
  core::PlannerOptions planner_options = options.planner;
  planner_options.anneal_iterations =
      repair_anneal_budget(planner_options.anneal_iterations);
  const core::KarmaPlanner planner(model, apply(table, device),
                                   planner_options);
  core::PlanResult result =
      planner.plan_from(seed_blocks, seed_policies, control);
  if (cold_search_seconds > 0.0 && result.search.search_seconds > 0.0)
    result.search.repair_vs_cold_speedup =
        cold_search_seconds / result.search.search_seconds;
  return result;
}

}  // namespace karma::calib
