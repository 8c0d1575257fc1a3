// Plan artifact serialization (DESIGN.md §8: JSON schema).
//
// A Plan round-trips through JSON deterministically: keys are emitted in a
// fixed order, integers exactly, and doubles with 17 significant digits
// (enough to reproduce every IEEE-754 double bit-exactly), so
//   from_json(to_json(p)).simulate().makespan == p.simulate().makespan
// holds to the last bit. That makes the artifact usable as a cache key and
// as a golden fixture format: any schema or planner-output drift shows up
// as a textual diff.
//
// The writer and the reader are derived from one field list per type
// (src/api/request_fields.h): the plan, its schedule, ops, block costs,
// storage tiers, exchange phases and fleet placement. The reader rejects
// a missing or wrong-typed field, then runs each artifact's cross-field
// checks (after_read in plan_io.cpp) before a plan can reach the engine.
// No third-party JSON dependency: the writer and parser live in
// src/util/json. The schema is versioned; readers reject versions they do
// not understand instead of misinterpreting them.
#pragma once

#include <string>
#include <string_view>

#include "src/api/errors.h"

#include "src/place/placement.h"

namespace karma::api {

struct Plan;

/// v2: ops carry a `residency` class and schedules a
/// `host_baseline_resident` pinned-shard charge (DESIGN.md §9). Fleet
/// plans add an OPTIONAL trailing "fleet" key (the placement artifact,
/// placement_to_json) — absent for every non-fleet plan, so existing
/// artifacts, goldens, and cache entries stay byte-identical.
inline constexpr int kPlanJsonVersion = 2;

/// Serializes `plan` to the versioned JSON schema. Deterministic: equal
/// plans produce byte-identical strings.
std::string plan_to_json(const Plan& plan);

/// Parses a plan artifact back. Returns PlanError{kParseError} on
/// malformed input, unknown schema versions, or structurally invalid
/// plans (e.g. policies/blocks length mismatch). Takes a view so mmap'd
/// cache entries parse in place without a copy.
Expected<Plan, PlanError> plan_from_json(std::string_view json);

/// Serializes a placement plan (the fleet half of a plan artifact, also
/// usable standalone as a golden fixture). Deterministic like
/// plan_to_json.
std::string placement_to_json(const place::PlacementPlan& placement);

/// Parses a placement artifact back. Returns PlanError{kParseError} on
/// malformed input, an unknown schema version, or an owner or straggler
/// index outside the node list.
Expected<place::PlacementPlan, PlanError> placement_from_json(
    std::string_view json);

}  // namespace karma::api
