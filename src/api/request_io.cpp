#include "src/api/request_io.h"

#include <stdexcept>

#include "src/api/plan_io.h"
#include "src/api/request_fields.h"
#include "src/util/enum_names.h"
#include "src/util/json.h"

namespace karma::api {
namespace {

using util::json::Value;
using util::json::Writer;
using util::json::as_int32;

PlanError parse_fail(const char* who, const std::string& why) {
  PlanError e;
  e.code = PlanErrorCode::kParseError;
  e.message = std::string(who) + ": " + why;
  return e;
}

}  // namespace

std::string request_to_json(const PlanRequest& request) {
  Writer w;
  w.begin_object();
  w.key("version"); w.value(kRequestJsonVersion);
  JsonOut out(w);
  fields(out, request);
  w.end_object();
  return w.take();
}

Expected<PlanRequest, PlanError> request_from_json(std::string_view json) {
  try {
    Value root = util::json::parse(json);
    const std::int64_t version = root.at("version").as_int();
    if (version != 1 && version != kRequestJsonVersion)
      return parse_fail("request_from_json", "unsupported schema version " +
                                                 std::to_string(version));
    // v1 (pre-fleet) payloads stay readable: they simply carry no fleet.
    if (version == 1) root.object["fleet"] = Value{};
    PlanRequest request;
    JsonIn in(root);
    fields(in, request);
    return request;
  } catch (const std::exception& ex) {
    return parse_fail("request_from_json", ex.what());
  }
}

std::string error_to_json(const PlanError& error) {
  Writer w;
  w.begin_object();
  w.key("code"); w.value(plan_error_code_name(error.code));
  w.key("message"); w.value(error.message);
  w.key("model"); w.value(error.model);
  w.key("device"); w.value(error.device);
  w.key("violating_layer"); w.value(error.violating_layer);
  w.key("violating_block"); w.value(error.violating_block);
  w.key("deficits");
  w.begin_array();
  for (const auto& d : error.deficits) {
    w.begin_object();
    w.key("tier"); w.value(tier::tier_name(d.tier));
    w.key("required"); w.value(d.required);
    w.key("capacity"); w.value(d.capacity);
    w.end_object();
  }
  w.end_array();
  w.key("nearest_feasible_batch"); w.value(error.nearest_feasible_batch);
  w.key("probe_candidates"); w.value(error.probe_candidates);
  w.key("probe_cache_hits"); w.value(error.probe_cache_hits);
  w.key("from_negative_cache"); w.value(error.from_negative_cache);
  w.key("retry_after"); w.value(error.retry_after);
  w.key("partial");
  // Spliced verbatim so the embedded artifact is byte-identical to the
  // plan's standalone to_json() — the cross-process byte-stability the
  // storm test asserts extends to error payloads.
  if (error.partial) w.raw(plan_to_json(*error.partial));
  else w.null();
  w.end_object();
  return w.take();
}

std::string fleet_to_json(const place::FleetSpec& fleet) {
  Writer w;
  write_object(w, fleet);
  return w.take();
}

place::FleetSpec fleet_from_json(std::string_view json) {
  place::FleetSpec fleet;
  read_object(util::json::parse(json), fleet);
  return fleet;
}

PlanError error_from_json(std::string_view json) {
  try {
    const Value root = util::json::parse(json);
    PlanError error;
    error.code = util::enum_from_name(
        root.at("code").as_string(), plan_error_code_name,
        PlanErrorCode::kUnavailable, "error code");
    error.message = root.at("message").as_string();
    error.model = root.at("model").as_string();
    error.device = root.at("device").as_string();
    error.violating_layer =
        as_int32(root.at("violating_layer"), "violating_layer");
    error.violating_block =
        as_int32(root.at("violating_block"), "violating_block");
    for (const auto& dv : root.at("deficits").as_array()) {
      TierDeficit d;
      d.tier = util::enum_from_name(dv.at("tier").as_string(),
                                    tier::tier_name, tier::Tier::kNvme,
                                    "tier");
      d.required = dv.at("required").as_int();
      d.capacity = dv.at("capacity").as_int();
      error.deficits.push_back(d);
    }
    error.nearest_feasible_batch = root.at("nearest_feasible_batch").as_int();
    error.probe_candidates =
        as_int32(root.at("probe_candidates"), "probe_candidates");
    error.probe_cache_hits =
        as_int32(root.at("probe_cache_hits"), "probe_cache_hits");
    error.from_negative_cache = root.at("from_negative_cache").as_bool();
    error.retry_after = root.at("retry_after").as_double();
    const Value& partial = root.at("partial");
    if (!partial.is_null()) {
      // The plan reader wants the artifact's exact text, not a DOM — the
      // parser's source spans recover it from the envelope verbatim.
      auto plan = plan_from_json(partial.span(json));
      if (!plan)
        return parse_fail("error_from_json",
                          "bad partial plan: " + plan.error().message);
      error.partial = std::make_shared<const Plan>(std::move(plan).value());
    }
    return error;
  } catch (const std::exception& ex) {
    return parse_fail("error_from_json", ex.what());
  }
}

}  // namespace karma::api
