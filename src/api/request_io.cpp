#include "src/api/request_io.h"

#include <stdexcept>

#include "src/api/request_fields.h"
#include "src/util/json.h"

namespace karma::api {

std::string request_to_json(const PlanRequest& request) {
  return write_json(request);
}

Expected<PlanRequest, PlanError> request_from_json(std::string_view json) {
  try {
    util::json::Value root = util::json::parse(json);
    // v1 (pre-fleet) payloads stay readable: a v1 request is a v2 request
    // without a fleet.
    const auto version = root.object.find("version");
    if (version != root.object.end() && version->second.integral &&
        version->second.integer == 1) {
      version->second.integer = kRequestJsonVersion;
      root.object["fleet"] = util::json::Value{};
    }
    return read_json<PlanRequest>(root, "request_from_json");
  } catch (const std::exception& ex) {
    return parse_error("request_from_json", ex.what());
  }
}

std::string fleet_to_json(const place::FleetSpec& fleet) {
  return write_json(fleet);
}

place::FleetSpec fleet_from_json(std::string_view json) {
  place::FleetSpec fleet;
  JsonIn::read(util::json::parse(json), fleet);
  return fleet;
}

}  // namespace karma::api
