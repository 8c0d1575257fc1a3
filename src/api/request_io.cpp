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
    const util::json::Document root = util::json::parse(json);
    // v1 (pre-fleet) payloads stay readable: a v1 request is a v2 request
    // without a fleet, so it is rewritten as one, every other member
    // verbatim.
    if (root.has("version") && root.at("version").integral &&
        root.at("version").integer == 1) {
      util::json::Writer w;
      w.begin_object();
      w.key("version");
      w.value(kRequestJsonVersion);
      w.key("fleet");
      w.null();
      for (const auto& [key, value] : root.as_object()) {
        if (key == "version" || key == "fleet") continue;
        w.key(key);
        w.raw(value.span(json));
      }
      w.end_object();
      return read_json<PlanRequest>(w.take(), "request_from_json");
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
