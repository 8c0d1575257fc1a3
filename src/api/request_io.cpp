#include "src/api/request_io.h"

#include <stdexcept>

#include "src/api/request_fields.h"
#include "src/util/json.h"

namespace karma::api {

std::string request_to_json(const PlanRequest& request) {
  util::json::Writer w;
  w.begin_object();
  w.key("version"); w.value(kRequestJsonVersion);
  JsonOut out(w);
  fields(out, request);
  w.end_object();
  return w.take();
}

Expected<PlanRequest, PlanError> request_from_json(std::string_view json) {
  try {
    util::json::Value root = util::json::parse(json);
    const std::int64_t version = root.at("version").as_int();
    if (version != 1 && version != kRequestJsonVersion)
      return parse_error("request_from_json", "unsupported schema version " +
                                                  std::to_string(version));
    // v1 (pre-fleet) payloads stay readable: they simply carry no fleet.
    if (version == 1) root.object["fleet"] = util::json::Value{};
    PlanRequest request;
    JsonIn in(root);
    fields(in, request);
    return request;
  } catch (const std::exception& ex) {
    return parse_error("request_from_json", ex.what());
  }
}

std::string error_to_json(const PlanError& error) { return write_json(error); }

PlanError error_from_json(std::string_view json) {
  try {
    PlanError error;
    JsonIn::read(util::json::parse(json), error);
    return error;
  } catch (const std::exception& ex) {
    return parse_error("error_from_json", ex.what());
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
