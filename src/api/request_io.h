// PlanRequest artifact serialization — the request half of the karma-pland
// protocol (DESIGN.md §12).
//
//   request_to_json / request_from_json — the JSON writer and reader
//       derived from the request's field lists (src/api/request_fields.h),
//       the same lists cache::request_key streams. So the schema carries
//       every keyed field plus the Unkeyed delivery fields (search limits,
//       probe_feasible_batch) a remote server still needs to honor, and a
//       round trip keeps the cache identity bit for bit:
//       cache::request_key(parse(serialize(r))) == cache::request_key(r).
// A PlanError travels as an object of its own field list inside the
// protocol's response envelope (src/pland/protocol.h); its attached
// partial plan is a nested v2 plan object, the bytes of its to_json().
//
// Like the plan schema, the request schema is versioned and readers
// reject versions they do not understand.
#pragma once

#include <string>
#include <string_view>

#include "src/api/errors.h"
#include "src/place/fleet.h"

namespace karma::api {

struct PlanRequest;

/// v1: initial wire schema (PR 6, karma-pland).
/// v2: adds the `fleet` key (null | FleetSpec object, DESIGN.md §16).
///     Readers still accept v1 payloads (no fleet key -> no fleet), so
///     old clients keep working against a new daemon.
inline constexpr int kRequestJsonVersion = 2;

/// Serializes `request` to the versioned JSON schema. Deterministic:
/// equal requests produce byte-identical strings.
std::string request_to_json(const PlanRequest& request);

/// Parses a request artifact back. Returns PlanError{kParseError} on
/// malformed input or unknown schema versions. Key-preserving:
/// cache::request_key of the parsed request equals that of the original.
Expected<PlanRequest, PlanError> request_from_json(std::string_view json);

/// Serializes a FleetSpec (the same component the v2 request schema
/// embeds, usable standalone for fixtures and tooling). Deterministic:
/// equal fleets produce byte-identical strings.
std::string fleet_to_json(const place::FleetSpec& fleet);

/// Parses a fleet artifact back; throws std::runtime_error on malformed
/// input (request_from_json maps it to kParseError).
place::FleetSpec fleet_from_json(std::string_view json);

}  // namespace karma::api
