// Content-addressed keying of PlanRequests (DESIGN.md §10).
//
// PR 2 made planning pure: a PlanRequest is a value, Session::plan() is a
// deterministic function of it, and the Plan artifact serializes
// byte-stably. That makes planning cacheable — IF requests can be keyed
// by content. RequestKey is that key: every request field that influences
// the produced plan, streamed as canonical binary words into
// util::Hasher128 and finished to a 128-bit digest. No text is built.
//
// Canonicalization rules (key stream format version 5):
//   - fields are written in one fixed order by code structure (no
//     reflection, no map iteration — the same discipline as plan_io);
//   - each field is little-endian 8-byte words: integers, bools and enums
//     as int64, doubles as their IEEE-754 bit pattern (bit-exact);
//   - strings, shapes, succ lists, the layer list and the fleet node list
//     are length-prefixed, and optionals carry a presence word, so no
//     value can fake a delimiter and the stream parses back uniquely;
//   - model edges come from Model::succs(), which the builder keeps
//     sorted ascending, so edge *insertion* order cannot leak in;
//   - the format version and the plan JSON schema version open the
//     stream: bumping either invalidates every existing key. Version 5
//     replaced version 4's text fingerprint and FNV-1a hash, so disk
//     entries written under version 4 are misses.
//
// Deliberately EXCLUDED from the key:
//   - PlanRequest::probe_feasible_batch — it shapes the PlanError on the
//     failure path only, never the artifact a success produces;
//   - PlanRequest::limits (deadline / candidate budget) — patience, not
//     content: a limit decides whether the deterministic search finishes,
//     never what it produces, and an interrupted search is never cached —
//     so bounded requests share flights and cache entries with unbounded
//     ones (DESIGN.md §11);
//   - DistributedOptions::planner — Session documents that the embedded
//     copy is superseded by PlanRequest::planner (the facade has exactly
//     one set of planner knobs).
#pragma once

#include <string>

#include "src/util/hash.h"

namespace karma::api {
struct PlanRequest;
}

namespace karma::cache {

/// Stable 128-bit content key of a PlanRequest. Value type; `hex()` is
/// the on-disk entry name stem.
struct RequestKey {
  util::Digest128 digest;

  bool operator==(const RequestKey&) const = default;
  std::string hex() const { return digest.hex(); }
};

struct RequestKeyHash {
  std::size_t operator()(const RequestKey& k) const {
    return util::Digest128Hash{}(k.digest);
  }
};

/// The canonical binary stream the key hashes, as bytes:
/// digest128(request_fingerprint(r, c)) == request_key(r, c).digest.
/// Exposed for tests and debugging (e.g. diffing why two requests miss
/// each other); request_key itself never materializes it.
///
/// `calibration` is the active CalibrationTable's content hash, or ""
/// when planning against the uncorrected analytic model (DESIGN.md §13).
/// It joins the preamble, so installing, changing, or clearing a table
/// changes every key: a plan searched under stale cost constants can
/// never be served as current — it becomes a calib::repair seed instead.
std::string request_fingerprint(const api::PlanRequest& request,
                                const std::string& calibration = {});

/// Content key of `request`: the request_fingerprint stream fed to
/// util::Hasher128 as it is written.
RequestKey request_key(const api::PlanRequest& request,
                       const std::string& calibration = {});

}  // namespace karma::cache
