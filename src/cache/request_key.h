// Content-addressed keying of PlanRequests (DESIGN.md §10).
//
// Planning is pure: Session::plan() is a deterministic function of a
// PlanRequest, and the Plan artifact serializes byte-stably. RequestKey
// keys a request by content: its keyed fields, streamed as canonical
// binary words into util::Hasher128 and finished to a 128-bit digest. No
// text is built.
//
// The fields and their order come from the request's field lists
// (src/api/request_fields.h), the same lists the wire JSON is derived
// from, so every listed field is keyed unless its line is tagged Unkeyed.
// The word format is documented at KeyWriter in request_key.cpp (stream
// format version 6). The format version and the plan JSON schema version
// open the stream: bumping either invalidates every existing key.
//
// Tagged Unkeyed, and so excluded: PlanRequest::probe_feasible_batch,
// which shapes only the PlanError of a failed search, and
// PlanRequest::limits — patience, not content: a limit decides whether
// the deterministic search finishes, never what it produces, and an
// interrupted search is never cached, so bounded requests share flights
// and cache entries with unbounded ones (DESIGN.md §11).
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
