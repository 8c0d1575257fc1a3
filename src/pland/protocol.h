// karma-pland wire protocol: length-prefixed JSON frames over a unix
// domain socket (DESIGN.md §12).
//
// Framing is deliberately minimal: a 4-byte little-endian unsigned payload
// length, then exactly that many bytes of UTF-8 JSON. One frame = one
// envelope. The envelopes carry the repo's EXISTING versioned artifacts —
// a plan request is request_io's request JSON (the client writes it in
// place), and a plan is plan_io's v2 artifact, spliced in verbatim
// (api::RawJson), so the bytes a client receives for a plan are
// byte-identical to the leader's Plan::to_json(). The storm test's
// "byte-identical artifacts fleet-wide" assertion rides on that. An error
// is a PlanError object of its own field list.
//
// Each envelope is one object of a field list below (Request or Response),
// written and read through the api::JsonOut/JsonIn sinks
// (src/api/request_fields.h), so both ends of the socket derive from the
// same list. Every envelope carries the Header (`v`, `type`, `id`); a
// caller-chosen `id` is echoed in the response so clients may pipeline.
// The verbs are plan, stats, metrics, ping (answered "pong"), shutdown and
// calibrate; a frame the daemon cannot act on is answered with type
// "error". A response carries `ok`, plus `error` exactly when `ok` is
// false, plus the member its verb returns.
//
// Frame reads/writes are blocking with EINTR retry; a frame larger than
// kMaxFrameBytes is a protocol error (the daemon counts it and closes —
// resynchronizing a corrupt length prefix is not possible).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/api/request_fields.h"

namespace karma::pland {

inline constexpr int kProtocolVersion = 1;

/// The members every envelope carries, in both directions.
struct Header {
  std::string type;
  std::int64_t id = 0;
};

/// Client -> daemon. The plan request travels as `Body`: the client writes
/// its PlanRequest in place as a request_io artifact, and the daemon reads
/// back the exact span of those bytes (Request). RawJson members point at
/// text the writer keeps alive, or into the parsed frame.
template <class Body>
struct RequestOf {
  Header head;
  std::string tenant{};  ///< plan: fairness account; "" = anonymous
  Body request{};        ///< plan: the request
  /// calibrate: a CalibrationTable (calib/table.h) to install node-wide,
  /// re-keying every request under its hash; null clears it.
  api::RawJson table{};
};
using Request = RequestOf<api::RawJson>;

/// Daemon -> client.
struct Response {
  Header head;
  bool ok = true;
  api::RawJson plan{};  ///< plan: the leader's Plan::to_json() bytes
  std::optional<api::PlanError> error{};  ///< exactly when !ok
  api::RawJson stats{};    ///< stats: the DaemonStats document
  api::RawJson metrics{};  ///< metrics: the registry snapshot (§15)
  std::optional<std::string> calibration{};  ///< calibrate: the active hash
  std::optional<std::int64_t> calibration_version{};  ///< 0 = uncalibrated
};

/// The plan request member's name, which the daemon also scans for.
inline constexpr const char* kRequestMember = "request";

template <class V, api::Is<Header> H>
void fields(V& v, H& h) {
  v("v", kProtocolVersion, api::SchemaVersion{});
  v("type", h.type);
  v("id", h.id);
}

/// One list for both bodies of the request envelope.
template <class V, class R>
  requires api::Is<R, RequestOf<decltype(R::request)>>
void fields(V& v, R& r) {
  v("", r.head, api::Inline{});
  v("tenant", r.tenant, api::IfNotDefault{});
  v(kRequestMember, r.request, api::IfNotDefault{});
  v("table", r.table, api::IfNotDefault{});
}

template <class V, api::Is<Response> R>
void fields(V& v, R& r) {
  v("", r.head, api::Inline{});
  v("ok", r.ok);
  v("plan", r.plan, api::IfNotDefault{});
  v("error", r.error, api::IfNotDefault{});
  v("stats", r.stats, api::IfNotDefault{});
  v("metrics", r.metrics, api::IfNotDefault{});
  v("calibration", r.calibration, api::IfNotDefault{});
  v("calibration_version", r.calibration_version, api::IfNotDefault{});
}

/// A response's `error` is attached exactly when `ok` is false.
void after_read(const Response& response);

/// Hard bound on one frame's payload. Plan artifacts for the paper's
/// models weigh tens of KB; 64 MiB leaves orders of magnitude of headroom
/// while keeping a garbled length prefix from looking like a 4 GiB
/// allocation request.
inline constexpr std::uint32_t kMaxFrameBytes = 64u * 1024 * 1024;

/// Writes one frame (length prefix + payload). Returns false on any write
/// failure, including a payload over kMaxFrameBytes. Thread-compatible:
/// callers serialize writes to one fd themselves.
bool write_frame(int fd, std::string_view payload);

enum class ReadStatus {
  kOk,        ///< one whole frame read into *payload
  kEof,       ///< clean close before any byte of a frame
  kError,     ///< read failure or close mid-frame
  kTooLarge,  ///< length prefix exceeds kMaxFrameBytes (do not continue)
};

/// Reads one whole frame. Blocks until the frame completes, the peer
/// closes, or an error occurs.
ReadStatus read_frame(int fd, std::string* payload);

}  // namespace karma::pland
