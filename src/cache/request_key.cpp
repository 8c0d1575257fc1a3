#include "src/cache/request_key.h"

#include <bit>
#include <cstdint>
#include <optional>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/api/plan_io.h"
#include "src/api/request_fields.h"

namespace karma::cache {
namespace {

/// Canonical binary field stream, run over the request's field lists
/// (src/api/request_fields.h) in list order. Every keyed field becomes
/// little-endian 8-byte words:
///   - integers, bools and enums are one int64 word (named enums too: the
///     key hashes the enumerator, the wire its name);
///   - doubles are one word holding their IEEE-754 bit pattern;
///   - strings are a length word, then their bytes zero-padded to a
///     word boundary; shapes, the layer / fleet node lists and the skip
///     pairs are likewise a count word, then their elements;
///   - optionals and default-omitted groups are a presence word, then the
///     value when present.
/// Every variable-length item is length-prefixed, so the stream parses
/// back unambiguously: no value can impersonate a delimiter. Unkeyed
/// fields and schema version constants write nothing.
///
/// The words go to a Hasher128 (request_key) or are appended to a string
/// (request_fingerprint) — the same bytes either way.
class KeyWriter {
 public:
  explicit KeyWriter(util::Hasher128* hasher) : hasher_(hasher) {}
  explicit KeyWriter(std::string* bytes) : bytes_(bytes) {}

  template <class T>
  void operator()(const char*, const T& x) {
    put(x);
  }
  template <class T>
  void operator()(const char*, const T&, api::Unkeyed) {}
  void operator()(const char*, int, api::SchemaVersion) {}
  template <class T>
  void operator()(const char*, const T& x, api::Inline) {
    api::fields(*this, x);
  }
  template <class T>
  void operator()(const char*, const T& x, api::IfNotDefault) {
    const bool present = !(x == T{});
    put(present);
    if (present) put(x);
  }
  template <class E>
  void operator()(const char*, E x, api::Named<E>) {
    put(x);
  }
  template <class E>
  void operator()(const char*, E x, api::Coded<E>) {
    put(x);
  }
  void operator()(const char*, std::uint64_t x, api::DecimalText) { put(x); }

  template <class T>
    requires std::is_arithmetic_v<T> || std::is_enum_v<T>
  void put(T v) {
    if constexpr (std::is_floating_point_v<T>) {
      word(std::bit_cast<std::uint64_t>(static_cast<double>(v)));
    } else {
      word(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    }
  }
  void put(std::string_view s) {
    put(s.size());
    append(s.data(), s.size());
    static constexpr unsigned char kZeros[8] = {};
    append(kZeros, (8 - s.size() % 8) % 8);
  }
  void put(const std::string& s) { put(std::string_view(s)); }
  void put(const graph::TensorShape& shape) { put(shape.dims()); }
  void put(const api::SkipEdges& skips) {
    std::size_t count = 0;
    skips.for_each([&](int, int) { ++count; });
    put(count);
    skips.for_each([&](int from, int to) {
      put(from);
      put(to);
    });
  }
  template <class T>
  void put(const std::vector<T>& xs) {
    put(xs.size());
    for (const T& x : xs) put(x);
  }
  template <class T>
  void put(const std::optional<T>& x) {
    put(x.has_value());
    if (x) put(*x);
  }
  /// Any other class is an object of its own field list.
  template <class T>
    requires std::is_class_v<T>
  void put(const T& x) {
    api::fields(*this, x);
  }

 private:
  void word(std::uint64_t v) {
    unsigned char le[8];
    util::store_le64(le, v);
    append(le, sizeof le);
  }
  void append(const void* data, std::size_t n) {
    if (hasher_)
      hasher_->update(data, n);
    else
      bytes_->append(static_cast<const char*>(data), n);
  }

  util::Hasher128* hasher_ = nullptr;
  std::string* bytes_ = nullptr;
};

/// Key stream format version; bumping it re-keys every request.
constexpr int kFpVersion = 6;

void write_request(KeyWriter& w, const api::PlanRequest& request,
                   const std::string& calibration) {
  w.put(std::string_view("karma-request-key"));
  // v6: derived from the field lists (skip pairs, default device groups
  // omitted). v5: binary words + Hasher128 (v4 was text + FNV-1a). v4:
  // fleet + NVMe contention. v3: anneal_workers + the unbiased Rng. v2:
  // device scale + the calibration entry below.
  w.put(kFpVersion);
  // Schema bump = cache invalidation: new keys never collide with entries
  // written under the old schema (which plan_from_json rejects anyway).
  w.put(api::kPlanJsonVersion);
  // The active CalibrationTable's content hash ("" = analytic model).
  // Hot-swapping a table therefore re-keys the whole cache — stale plans
  // miss, and the engine turns the old-key entry into a repair seed.
  w.put(calibration);
  api::fields(w, request);
}

}  // namespace

std::string request_fingerprint(const api::PlanRequest& request,
                                const std::string& calibration) {
  std::string bytes;
  KeyWriter w(&bytes);
  write_request(w, request, calibration);
  return bytes;
}

RequestKey request_key(const api::PlanRequest& request,
                       const std::string& calibration) {
  util::Hasher128 hasher;
  KeyWriter w(&hasher);
  write_request(w, request, calibration);
  return {hasher.finish()};
}

}  // namespace karma::cache
