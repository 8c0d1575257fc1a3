// Minimal deterministic JSON machinery, shared by every serialization
// layer in the repo (plan artifacts, request artifacts, the karma-pland
// wire protocol).
//
// Extracted from api/plan_io.cpp when the daemon grew a second and third
// consumer: one writer, one parser, one set of number-formatting rules —
// so a plan embedded in a wire envelope is byte-identical to the same
// plan written standalone, and the cache-key guarantees built on that
// byte-stability carry over to every schema.
//
//   Writer — append-only builder emitting keys in a fixed order. No
//            generic DOM on the write path: determinism falls out of the
//            code structure. It bumps a pointer through one reused buffer
//            (one capacity check per token, not per byte).
//   Value/Document/parse — a recursive-descent parser into a compact DOM
//            that keeps both integer and double views of numbers, so Bytes
//            fields round-trip without float truncation.
//
// Number rules, both directions:
//   - Integers print as minimal decimals. Doubles print as printf "%.17g"
//     (std::to_chars general/17 is defined to emit the same bytes), which
//     round-trips every finite double bit-exactly. Infinities print as
//     overflowing decimals ("1e999", "-1e999") since JSON has no literal
//     for them; NaN is rejected.
//   - The parser reads a number token as the maximal run of
//     [0-9 . e E + -]. Without '.', 'e' or 'E' it is integral and must be
//     an in-range int64 in strtoll's form (an optional sign, '+' included,
//     then decimal digits; "01" is 1); `number` is then its double, with
//     the sign of "-0" kept. Otherwise it must be wholly consumed by
//     strtod's decimal form ("1.", ".5" and "+.5" are accepted, "1e" is
//     not); out-of-range magnitudes saturate as strtod does ("1e999" is
//     inf, "1e-999" is 0).
//
// DOM layout: a Document owns an arena of a few blocks. The input is
// copied into it once, and every string, key included, is a view of that
// copy (unescaped in place when it has escapes). Every container's
// children sit in one contiguous arena run: an array's Values, an
// object's Members in source order. A node is a fixed 56 bytes, and a
// scalar or string allocates nothing of its own. Duplicate keys are
// kept; lookups (`at`, `has`) see the first occurrence. Nodes are
// read-only views into their Document: only the parser copies a Value,
// so a Document cannot be sliced into a Value that outlives its arena.
//
// Nesting deeper than kMaxDepth containers is a parse error, so a hostile
// frame cannot overflow the parser's stack. No artifact nests deeper than
// about 6.
//
// No third-party dependency, by design (the container bakes none in).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace karma::util::json {

/// Deepest container nesting parse() accepts.
inline constexpr int kMaxDepth = 256;

/// Append-only deterministic writer. Key order is the caller's call
/// order; equal inputs produce byte-identical output.
class Writer {
 public:
  Writer() : cur_(out_.data()), end_(cur_) {}
  /// Writes into `buffer`'s storage (its contents are dropped), so a
  /// caller that hands back what take() returned allocates nothing anew.
  explicit Writer(std::string buffer);
  Writer(const Writer&) = delete;  // cur_ and end_ point into out_
  Writer& operator=(const Writer&) = delete;

  /// The text written so far; the Writer starts over, empty.
  std::string take();

  void begin_object() { punct('{'); }
  void end_object() { close('}'); }
  void begin_array() { punct('['); }
  void end_array() { close(']'); }

  void key(std::string_view k);
  void key(const char* k) { key(std::string_view(k)); }

  void value(std::string_view s) { string(s, false); }
  void value(const char* s) { value(std::string_view(s)); }
  void value(bool b);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(double d);
  void null();

  /// Splices pre-serialized JSON in as a value, verbatim. Lets an
  /// envelope embed an already-byte-stable artifact (e.g. a plan inside a
  /// wire response) without reparse/rewrite drift. The caller guarantees
  /// `json` is one well-formed JSON value.
  void raw(std::string_view json);

 private:
  /// Room for `n` more bytes at cur_; returns cur_.
  char* room(std::size_t n) {
    if (static_cast<std::size_t>(end_ - cur_) < n) grow(n);
    return cur_;
  }
  void grow(std::size_t n);
  /// The separating comma, unless a value must not emit one; needs 1 byte
  /// of room.
  void comma() {
    if (!fresh_) *cur_++ = ',';
    fresh_ = false;
  }
  void punct(char c) {
    room(2);
    comma();
    *cur_++ = c;
    fresh_ = true;
  }
  void close(char c) {
    *room(1) = c;
    ++cur_;
    fresh_ = false;
  }
  /// `s` quoted and escaped; a key also gets its ':'.
  void string(std::string_view s, bool is_key);
  /// The rest of a string from its first byte that needs escaping.
  void escape(const char* in, const char* end);

  std::string out_;  ///< size() is the usable capacity; [data, cur_) written
  char* cur_ = nullptr;
  char* end_ = nullptr;
  bool fresh_ = true;
};

namespace detail {
class Parser;
}
struct Member;

/// Parsed JSON DOM node: a read-only view into the Document it was parsed
/// into. Numbers keep both views so integer fields round-trip exactly;
/// accessors throw std::runtime_error on type mismatch (the uniform
/// "corrupt input" channel every reader maps to its own structured error).
struct Value {
  enum class Type : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };
  Type type = Type::kNull;
  bool boolean = false;
  bool integral = false;  ///< number was written without '.'/'e'
  double number = 0.0;
  std::int64_t integer = 0;
  /// Source span: [begin, end) offsets of this value's text in the parsed
  /// input. Lets an envelope consumer recover a nested artifact's EXACT
  /// original bytes (e.g. a plan embedded in a wire response) and reparse
  /// or byte-compare it without a re-serialization step that could drift.
  std::size_t begin = 0;
  std::size_t end = 0;

  Value() = default;

  /// This value's exact source text within `input` (the string_view the
  /// DOM was parsed from — the caller keeps it alive).
  std::string_view span(std::string_view input) const {
    return input.substr(begin, end - begin);
  }

  /// The first member named `k`; throws when there is none.
  const Value& at(std::string_view k) const;
  bool has(std::string_view k) const { return find(k) != nullptr; }
  std::int64_t as_int() const;
  double as_double() const;
  std::string_view as_string() const;
  bool as_bool() const;
  std::span<const Value> as_array() const;
  /// Every member in source order, duplicates included.
  std::span<const Member> as_object() const;
  bool is_null() const { return type == Type::kNull; }

 protected:
  Value(const Value&) = default;
  Value& operator=(const Value&) = default;

 private:
  friend class detail::Parser;
  friend struct Member;

  const Value* find(std::string_view k) const;

  /// The arena run of a string's chars, an array's Values or an object's
  /// Members, and its length in those units.
  const void* items_ = nullptr;
  std::size_t size_ = 0;
};

struct Member {
  std::string_view key;
  Value value;
};

/// A parsed DOM: the root Value plus the arena every other node, key and
/// string lives in. Move-only; nodes stay put when it moves.
class Document : public Value {
 private:
  friend class detail::Parser;
  std::vector<std::unique_ptr<std::byte[]>> arena_;
};

/// Parses exactly one JSON value spanning the whole input (trailing
/// garbage is an error). Throws std::runtime_error on malformed input.
Document parse(std::string_view text);

/// Checked int64 -> int narrowing: huge values in corrupt input must fail
/// the parse, not wrap around and slip past downstream index validation.
int as_int32(const Value& v, const char* what);

/// Span of top-level member `key`'s value in a JSON object, found by a
/// DOM-free skip-scan (strings and {}/[] nesting tracked, nothing
/// validated or allocated). Returns an empty view when the key is absent
/// or the scan gets confused (escaped key names, malformed input) — the
/// caller falls back to the full parser, so this is a fast path, never an
/// acceptance decision. karma-pland uses it to digest a plan frame's
/// request bytes without building a DOM of the whole model description.
std::string_view scan_member(std::string_view text, std::string_view key);

}  // namespace karma::util::json
