#include "src/util/json.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace karma::util::json {

namespace {

/// Byte classes, one table for the writer, the parser and the scan.
enum : std::uint8_t {
  kSpace = 1,     ///< what std::isspace accepts in the C locale
  kNumeric = 2,   ///< a number token's bytes: [0-9.eE+-]
  kFraction = 4,  ///< '.', 'e', 'E': the token is not integral
  kStringStop = 8,   ///< '"' and '\\': a string's run ends here
  kDelimiter = 16,   ///< ',', '}', ']': a bare scalar ends here
  kEscape = 32,      ///< '"', '\\' and control bytes: written escaped
};

constexpr std::array<std::uint8_t, 256> kClass = [] {
  std::array<std::uint8_t, 256> c{};
  for (const char s : {' ', '\t', '\n', '\v', '\f', '\r'})
    c[static_cast<unsigned char>(s)] |= kSpace;
  for (const char d : {'0', '1', '2', '3', '4', '5', '6', '7', '8', '9', '+',
                       '-', '.', 'e', 'E'})
    c[static_cast<unsigned char>(d)] |= kNumeric;
  for (const char f : {'.', 'e', 'E'})
    c[static_cast<unsigned char>(f)] |= kFraction;
  for (const char q : {'"', '\\'})
    c[static_cast<unsigned char>(q)] |= kStringStop | kEscape;
  for (const char d : {',', '}', ']'})
    c[static_cast<unsigned char>(d)] |= kDelimiter;
  for (int b = 0; b < 0x20; ++b) c[b] |= kEscape;
  return c;
}();

bool is(char c, std::uint8_t mask) {
  return kClass[static_cast<unsigned char>(c)] & mask;
}

/// First position in [p, end) whose byte is in `mask`, else `end`.
template <class Char>
Char* skip_to(Char* p, Char* end, std::uint8_t mask) {
  while (p < end && !is(*p, mask)) ++p;
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

Writer::Writer(std::string buffer) : out_(std::move(buffer)) {
  // Only the tail past the previous contents is zero-filled.
  out_.resize(out_.capacity());
  cur_ = out_.data();
  end_ = cur_ + out_.size();
}

std::string Writer::take() {
  out_.resize(static_cast<std::size_t>(cur_ - out_.data()));
  std::string text = std::move(out_);
  out_.clear();
  cur_ = end_ = out_.data();
  fresh_ = true;
  return text;
}

void Writer::grow(std::size_t n) {
  const auto used = static_cast<std::size_t>(cur_ - out_.data());
  out_.resize(std::max({out_.size() * 2, used + n, std::size_t{256}}));
  cur_ = out_.data() + used;
  end_ = out_.data() + out_.size();
}

void Writer::key(std::string_view k) {
  string(k, true);
  fresh_ = true;  // the value that follows must not emit a comma
}

void Writer::value(bool b) {
  room(6);
  comma();
  const std::string_view text = b ? "true" : "false";
  std::memcpy(cur_, text.data(), text.size());
  cur_ += text.size();
}

void Writer::null() {
  room(5);
  comma();
  std::memcpy(cur_, "null", 4);
  cur_ += 4;
}

void Writer::value(std::int64_t v) {
  room(1 + 20);
  comma();
  // to_chars emits the same minimal-decimal bytes snprintf("%PRId64")
  // would, an order of magnitude faster — integers dominate a serialized
  // model description (every layer is mostly shape/channel counts), and
  // request serialization sits on the karma-pland client's hit path.
  cur_ = std::to_chars(cur_, cur_ + 20, v).ptr;
}

void Writer::value(double d) {
  if (std::isnan(d))
    throw std::invalid_argument("json::Writer: NaN is not representable");
  // "-1.2345678901234567e-308" is the longest %.17g output: 24 bytes.
  room(1 + 32);
  comma();
  if (std::isinf(d)) {
    // JSON has no infinity literal; an overflowing decimal parses back to
    // the same +/-inf, keeping the round-trip byte-stable.
    const std::string_view text = d > 0 ? "1e999" : "-1e999";
    std::memcpy(cur_, text.data(), text.size());
    cur_ += text.size();
    return;
  }
  // general/17 is specified as printf's "%.17g", which round-trips every
  // finite IEEE-754 double exactly.
  cur_ = std::to_chars(cur_, cur_ + 32, d, std::chars_format::general, 17).ptr;
}

void Writer::raw(std::string_view json) {
  room(1 + json.size());
  comma();
  std::memcpy(cur_, json.data(), json.size());
  cur_ += json.size();
}

void Writer::string(std::string_view s, bool is_key) {
  // Comma, quotes and ':' around the text: a clean string is copied in
  // this one pass, and only an escaped byte takes the slow path.
  room(4 + s.size());
  comma();
  char* out = cur_;
  *out++ = '"';
  const char* in = s.data();
  const char* const end = in + s.size();
  while (in < end && !is(*in, kEscape)) *out++ = *in++;
  if (in < end) {
    cur_ = out;
    escape(in, end);
    out = cur_;
  }
  *out++ = '"';
  if (is_key) *out++ = ':';
  cur_ = out;
}

void Writer::escape(const char* in, const char* end) {
  // An escaped byte takes at most 6, and the closing '"' and ':' 2 more.
  room(6 * static_cast<std::size_t>(end - in) + 2);
  for (; in < end; ++in) {
    const char c = *in;
    if (!is(c, kEscape)) {
      *cur_++ = c;
      continue;
    }
    *cur_++ = '\\';
    switch (c) {
      case '"': *cur_++ = '"'; break;
      case '\\': *cur_++ = '\\'; break;
      case '\n': *cur_++ = 'n'; break;
      case '\t': *cur_++ = 't'; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        std::memcpy(cur_, "u00", 3);
        cur_[3] = kHex[(c >> 4) & 0xf];
        cur_[4] = kHex[c & 0xf];
        cur_ += 5;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Value accessors
// ---------------------------------------------------------------------------

const Value* Value::find(std::string_view k) const {
  if (type != Type::kObject) return nullptr;
  for (const Member& m : as_object())
    if (m.key == k) return &m.value;
  return nullptr;
}

const Value& Value::at(std::string_view k) const {
  const Value* v = find(k);
  if (v == nullptr)
    throw std::runtime_error("missing key '" + std::string(k) + "'");
  return *v;
}

std::int64_t Value::as_int() const {
  if (type != Type::kNumber || !integral)
    throw std::runtime_error("expected integer");
  return integer;
}

double Value::as_double() const {
  if (type != Type::kNumber) throw std::runtime_error("expected number");
  return integral ? static_cast<double>(integer) : number;
}

std::string_view Value::as_string() const {
  if (type != Type::kString) throw std::runtime_error("expected string");
  return {static_cast<const char*>(items_), size_};
}

bool Value::as_bool() const {
  if (type != Type::kBool) throw std::runtime_error("expected bool");
  return boolean;
}

std::span<const Value> Value::as_array() const {
  if (type != Type::kArray) throw std::runtime_error("expected array");
  return {static_cast<const Value*>(items_), size_};
}

std::span<const Member> Value::as_object() const {
  if (type != Type::kObject) throw std::runtime_error("expected object");
  return {static_cast<const Member*>(items_), size_};
}

int as_int32(const Value& v, const char* what) {
  const std::int64_t x = v.as_int();
  if (x < INT_MIN || x > INT_MAX)
    throw std::runtime_error(std::string(what) + " out of int range");
  return static_cast<int>(x);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace detail {

static_assert(std::is_trivially_copyable_v<Value> &&
              std::is_trivially_copyable_v<Member>);

class Parser {
 public:
  /// The text is copied into the arena first: every string is a view of
  /// that copy, unescaped in place when it needs it.
  Parser(std::string_view text, Document& doc)
      : doc_(doc), next_block_(1024 + 5 * text.size()) {
    text_ = static_cast<char*>(allocate(text.size()));
    if (!text.empty()) std::memcpy(text_, text.data(), text.size());
    p_ = text_;
    end_ = text_ + text.size();
  }

  void run() {
    static_cast<Value&>(doc_) = parse_value(0);
    skip_ws();
    if (p_ != end_)
      throw std::runtime_error("trailing characters after JSON value");
  }

 private:
  /// A grow-by-memcpy stack of trivially copyable nodes: the children of
  /// every open container, until it closes and moves them to the arena.
  template <class T>
  class Stack {
   public:
    std::size_t size() const { return size_; }
    const T* from(std::size_t i) const { return data_.get() + i; }
    void push(const T& x) {
      if (size_ == capacity_) {
        capacity_ = std::max<std::size_t>(64, 2 * capacity_);
        auto bigger = std::make_unique_for_overwrite<T[]>(capacity_);
        if (size_) std::memcpy(bigger.get(), data_.get(), size_ * sizeof(T));
        data_ = std::move(bigger);
      }
      std::memcpy(data_.get() + size_++, &x, sizeof(T));
    }
    void shrink(std::size_t n) { size_ = n; }

   private:
    std::unique_ptr<T[]> data_;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
  };

  /// `bytes` of 8-aligned arena storage in `doc_`.
  void* allocate(std::size_t bytes) {
    bytes = (bytes + 7) & ~std::size_t{7};
    if (bytes > left_) {
      const std::size_t size = std::max(bytes, next_block_);
      next_block_ = 2 * size;
      doc_.arena_.push_back(std::make_unique_for_overwrite<std::byte[]>(size));
      block_ = doc_.arena_.back().get();
      left_ = size;
    }
    void* p = block_;
    block_ += bytes;
    left_ -= bytes;
    return p;
  }
  /// A container's children, moved from the stack into the arena.
  template <class T>
  const T* keep(Stack<T>& stack, std::size_t base) {
    const std::size_t n = stack.size() - base;
    if (n == 0) return nullptr;
    void* p = allocate(n * sizeof(T));
    std::memcpy(p, stack.from(base), n * sizeof(T));
    stack.shrink(base);
    return static_cast<const T*>(p);
  }

  void skip_ws() {
    while (p_ < end_ && is(*p_, kSpace)) ++p_;
  }
  char peek() {
    skip_ws();
    if (p_ == end_) throw std::runtime_error("unexpected end");
    return *p_;
  }
  void expect(char c) {
    if (peek() != c)
      throw std::runtime_error(std::string("expected '") + c + "'");
    ++p_;
  }
  bool consume(char c) {
    skip_ws();
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  Value parse_value(int depth) {
    const char c = peek();  // skips leading whitespace
    Value v;
    v.begin = static_cast<std::size_t>(p_ - text_);
    switch (c) {
      case '{': parse_object(v, depth); break;
      case '[': parse_array(v, depth); break;
      case '"': {
        v.type = Value::Type::kString;
        const std::string_view s = parse_string();
        v.items_ = s.data();
        v.size_ = s.size();
        break;
      }
      case 't':
      case 'f': parse_bool(v); break;
      case 'n': parse_null(); break;
      default: parse_number(v);
    }
    v.end = static_cast<std::size_t>(p_ - text_);
    return v;
  }

  /// `p_` at the opening bracket of a container nested in `depth` others.
  void enter(int depth) {
    if (depth >= kMaxDepth)
      throw std::runtime_error("JSON nests deeper than " +
                               std::to_string(kMaxDepth) + " levels");
    ++p_;
  }

  void parse_object(Value& v, int depth) {
    enter(depth);
    v.type = Value::Type::kObject;
    if (consume('}')) return;
    const std::size_t base = members_.size();
    do {
      if (peek() != '"') throw std::runtime_error("expected '\"'");
      const std::string_view key = parse_string();
      expect(':');
      members_.push(Member{key, parse_value(depth + 1)});
    } while (consume(','));
    expect('}');
    v.size_ = members_.size() - base;
    v.items_ = keep(members_, base);
  }

  void parse_array(Value& v, int depth) {
    enter(depth);
    v.type = Value::Type::kArray;
    if (consume(']')) return;
    const std::size_t base = values_.size();
    do {
      values_.push(parse_value(depth + 1));
    } while (consume(','));
    expect(']');
    v.size_ = values_.size() - base;
    v.items_ = keep(values_, base);
  }

  /// `p_` at the opening quote: the unescaped string, a view of the
  /// arena's copy of the text.
  std::string_view parse_string() {
    char* const start = ++p_;
    p_ = skip_to(p_, end_, kStringStop);
    if (p_ < end_ && *p_ == '"') {  // no escapes: the common case
      const auto n = static_cast<std::size_t>(p_++ - start);
      return {start, n};
    }
    // Unescaped bytes are written back in place, behind the read position.
    char* out = p_;
    while (p_ < end_ && *p_ != '"') {
      ++p_;  // the backslash
      if (p_ == end_) throw std::runtime_error("bad escape");
      *out++ = unescape();
      char* const run = p_;
      p_ = skip_to(p_, end_, kStringStop);
      std::memmove(out, run, static_cast<std::size_t>(p_ - run));
      out += p_ - run;
    }
    expect('"');
    return {start, static_cast<std::size_t>(out - start)};
  }

  /// `p_` after a backslash: the escaped byte.
  char unescape() {
    switch (*p_++) {
      case '"': return '"';
      case '\\': return '\\';
      case '/': return '/';
      case 'n': return '\n';
      case 't': return '\t';
      case 'r': return '\r';
      case 'u': {
        if (end_ - p_ < 4) throw std::runtime_error("bad \\u");
        unsigned cp = 0;
        const auto [stop, ec] = std::from_chars(p_, p_ + 4, cp, 16);
        // from_chars takes no sign or prefix, so 4 consumed bytes are
        // exactly 4 hex digits.
        if (ec != std::errc() || stop != p_ + 4)
          throw std::runtime_error("bad \\u digits");
        // The writer only emits \u for ASCII control characters; anything
        // wider would be silently truncated here, so reject.
        if (cp > 0x7F)
          throw std::runtime_error("non-ASCII \\u escape unsupported");
        p_ += 4;
        return static_cast<char>(cp);
      }
      default: throw std::runtime_error("bad escape");
    }
  }

  void parse_bool(Value& v) {
    v.type = Value::Type::kBool;
    if (end_ - p_ >= 4 && std::memcmp(p_, "true", 4) == 0) {
      v.boolean = true;
      p_ += 4;
    } else if (end_ - p_ >= 5 && std::memcmp(p_, "false", 5) == 0) {
      p_ += 5;
    } else {
      throw std::runtime_error("bad literal");
    }
  }

  void parse_null() {
    if (end_ - p_ < 4 || std::memcmp(p_, "null", 4) != 0)
      throw std::runtime_error("bad literal");
    p_ += 4;
  }

  /// The token is the maximal run of [0-9.eE+-]; it must then be wholly
  /// an in-range int64 in strtoll's form, or else (with '.', 'e' or 'E')
  /// wholly a strtod decimal. from_chars reads both from the text in
  /// place; it takes no leading '+', which strtoll/strtod allow.
  void parse_number(Value& v) {
    const char* const start = p_;
    bool integral = true;
    while (p_ < end_ && is(*p_, kNumeric)) {
      integral = integral && !is(*p_, kFraction);
      ++p_;
    }
    if (p_ == start) throw std::runtime_error("bad number");
    v.type = Value::Type::kNumber;
    v.integral = integral;
    const char* first = start;
    if (*first == '+' && p_ - first > 1 && first[1] != '-') ++first;
    if (integral) {
      const auto [stop, ec] = std::from_chars(first, p_, v.integer);
      if (ec != std::errc() || stop != p_) bad_number(start);
      // strtod's view of the same digits, the sign of "-0" included.
      v.number = v.integer == 0 && *start == '-'
                     ? -0.0
                     : static_cast<double>(v.integer);
      return;
    }
    const auto [stop, ec] = std::from_chars(first, p_, v.number);
    if (stop != p_ ||
        (ec != std::errc() && ec != std::errc::result_out_of_range))
      bad_number(start);
    // Out of range: strtod's saturated value (+/-inf, or 0 or a subnormal).
    if (ec == std::errc::result_out_of_range)
      v.number = std::strtod(token(start).c_str(), nullptr);
  }

  std::string token(const char* start) const {
    return {start, static_cast<std::size_t>(p_ - start)};
  }
  [[noreturn]] void bad_number(const char* start) const {
    throw std::runtime_error("bad number '" + token(start) + "'");
  }

  Document& doc_;
  std::byte* block_ = nullptr;
  std::size_t left_ = 0;
  std::size_t next_block_;
  char* text_ = nullptr;  ///< the arena's copy of the input
  char* p_ = nullptr;
  char* end_ = nullptr;
  Stack<Value> values_;
  Stack<Member> members_;
};

}  // namespace detail

Document parse(std::string_view text) {
  Document doc;
  detail::Parser(text, doc).run();
  return doc;
}

// ---------------------------------------------------------------------------
// scan_member
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kNpos = std::string_view::npos;

std::size_t scan_to(std::string_view t, std::size_t p, std::uint8_t mask) {
  return static_cast<std::size_t>(
      skip_to(t.data() + p, t.data() + t.size(), mask) - t.data());
}

std::size_t scan_ws(std::string_view t, std::size_t p) {
  while (p < t.size() && is(t[p], kSpace)) ++p;
  return p;
}

/// `p` at the opening quote; returns one past the closing quote.
std::size_t scan_string(std::string_view t, std::size_t p) {
  for (p = scan_to(t, p + 1, kStringStop); p < t.size();
       p = scan_to(t, p + 2, kStringStop)) {  // '\\' escapes the next byte
    if (t[p] == '"') return p + 1;
    if (p + 2 > t.size()) break;
  }
  return kNpos;
}

/// Set bits of a mask, without the libgcc call std::popcount is where the
/// POPCNT instruction is not assumed.
int count_bits(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<int>((x * 0x0101010101010101ull) >> 56);
}

/// `p` at an opening bracket; returns one past its matching close. A
/// scalar state machine, sped up where SSE2 exists: 64 bytes at a time,
/// it masks quotes and brackets, marks the in-string bytes by a prefix XOR
/// of the quote mask, and walks the bracket bits one by one only when the
/// block might close the container. A block holding a backslash goes
/// through the state machine, which alone handles escapes.
std::size_t scan_container(std::string_view t, std::size_t p) {
  const char* const s = t.data();
  const std::size_t n = t.size();
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  while (p < n) {
#if defined(__SSE2__)
    if (!escaped && n - p >= 64) {
      std::uint64_t quotes = 0, backslashes = 0, opens = 0, closes = 0;
      for (int k = 0; k < 4; ++k) {
        const __m128i v =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + p + 16 * k));
        const auto mask = [&](char a, char b) {
          const auto bits = static_cast<unsigned>(_mm_movemask_epi8(
              _mm_or_si128(_mm_cmpeq_epi8(v, _mm_set1_epi8(a)),
                           _mm_cmpeq_epi8(v, _mm_set1_epi8(b)))));
          return std::uint64_t{bits} << (16 * k);
        };
        quotes |= mask('"', '"');
        backslashes |= mask('\\', '\\');
        opens |= mask('{', '[');
        closes |= mask('}', ']');
      }
      if (backslashes == 0) {
        std::uint64_t in = quotes;
        for (int shift = 1; shift < 64; shift *= 2) in ^= in << shift;
        if (in_string) in = ~in;
        in_string = in >> 63;
        opens &= ~in;
        closes &= ~in;
        if (const int closed = count_bits(closes); closed < depth) {
          depth += count_bits(opens) - closed;
        } else {
          for (std::uint64_t e = opens | closes; e != 0; e &= e - 1) {
            const int i = std::countr_zero(e);
            if (opens >> i & 1u) ++depth;
            else if (--depth == 0) return p + static_cast<std::size_t>(i) + 1;
          }
        }
        p += 64;
        continue;
      }
    }
#endif
    const char c = s[p++];
    if (escaped) {
      escaped = false;
    } else if (in_string) {
      if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if ((c == '}' || c == ']') && --depth == 0) {
      return p;
    }
  }
  return kNpos;
}

/// `p` at the first byte of a value; returns one past its last byte.
std::size_t scan_value(std::string_view t, std::size_t p) {
  if (p >= t.size()) return kNpos;
  const char c = t[p];
  if (c == '"') return scan_string(t, p);
  if (c == '{' || c == '[') return scan_container(t, p);
  // number / true / false / null: up to the next structural delimiter
  return scan_to(t, p, kDelimiter | kSpace);
}

}  // namespace

std::string_view scan_member(std::string_view text, std::string_view key) {
  std::size_t p = scan_ws(text, 0);
  if (p >= text.size() || text[p] != '{') return {};
  ++p;
  while (true) {
    p = scan_ws(text, p);
    if (p >= text.size() || text[p] != '"') return {};
    const std::size_t key_begin = p + 1;
    const std::size_t key_close = scan_string(text, p);
    if (key_close == kNpos) return {};
    // Compared against the RAW key bytes: a key that needs unescaping to
    // match simply misses, and the caller's full parse handles it.
    const std::string_view raw_key =
        text.substr(key_begin, key_close - 1 - key_begin);
    p = scan_ws(text, key_close);
    if (p >= text.size() || text[p] != ':') return {};
    p = scan_ws(text, p + 1);
    const std::size_t value_begin = p;
    const std::size_t value_end = scan_value(text, p);
    if (value_end == kNpos) return {};
    if (raw_key == key)
      return text.substr(value_begin, value_end - value_begin);
    p = scan_ws(text, value_end);
    if (p >= text.size() || text[p] != ',') return {};
    ++p;
  }
}

}  // namespace karma::util::json
