// util::json double round-trip fuzz: calibration factors, profile timings,
// and plan costs all ride Writer::value(double)'s %.17g emission, and the
// content-hash / golden-fixture guarantees assume emit -> parse -> emit is
// bit-exact. This test drives random IEEE-754 bit patterns (deterministic
// seed, so CI failures reproduce) through a Writer array and back through
// parse(), comparing the raw bits of the parsed double view.
//
// Differential tests pin the writer and the number reader to the libc
// functions they replaced: every double the Writer prints is byte-equal to
// snprintf("%.17g"), and every number token is accepted or rejected, and
// valued, exactly as a strtoll/strtod reader of the whole token would.
#include <cctype>
#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/json.h"

namespace karma::util::json {
namespace {

std::uint64_t bits_of(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

double double_of(std::uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

/// Emits `values` as one JSON array and parses it back.
Document round_trip(const std::vector<double>& values, std::string* text) {
  Writer w;
  w.begin_array();
  for (const double d : values) w.value(d);
  w.end_array();
  *text = w.take();
  return parse(*text);
}

TEST(JsonFuzz, RandomBitPatternDoublesRoundTripBitExact) {
  // Fixed seed: a failure here must reproduce, not flake.
  std::mt19937_64 rng(0xD0B1E5EEDULL);
  constexpr int kBatches = 64;
  constexpr int kPerBatch = 64;
  int tested = 0;

  for (int batch = 0; batch < kBatches; ++batch) {
    std::vector<double> values;
    values.reserve(kPerBatch);
    while (values.size() < kPerBatch) {
      const double d = double_of(rng());
      if (std::isnan(d)) continue;  // Writer rejects NaN by contract
      values.push_back(d);
    }
    std::string text;
    const Document root = round_trip(values, &text);
    ASSERT_EQ(root.as_array().size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      // Compare the strtod view (`number`), not as_double(): a token
      // like "-0" parses as integral and as_double() returns the int
      // cast (+0.0), but the double view preserves the sign bit.
      ASSERT_EQ(bits_of(root.as_array()[i].number), bits_of(values[i]))
          << "value " << i << " drifted through '" << text << "'";
      ++tested;
    }
  }
  EXPECT_EQ(tested, kBatches * kPerBatch);
}

TEST(JsonFuzz, UniformMagnitudeDoublesRoundTripBitExact) {
  // Bit-pattern sampling is dominated by huge/tiny exponents; also sweep
  // the "ordinary" magnitudes cost models actually produce.
  std::mt19937_64 rng(0xCA11B8A7EDULL);
  std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-30, 30);
  std::vector<double> values;
  for (int i = 0; i < 4096; ++i)
    values.push_back(std::ldexp(mantissa(rng), exponent(rng)));
  values.push_back(0.0);
  values.push_back(-0.0);
  values.push_back(std::numeric_limits<double>::denorm_min());
  values.push_back(-std::numeric_limits<double>::denorm_min());
  values.push_back(std::numeric_limits<double>::min());
  values.push_back(std::numeric_limits<double>::max());
  values.push_back(-std::numeric_limits<double>::max());
  values.push_back(std::numeric_limits<double>::epsilon());

  std::string text;
  const Document root = round_trip(values, &text);
  ASSERT_EQ(root.as_array().size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    ASSERT_EQ(bits_of(root.as_array()[i].number), bits_of(values[i])) << i;
}

TEST(JsonFuzz, SecondEmitIsByteIdentical) {
  // emit -> parse -> emit must be a fixed point: content hashes and golden
  // fixtures both lean on this.
  std::mt19937_64 rng(0x5EC0DD1ULL);
  std::vector<double> values;
  while (values.size() < 512) {
    const double d = double_of(rng());
    if (!std::isnan(d)) values.push_back(d);
  }
  std::string first;
  const Document root = round_trip(values, &first);
  Writer again;
  again.begin_array();
  for (const Value& v : root.as_array()) again.value(v.number);
  again.end_array();
  EXPECT_EQ(again.take(), first);
}

TEST(JsonFuzz, RandomInt64RoundTripsThroughTheIntegerView) {
  std::mt19937_64 rng(0x1234CAFEULL);
  std::vector<std::int64_t> values = {
      0,
      -1,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min(),
  };
  for (int i = 0; i < 2048; ++i)
    values.push_back(static_cast<std::int64_t>(rng()));

  Writer w;
  w.begin_array();
  for (const std::int64_t v : values) w.value(v);
  w.end_array();
  const std::string text = w.take();
  const Document root = parse(text);
  ASSERT_EQ(root.as_array().size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_TRUE(root.as_array()[i].integral) << i;
    ASSERT_EQ(root.as_array()[i].as_int(), values[i]) << i;
  }
}

TEST(JsonFuzz, NanIsRejectedInfinitiesOverflowBack) {
  // A throwing value() leaves the Writer's comma state behind, so the
  // NaN probe gets its own scratch writer.
  Writer scratch;
  EXPECT_THROW(scratch.value(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  Writer w;
  w.begin_array();
  // Infinities emit as overflowing decimals; strtod saturates them back.
  w.value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.end_array();
  const Document root = parse(w.take());
  ASSERT_EQ(root.as_array().size(), 2u);
  EXPECT_EQ(root.as_array()[0].number, std::numeric_limits<double>::infinity());
  EXPECT_EQ(root.as_array()[1].number, -std::numeric_limits<double>::infinity());
}

TEST(JsonFuzz, DoublesPrintExactlyAsPrintfDoes) {
  std::vector<double> values = {0.0,
                                -0.0,
                                DBL_MIN,
                                -DBL_MIN,
                                DBL_MAX,
                                -DBL_MAX,
                                DBL_TRUE_MIN,  // 5e-324
                                -DBL_TRUE_MIN,
                                DBL_MIN - DBL_TRUE_MIN,  // largest subnormal
                                1e-310,
                                1.0,
                                0.1,
                                1e16,
                                1e17,
                                123456789012345678.0,
                                DBL_EPSILON,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity()};
  std::mt19937_64 rng(0x9E3779B97F4A7C15ULL);
  while (values.size() < 1'000'000) {
    const double d = double_of(rng());
    if (!std::isnan(d)) values.push_back(d);
  }
  std::string out;
  char expected[40];
  for (const double d : values) {
    Writer w(std::move(out));
    w.value(d);
    out = w.take();
    if (std::isinf(d)) {
      ASSERT_EQ(out, d > 0 ? "1e999" : "-1e999");
      continue;
    }
    std::snprintf(expected, sizeof expected, "%.17g", d);
    ASSERT_EQ(out, expected) << "bits " << bits_of(d);
  }
}

/// What the strtoll/strtod reader that the parser's number reader
/// replaced made of a whole number token.
struct LibcNumber {
  bool ok = false;
  bool integral = false;
  std::int64_t integer = 0;
  double number = 0;
};

LibcNumber libc_number(const std::string& token) {
  LibcNumber r;
  r.integral = token.find_first_of(".eE") == std::string::npos;
  char* end = nullptr;
  if (r.integral) {
    errno = 0;
    r.integer = std::strtoll(token.c_str(), &end, 10);
    if (end != token.c_str() + token.size() || errno == ERANGE) return r;
  }
  r.number = std::strtod(token.c_str(), &end);
  r.ok = end == token.c_str() + token.size();
  return r;
}

/// Parses `token` as the one element of an array and checks it against
/// libc_number.
void expect_libc_agrees(const std::string& token) {
  const LibcNumber want = libc_number(token);
  const std::string text = "[" + token + "]";
  if (!want.ok) {
    EXPECT_THROW(parse(text), std::runtime_error) << token;
    return;
  }
  Document root;
  ASSERT_NO_THROW(root = parse(text)) << token;
  const Value& v = root.as_array()[0];
  ASSERT_EQ(v.type, Value::Type::kNumber) << token;
  EXPECT_EQ(v.integral, want.integral) << token;
  if (want.integral) {
    EXPECT_EQ(v.integer, want.integer) << token;
  }
  EXPECT_EQ(bits_of(v.number), bits_of(want.number)) << token;
}

TEST(JsonFuzz, NumberTokensReadExactlyAsStrtollAndStrtodDo) {
  for (const char* token :
       {"0", "-0", "+0", "00", "-00", "01", "+1", "-1", "+", "-", "++1",
        "+-1", "-+1", "--1", "1-", "1+", "1-1", ".5", "+.5", "-.5", "1.",
        "-1.", ".", "..", "1..", "1.2.3", "e", "E5", "e5", ".e1", "1.e1",
        "1e", "1e+", "1e-", "1e+5", "1E-5", "1e5e5", "1e999", "-1e999",
        "1e-999", "-1e-999", "4.9e-324", "2.4e-324", "2.5e-324", "1e-310",
        "1.7976931348623157e308", "1.7976931348623159e308",
        "9223372036854775807", "9223372036854775808",
        "-9223372036854775808", "-9223372036854775809",
        "+9223372036854775807", "99999999999999999999",
        "12345678901234567890123456789",
        "0.1000000000000000055511151231257827",
        "1.00000000000000011102230246251565404236316680908203125"})
    expect_libc_agrees(token);

  // Random tokens over the number scanner's alphabet, digits weighted up.
  std::mt19937_64 rng(0x70CE115ULL);
  const std::string alphabet =
      "0123456789012345678901234567890123456789.eE+-";
  for (int i = 0; i < 300'000; ++i) {
    std::string token(1 + rng() % 12, ' ');
    for (char& c : token) c = alphabet[rng() % alphabet.size()];
    expect_libc_agrees(token);
    if (HasFailure()) return;
  }
}

TEST(JsonFuzz, DuplicateKeysReadTheirFirstOccurrence) {
  const Document root = parse(R"({"a":1,"b":true,"a":2})");
  EXPECT_EQ(root.at("a").as_int(), 1);
  EXPECT_TRUE(root.has("b"));
  EXPECT_FALSE(root.has("c"));
  // Every member stays visible, in source order.
  ASSERT_EQ(root.as_object().size(), 3u);
  EXPECT_EQ(root.as_object()[2].key, "a");
  EXPECT_EQ(root.as_object()[2].value.as_int(), 2);
}

TEST(JsonFuzz, StringsUnescapeAndKeepTheirSourceSpans) {
  const std::string text =
      R"({"k\"ey":"a\\b\/c\n\t\r\u0001\u007f","":"","x":["y",{"z":null}]})";
  const Document root = parse(text);
  EXPECT_EQ(root.as_object()[0].key, "k\"ey");
  EXPECT_EQ(root.at("k\"ey").as_string(), "a\\b/c\n\t\r\x01\x7f");
  EXPECT_EQ(root.at("").as_string(), "");
  EXPECT_EQ(root.at("x").span(text), R"(["y",{"z":null}])");
  EXPECT_TRUE(root.at("x").as_array()[1].at("z").is_null());
  // What the writer escapes, the parser reads back.
  const std::string_view key("q\"\x02", 3);
  const std::string_view value("\0\\\n", 3);
  Writer w;
  w.begin_object();
  w.key(key);
  w.value(value);
  w.end_object();
  const std::string written = w.take();
  EXPECT_EQ(written, R"({"q\"\u0002":"\u0000\\\n"})");
  EXPECT_EQ(parse(written).at(key).as_string(), value);
  for (const char* bad : {R"("\u0080")", R"("\x")", R"("\u12")", R"("abc)",
                          R"("\)", R"("\u+123")"})
    EXPECT_THROW(parse(bad), std::runtime_error) << bad;
}

TEST(JsonFuzz, NestingPastTheDepthBoundIsAParseError) {
  const auto nested = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(parse(nested(kMaxDepth)));
  EXPECT_THROW(parse(nested(kMaxDepth + 1)), std::runtime_error);
  // A million unclosed brackets are refused at the bound, well before the
  // end of the input or of the stack.
  EXPECT_THROW(parse(std::string(1'000'000, '[')), std::runtime_error);
  std::string objects;
  for (int i = 0; i <= kMaxDepth; ++i) objects += R"({"a":)";
  EXPECT_THROW(parse(objects), std::runtime_error);
}

/// The byte-at-a-time scan_member that the table- and SSE2-driven one
/// replaced: the reference of the differential test below.
namespace reference {

constexpr std::size_t kNpos = std::string_view::npos;

bool space(char c) { return std::isspace(static_cast<unsigned char>(c)); }

std::size_t skip_ws(std::string_view t, std::size_t p) {
  while (p < t.size() && space(t[p])) ++p;
  return p;
}

std::size_t string_end(std::string_view t, std::size_t p) {
  for (++p; p < t.size(); ++p) {
    if (t[p] == '\\') ++p;
    else if (t[p] == '"') return p + 1;
  }
  return kNpos;
}

std::size_t value_end(std::string_view t, std::size_t p) {
  if (p >= t.size()) return kNpos;
  if (t[p] == '"') return string_end(t, p);
  if (t[p] == '{' || t[p] == '[') {
    int depth = 0;
    while (p < t.size()) {
      const char d = t[p];
      if (d == '"') {
        p = string_end(t, p);
        if (p == kNpos) return kNpos;
        continue;
      }
      if (d == '{' || d == '[') ++depth;
      else if ((d == '}' || d == ']') && --depth == 0) return p + 1;
      ++p;
    }
    return kNpos;
  }
  while (p < t.size() && t[p] != ',' && t[p] != '}' && t[p] != ']' &&
         !space(t[p]))
    ++p;
  return p;
}

std::string_view scan_member(std::string_view text, std::string_view key) {
  std::size_t p = skip_ws(text, 0);
  if (p >= text.size() || text[p] != '{') return {};
  ++p;
  while (true) {
    p = skip_ws(text, p);
    if (p >= text.size() || text[p] != '"') return {};
    const std::size_t close = string_end(text, p);
    if (close == kNpos) return {};
    const std::string_view raw = text.substr(p + 1, close - 2 - p);
    p = skip_ws(text, close);
    if (p >= text.size() || text[p] != ':') return {};
    p = skip_ws(text, p + 1);
    const std::size_t begin = p;
    const std::size_t end = value_end(text, p);
    if (end == kNpos) return {};
    if (raw == key) return text.substr(begin, end - begin);
    p = skip_ws(text, end);
    if (p >= text.size() || text[p] != ',') return {};
    ++p;
  }
}

}  // namespace reference

/// Random JSON-shaped text whose strings are full of what a scan must not
/// mistake for structure: escaped quotes and backslashes, brackets.
std::string random_json(std::mt19937_64& rng, int depth) {
  static const char* const kPieces[] = {"a",  "\\\"", "\\\\", "{",     "}",
                                        "[",  "]",    ",",    ":",     " ",
                                        "\\n", "\\u0041", "xyz0123456789"};
  const auto string = [&] {
    std::string s = "\"";
    for (int n = static_cast<int>(rng() % 6); n > 0; --n)
      s += kPieces[rng() % std::size(kPieces)];
    return s + "\"";
  };
  switch (depth > 5 ? rng() % 3 : rng() % 5) {
    case 0: return std::to_string(rng() % 100000);
    case 1: return "true";
    case 2: return string();
    case 3: {
      std::string s = "[";
      for (int n = static_cast<int>(rng() % 5); n > 0; --n)
        s += random_json(rng, depth + 1) + (n > 1 ? "," : "");
      return s + "]";
    }
    default: {
      std::string s = "{";
      for (int n = static_cast<int>(rng() % 5); n > 0; --n)
        s += string() + ":" + random_json(rng, depth + 1) + (n > 1 ? "," : "");
      return s + "}";
    }
  }
}

TEST(JsonFuzz, ScanMemberAgreesWithAByteAtATimeScan) {
  std::mt19937_64 rng(0x5CA115ULL);
  const std::string noise = "\"\\{}[], :x";
  for (int i = 0; i < 20'000; ++i) {
    std::string text = "{\"a\":" + random_json(rng, 0) + ", \"k\" : " +
                       random_json(rng, 0) + ",\"z\":" +
                       random_json(rng, 0) + "}";
    // Half the documents get a corrupt byte or lose their tail, so the
    // scan's "confused" exits are compared too.
    if (rng() % 2) text[rng() % text.size()] = noise[rng() % noise.size()];
    if (rng() % 4 == 0) text.resize(rng() % text.size());
    for (const char* key : {"a", "k", "z", "missing"}) {
      const std::string_view want = reference::scan_member(text, key);
      const std::string_view got = scan_member(text, key);
      ASSERT_EQ(got.empty(), want.empty()) << key << " in " << text;
      if (!want.empty()) {
        ASSERT_EQ(got.data(), want.data()) << key << " in " << text;
      }
      ASSERT_EQ(got.size(), want.size()) << key << " in " << text;
    }
  }
}

}  // namespace
}  // namespace karma::util::json
