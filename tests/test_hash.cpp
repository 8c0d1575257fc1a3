// karma::util::Hasher128 / digest128: pinned known answers, chunking
// invariance, single-bit avalanche, and host-independent byte order.
// Cache keys and on-disk entry names are these digests, so any change to
// the hash must show up here first.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/hash.h"
#include "src/util/rng.h"

namespace karma::util {
namespace {

/// Deterministic test input: byte i is (i * 131 + 17) mod 256.
std::string pattern(std::size_t n) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i)
    s[i] = static_cast<char>((i * 131 + 17) & 0xFF);
  return s;
}

std::string random_bytes(Rng& rng, std::size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng.next_below(256));
  return s;
}

TEST(Hasher128, KnownAnswers) {
  // Lengths straddle the 8-byte lane and the 32-byte stripe: empty, a
  // lone byte, one short of a lane, one lane, one short of a stripe, one
  // stripe, one past it, and many stripes with a partial tail.
  const std::vector<std::pair<std::size_t, const char*>> known = {
      {0, "c878db52d77a9b2fff73e86918b2dcb3"},
      {1, "bd48e311ff372c0a549447672e34635f"},
      {7, "18a8e92d42717d83963fc6cd973fd525"},
      {8, "764b5bf265d20e4008074da6c9c7dd2a"},
      {31, "170ab096acb174f25d5fb3b8ebfdd073"},
      {32, "f1b4b57beb3677d226d8ae36cc7d441d"},
      {33, "d66a323a4ed9141772bbdbae9b2c8039"},
      {1000, "a932c8ae29a8e686b22928ec109ae8ea"},
  };
  for (const auto& [n, hex] : known)
    EXPECT_EQ(digest128(pattern(n)).hex(), hex) << "length " << n;
}

TEST(Hasher128, ChunkingDoesNotChangeTheDigest) {
  Rng rng(0x5eed);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string input =
        random_bytes(rng, static_cast<std::size_t>(rng.next_below(300)));
    const Digest128 whole = digest128(input);
    Hasher128 h;
    std::size_t at = 0;
    while (at < input.size()) {
      const std::size_t n = std::min<std::size_t>(
          input.size() - at, static_cast<std::size_t>(rng.next_below(70)));
      h.update(input.data() + at, n);  // n may be 0: a no-op update
      at += n;
    }
    EXPECT_EQ(h.finish(), whole) << "trial " << trial;
  }
}

TEST(Hasher128, FinishLeavesTheHasherUsable) {
  const std::string input = pattern(77);
  Hasher128 h;
  h.update(std::string_view(input).substr(0, 40));
  EXPECT_EQ(h.finish(), digest128(input.substr(0, 40)));
  h.update(std::string_view(input).substr(40));
  EXPECT_EQ(h.finish(), digest128(input));
}

TEST(Hasher128, EverySingleBitFlipChangesBothHalves) {
  const std::string input = pattern(1024);
  const Digest128 base = digest128(input);
  for (std::size_t bit = 0; bit < input.size() * 8; ++bit) {
    std::string flipped = input;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    const Digest128 d = digest128(flipped);
    ASSERT_NE(d.hi, base.hi) << "bit " << bit;
    ASSERT_NE(d.lo, base.lo) << "bit " << bit;
  }
}

TEST(Hasher128, ByteOrderIsPinnedLittleEndian) {
  // Lanes are read little-endian on every host: the first byte is the
  // least significant. A host-order load would fail this on big-endian.
  const unsigned char bytes[8] = {0x01, 0x02, 0x03, 0x04,
                                  0x05, 0x06, 0x07, 0x08};
  EXPECT_EQ(load_le64(bytes), 0x0807060504030201ULL);
  unsigned char out[8] = {};
  store_le64(out, 0x0807060504030201ULL);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(out), 8),
            std::string(reinterpret_cast<const char*>(bytes), 8));
  // A stream of store_le64 words hashes like the equivalent byte string.
  Hasher128 h;
  for (std::uint64_t w : {0x0807060504030201ULL, 0x100f0e0d0c0b0a09ULL}) {
    unsigned char le[8];
    store_le64(le, w);
    h.update(le, sizeof le);
  }
  std::string expected;
  for (int i = 1; i <= 16; ++i) expected.push_back(static_cast<char>(i));
  EXPECT_EQ(h.finish(), digest128(expected));
}

}  // namespace
}  // namespace karma::util
