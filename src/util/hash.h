// Stable content hashing for cache keys.
//
// The plan cache (src/cache) keys a PlanRequest by streaming its canonical
// binary field list into a hash, and karma-pland digests wire bytes with
// the same hash. The digest must be stable across runs, platforms, and
// library versions — std::hash guarantees none of that — so the function
// is defined here, down to its constants and byte order:
//
//   - Input is consumed in 32-byte stripes of four little-endian 8-byte
//     lanes, loaded with memcpy (no alignment or aliasing assumptions;
//     byte-swapped on a big-endian host, so digests are identical
//     everywhere).
//   - Each lane has its own accumulator. A stripe folds every lane in
//     with a 64x64->128 multiply whose halves are XORed together
//     (`mul_fold`); the four lanes are independent chains, so the
//     multiplies pipeline.
//   - A trailing partial stripe is zero-padded; the total length enters
//     the finalization, so padding cannot alias a longer input.
//   - Finalization folds the four accumulators into two 64-bit words
//     along two differently ordered chains with different multipliers,
//     then avalanches each: a 128-bit digest, which makes accidental
//     collisions in a cache directory astronomically unlikely.
//
// Hasher128 accepts input in arbitrary chunks through a one-stripe
// buffer; the digest depends only on the concatenated bytes, never on
// how they were cut. digest128() is the one-shot form of the same hash.
// It is not a cryptographic hash and is not meant to resist an adversary
// who crafts collisions.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace karma::util {

/// The 8 bytes at `p` as a little-endian word, on any host.
inline std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap64(v);
  return v;
}

/// Writes `v` to `p` as 8 little-endian bytes, on any host.
inline void store_le64(unsigned char* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap64(v);
  std::memcpy(p, &v, sizeof v);
}

/// Full 128-bit product of `a` and `b`, high half XORed into the low half.
inline std::uint64_t mul_fold(std::uint64_t a, std::uint64_t b) {
  __extension__ using U128 = unsigned __int128;
  const U128 p = static_cast<U128>(a) * b;
  return static_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(p >> 64);
}

/// 128-bit digest. Value-comparable and hashable; `hex()` is
/// filesystem-safe (32 lowercase hex chars).
struct Digest128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Digest128&) const = default;

  std::string hex() const {
    static const char* kHex = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i)
      out[static_cast<std::size_t>(15 - i)] = kHex[(hi >> (4 * i)) & 0xF];
    for (int i = 0; i < 16; ++i)
      out[static_cast<std::size_t>(31 - i)] = kHex[(lo >> (4 * i)) & 0xF];
    return out;
  }
};

/// Streaming 128-bit hasher (see the file comment for the construction).
class Hasher128 {
 public:
  static constexpr std::size_t kLanes = 4;
  static constexpr std::size_t kStripe = kLanes * 8;

  void update(const void* data, std::size_t n) {
    if (n == 0) return;  // data may be null (an empty string_view)
    const auto* p = static_cast<const unsigned char*>(data);
    length_ += n;
    if (buffered_ + n < kStripe) {
      std::memcpy(block_ + buffered_, p, n);
      buffered_ += n;
      return;
    }
    if (buffered_ > 0) {
      const std::size_t fill = kStripe - buffered_;
      std::memcpy(block_ + buffered_, p, fill);
      stripe(acc_, block_);
      p += fill;
      n -= fill;
      buffered_ = 0;
    }
    for (; n >= kStripe; p += kStripe, n -= kStripe) stripe(acc_, p);
    std::memcpy(block_, p, n);
    buffered_ = n;
  }
  void update(std::string_view s) { update(s.data(), s.size()); }

  /// Digest of everything updated so far; the hasher stays usable.
  Digest128 finish() const {
    std::uint64_t acc[kLanes];
    std::memcpy(acc, acc_, sizeof acc);
    if (buffered_ > 0) {
      unsigned char tail[kStripe] = {};
      std::memcpy(tail, block_, buffered_);
      stripe(acc, tail);
    }
    std::uint64_t hi = kSeed[0] ^ length_;
    std::uint64_t lo = kSeed[1] ^ mul_fold(length_, kMul[0]);
    for (std::size_t i = 0; i < kLanes; ++i) {
      hi = mul_fold(hi ^ acc[i], kMul[i]);
      lo = mul_fold(lo ^ acc[kLanes - 1 - i], kMul[(i + 2) % kLanes]);
    }
    return {avalanche(hi), avalanche(lo)};
  }

 private:
  // Odd constants: the SplitMix64 and wyhash multipliers.
  static constexpr std::uint64_t kMul[kLanes] = {
      0x9e3779b97f4a7c15ULL, 0xbf58476d1ce4e5b9ULL, 0x94d049bb133111ebULL,
      0xa0761d6478bd642fULL};
  static constexpr std::uint64_t kSeed[kLanes] = {
      0xe7037ed1a0b428dbULL, 0x8ebc6af09c88c6e3ULL, 0x589965cc75374cc3ULL,
      0x1d8e4e27c47d124fULL};

  /// Folds one 32-byte stripe into the four lane accumulators. Adding
  /// the lane back keeps a product that happens to be zero from erasing
  /// the lane's history.
  static void stripe(std::uint64_t* acc, const unsigned char* p) {
    for (std::size_t i = 0; i < kLanes; ++i) {
      const std::uint64_t v = load_le64(p + 8 * i);
      acc[i] = mul_fold(acc[i] ^ v, kMul[i]) + v;
    }
  }

  /// The MurmurHash3 fmix64 finalizer: a bijection that spreads every
  /// input bit over the whole word.
  static std::uint64_t avalanche(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    return x ^ (x >> 33);
  }

  std::uint64_t acc_[kLanes] = {kSeed[0], kSeed[1], kSeed[2], kSeed[3]};
  unsigned char block_[kStripe] = {};
  std::size_t buffered_ = 0;
  std::uint64_t length_ = 0;
};

/// One-shot digest of `data`: Hasher128 over the whole input.
inline Digest128 digest128(std::string_view data) {
  Hasher128 h;
  h.update(data);
  return h.finish();
}

/// Hash-table hash of a digest: its low word is already avalanched.
struct Digest128Hash {
  std::size_t operator()(const Digest128& d) const {
    return static_cast<std::size_t>(d.lo);
  }
};

}  // namespace karma::util
