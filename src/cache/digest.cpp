#include "cache/digest.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace l2l::cache {

namespace {

// Odd multiplicative constants per lane (from the splitmix64/xxh family);
// the exact values are part of the on-disk format -- changing them is a
// cache-version bump, not a tweak.
constexpr std::uint64_t kMulA = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kMulB = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kInitA = 0x8c773be1f6bb3cc1ull;
constexpr std::uint64_t kInitB = 0x5851f42d4c957f2dull;

std::uint64_t splitmix64_fin(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t rotl(std::uint64_t v, int s) {
  return (v << s) | (v >> (64 - s));
}

/// Little-endian word loads: one memcpy (a plain load on little-endian
/// hosts), byte-swapped on big-endian ones, so the values stay
/// byte-order defined.
std::uint32_t load_le32(const unsigned char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big)
    v = ((v & 0xffu) << 24) | ((v & 0xff00u) << 8) | ((v >> 8) & 0xff00u) |
        (v >> 24);
  return v;
}

}  // namespace

std::string Digest128::hex() const {
  static const char* kHex = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t w = i < 8 ? hi : lo;
    const int shift = 56 - 8 * (i % 8);
    const auto byte = static_cast<unsigned>((w >> shift) & 0xff);
    out[static_cast<std::size_t>(2 * i)] = kHex[byte >> 4];
    out[static_cast<std::size_t>(2 * i + 1)] = kHex[byte & 0xf];
  }
  return out;
}

Hasher::Hasher() : a_(kInitA), b_(kInitB) {}

void Hasher::absorb_word(std::uint64_t w) {
  a_ = rotl(a_ ^ (w * kMulA), 29) * kMulB;
  b_ = rotl(b_ ^ (w * kMulB), 31) * kMulA;
}

Hasher& Hasher::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  total_ += n;
  // Fill a partial chunk left over from the previous call first.
  while (pending_n_ > 0 && pending_n_ < 8 && n > 0) {
    pending_[pending_n_++] = *p++;
    --n;
  }
  if (pending_n_ == 8) {
    std::uint64_t w = 0;
    for (int i = 7; i >= 0; --i) w = (w << 8) | pending_[i];  // little-endian
    absorb_word(w);
    pending_n_ = 0;
  }
  while (n >= 8) {
    std::uint64_t w = 0;
    for (int i = 7; i >= 0; --i) w = (w << 8) | p[i];  // little-endian
    absorb_word(w);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    pending_[pending_n_++] = *p++;
    --n;
  }
  return *this;
}

Hasher& Hasher::str(std::string_view s) {
  u64(s.size());
  return bytes(s.data(), s.size());
}

Hasher& Hasher::u64(std::uint64_t v) {
  if (pending_n_ == 0) {
    // Chunk-aligned: v's little-endian bytes are one whole word, which
    // is v itself.
    total_ += 8;
    absorb_word(v);
    return *this;
  }
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  return bytes(buf, 8);
}

Hasher& Hasher::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return u64(bits);
}

Digest128 Hasher::finish() {
  // Flush the tail chunk zero-padded; the total length absorbed below
  // keeps ("a") and ("a\0") distinct.
  if (pending_n_ > 0) {
    std::uint64_t w = 0;
    for (std::size_t i = pending_n_; i-- > 0;) w = (w << 8) | pending_[i];
    absorb_word(w);
    pending_n_ = 0;
  }
  const std::uint64_t len = total_;
  Digest128 d;
  d.hi = splitmix64_fin(a_ ^ rotl(b_, 17) ^ (len * kMulA));
  d.lo = splitmix64_fin(b_ ^ rotl(a_, 23) ^ (len * kMulB) ^ d.hi);
  return d;
}

Digest128 digest_bytes(std::string_view data) {
  Hasher h;
  h.bytes(data.data(), data.size());
  return h.finish();
}

std::uint32_t crc32(std::string_view data, std::uint32_t seed) {
  // Slicing-by-8, tables built on first use from the reflected
  // polynomial: t[0] is the classic byte table, t[k][i] is the CRC of
  // byte i followed by k zero bytes, so one step folds 8 input bytes
  // with 8 independent lookups. The journal CRCs every frame it writes
  // and reads, so this sits on the per-submission path.
  static const auto kTables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
      for (std::size_t i = 0; i < 256; ++i)
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
  }();
  const auto& t = kTables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t c = seed ^ 0xffffffffu;
  while (n >= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace l2l::cache
