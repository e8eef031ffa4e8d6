#include "dtree/sha256.hpp"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define PDT_SHA_NI 1
#endif

namespace pdt::dtree {

namespace {

using State = std::array<std::uint32_t, 8>;
/// Folds `blocks` consecutive 64-byte blocks into the state.
using CompressFn = void (*)(State& h, const std::uint8_t* data,
                            std::size_t blocks);

alignas(16) constexpr std::array<std::uint32_t, 64> kRound = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void compress_portable(State& h, const std::uint8_t* data,
                       std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int t = 0; t < 16; ++t) {
      w[t] = (static_cast<std::uint32_t>(data[4 * t]) << 24) |
             (static_cast<std::uint32_t>(data[4 * t + 1]) << 16) |
             (static_cast<std::uint32_t>(data[4 * t + 2]) << 8) |
             static_cast<std::uint32_t>(data[4 * t + 3]);
    }
    for (int t = 16; t < 64; ++t) {
      const std::uint32_t s0 =
          rotr(w[t - 15], 7) ^ rotr(w[t - 15], 18) ^ (w[t - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[t - 2], 17) ^ rotr(w[t - 2], 19) ^ (w[t - 2] >> 10);
      w[t] = w[t - 16] + s0 + w[t - 7] + s1;
    }
    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    std::uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int t = 0; t < 64; ++t) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = hh + s1 + ch + kRound[t] + w[t];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      hh = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
    h[5] += f;
    h[6] += g;
    h[7] += hh;
  }
}

#ifdef PDT_SHA_NI
/// The same rounds on the x86 SHA extensions. The state lives in two
/// registers as (A,B,E,F) and (C,D,G,H), the layout sha256rnds2 wants;
/// each of the 16 steps runs four rounds and extends the message
/// schedule by four words with sha256msg1/msg2.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_sha_ni(
    State& h, const std::uint8_t* data, std::size_t blocks) {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&h[0])), 0xB1);  // CDAB
  __m128i cdgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&h[4])), 0x1B);  // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // message words t-16..t-1, four per register, ring-indexed
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      __m128i& wi = w[i & 3];
      if (i < 4) {
        wi = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
            bswap);
      } else {
        const __m128i& prev = w[(i + 3) & 3];  // words t-4..t-1
        const __m128i w7 = _mm_alignr_epi8(prev, w[(i + 2) & 3], 4);
        wi = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(wi, w[(i + 1) & 3]), w7),
            prev);
      }
      __m128i msg = _mm_add_epi32(
          wi, _mm_load_si128(reinterpret_cast<const __m128i*>(&kRound[4 * i])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);   // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);  // DCHG
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&h[0]),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&h[4]),
                   _mm_alignr_epi8(cdgh, tmp, 8));  // HGFE
}

bool cpu_has_sha_ni() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  const bool ssse3 = (c & bit_SSSE3) != 0;
  const bool sse41 = (c & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  const bool sha = (b & (1u << 29)) != 0;
  return ssse3 && sse41 && sha;
}
#endif

CompressFn dispatched() {
#ifdef PDT_SHA_NI
  static const CompressFn fn =
      cpu_has_sha_ni() ? compress_sha_ni : compress_portable;
  return fn;
#else
  return compress_portable;
#endif
}

std::array<std::uint8_t, 32> digest(CompressFn compress,
                                    std::string_view data) {
  State h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(data.data());
  const std::size_t full = data.size() / 64;
  if (full > 0) compress(h, bytes, full);
  const std::size_t n = data.size() - 64 * full;
  // Final block(s): remainder + 0x80 + zero pad + 64-bit big-endian length.
  std::uint8_t tail[128] = {};
  if (n > 0) std::memcpy(tail, bytes + 64 * full, n);
  tail[n] = 0x80;
  const std::size_t blocks = n + 1 + 8 > 64 ? 2 : 1;
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[blocks * 64 - 1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  compress(h, tail, blocks);
  std::array<std::uint8_t, 32> out{};
  for (std::size_t i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(h[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h[i]);
  }
  return out;
}

}  // namespace

std::array<std::uint8_t, 32> sha256(std::string_view data) {
  return digest(dispatched(), data);
}

std::array<std::uint8_t, 32> sha256_portable(std::string_view data) {
  return digest(compress_portable, data);
}

bool sha256_uses_sha_ni() { return dispatched() != compress_portable; }

std::string sha256_hex(std::string_view data) {
  static constexpr char kHex[] = "0123456789abcdef";
  const std::array<std::uint8_t, 32> raw = sha256(data);
  std::string out(64, '\0');
  for (std::size_t i = 0; i < raw.size(); ++i) {
    out[2 * i] = kHex[raw[i] >> 4];
    out[2 * i + 1] = kHex[raw[i] & 0xf];
  }
  return out;
}

}  // namespace pdt::dtree
