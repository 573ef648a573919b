#include "crypto/sha256.h"

#include <cstring>

#include "crypto/kernels.h"

#ifdef ROCKFS_X86_KERNELS
#include <immintrin.h>
#endif

namespace rockfs::crypto {

namespace {
constexpr std::uint32_t kK[64] = {
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

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// The reference compression function (FIPS 180-4 §6.2.2), one block at a time.
void blocks_portable(std::uint32_t* state, const Byte* block, std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, block += Sha256::kBlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
             (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef ROCKFS_X86_KERNELS

// SHA-NI compression. The state lives in two registers in the ABEF/CDGH
// order SHA256RNDS2 expects; each group of four rounds adds four constants to
// four message words, and SHA256MSG1/MSG2 extend the schedule four words at a
// time while the rounds run.
__attribute__((target("sha,sse4.1"))) void blocks_shani(std::uint32_t* state,
                                                        const Byte* blocks,
                                                        std::size_t nblocks) {
  const __m128i byteswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const auto* words = reinterpret_cast<const __m128i*>(state);
  __m128i tmp = _mm_shuffle_epi32(_mm_loadu_si128(words), 0xB1);         // CDAB
  __m128i state1 = _mm_shuffle_epi32(_mm_loadu_si128(words + 1), 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);                      // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);                           // CDGH

  for (; nblocks > 0; --nblocks, blocks += Sha256::kBlockSize) {
    const __m128i abef = state0, cdgh = state1;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = w[g % 4];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)), byteswap);
      }
      const __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g));
      __m128i msg = _mm_add_epi32(cur, k);
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      if (g >= 3 && g <= 14) {
        // Words of group g+1 from groups g-3..g.
        __m128i& next = w[(g + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, w[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      if (g >= 1 && g <= 12) {
        // First half of the schedule for group g+3.
        __m128i& prev = w[(g + 3) % 4];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    state0 = _mm_add_epi32(state0, abef);
    state1 = _mm_add_epi32(state1, cdgh);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

#endif  // ROCKFS_X86_KERNELS

}  // namespace

namespace detail {

std::span<const Sha256Kernel> sha256_kernels() {
  static const Sha256Kernel kKernels[] = {
#ifdef ROCKFS_X86_KERNELS
      {"shani", "SHA-NI+SSE4.1",
       __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1"), &blocks_shani},
#endif
      {"portable", "none", true, &blocks_portable},
  };
  return kKernels;
}

const Sha256Kernel& sha256_kernel() {
  static const Sha256Kernel& chosen = common::first_supported(sha256_kernels());
  return chosen;
}

}  // namespace detail

Sha256::Sha256()
    : h_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(BytesView data) {
  const auto compress = detail::sha256_kernel().fn;
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(kBlockSize - buf_len_, data.size());
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == kBlockSize) {
      compress(h_.data(), buf_.data(), 1);
      buf_len_ = 0;
    }
  }
  const std::size_t whole = (data.size() - off) / kBlockSize;
  if (whole > 0) {
    compress(h_.data(), data.data() + off, whole);
    off += whole * kBlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Bytes Sha256::finish() {
  // The buffered tail, 0x80, zeros and the 64-bit big-endian bit length: one
  // block, or two when fewer than 9 bytes are left after the tail.
  const std::uint64_t bit_len = total_len_ * 8;
  Byte last[2 * kBlockSize] = {};
  std::memcpy(last, buf_.data(), buf_len_);
  last[buf_len_] = 0x80;
  const std::size_t blocks = buf_len_ + 9 <= kBlockSize ? 1 : 2;
  for (int i = 0; i < 8; ++i) {
    last[blocks * kBlockSize - 1 - i] = static_cast<Byte>(bit_len >> (8 * i));
  }
  detail::sha256_kernel().fn(h_.data(), last, blocks);

  Bytes out(kDigestSize);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      out[static_cast<std::size_t>(4 * i + j)] = static_cast<Byte>(h_[static_cast<std::size_t>(i)] >> (8 * (3 - j)));
    }
  }
  return out;
}

Bytes Sha256::hash(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Bytes sha256(BytesView data) { return Sha256::hash(data); }

}  // namespace rockfs::crypto
