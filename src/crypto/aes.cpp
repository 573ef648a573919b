#include "crypto/aes.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "crypto/hmac.h"
#include "crypto/kernels.h"

#ifdef ROCKFS_X86_KERNELS
#include <immintrin.h>
#endif

namespace rockfs::crypto {

namespace {

// GF(2^8) multiplication modulo the AES polynomial x^8+x^4+x^3+x+1 (0x11B).
Byte gmul(Byte a, Byte b) {
  Byte p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    const bool hi = a & 0x80;
    a = static_cast<Byte>(a << 1);
    if (hi) a ^= 0x1B;
    b >>= 1;
  }
  return p;
}

struct SboxTables {
  std::array<Byte, 256> sbox{};
  std::array<Byte, 256> mul2{};
  std::array<Byte, 256> mul3{};
};

// Builds the AES S-box from first principles: multiplicative inverse in
// GF(2^8) followed by the affine transform b ^= rotl(b,1)^rotl(b,2)^rotl(b,3)^rotl(b,4)^0x63.
const SboxTables& tables() {
  static const SboxTables t = [] {
    SboxTables out;
    // Inverses via brute force (runs once).
    std::array<Byte, 256> inv{};
    for (int a = 1; a < 256; ++a) {
      for (int b = 1; b < 256; ++b) {
        if (gmul(static_cast<Byte>(a), static_cast<Byte>(b)) == 1) {
          inv[static_cast<std::size_t>(a)] = static_cast<Byte>(b);
          break;
        }
      }
    }
    auto rotl8 = [](Byte x, int n) {
      return static_cast<Byte>((x << n) | (x >> (8 - n)));
    };
    for (int a = 0; a < 256; ++a) {
      const Byte b = inv[static_cast<std::size_t>(a)];
      out.sbox[static_cast<std::size_t>(a)] = static_cast<Byte>(
          b ^ rotl8(b, 1) ^ rotl8(b, 2) ^ rotl8(b, 3) ^ rotl8(b, 4) ^ 0x63);
      out.mul2[static_cast<std::size_t>(a)] = gmul(static_cast<Byte>(a), 2);
      out.mul3[static_cast<std::size_t>(a)] = gmul(static_cast<Byte>(a), 3);
    }
    return out;
  }();
  return t;
}

std::uint32_t sub_word(std::uint32_t w) {
  const auto& s = tables().sbox;
  return (static_cast<std::uint32_t>(s[(w >> 24) & 0xFF]) << 24) |
         (static_cast<std::uint32_t>(s[(w >> 16) & 0xFF]) << 16) |
         (static_cast<std::uint32_t>(s[(w >> 8) & 0xFF]) << 8) |
         static_cast<std::uint32_t>(s[w & 0xFF]);
}

std::uint32_t rot_word(std::uint32_t w) { return (w << 8) | (w >> 24); }

}  // namespace

Aes256::Aes256(BytesView key) {
  if (key.size() != kKeySize) throw std::invalid_argument("Aes256: key must be 32 bytes");
  constexpr int nk = 8;  // 256-bit key = 8 words
  for (int i = 0; i < nk; ++i) {
    round_keys_[static_cast<std::size_t>(i)] =
        (static_cast<std::uint32_t>(key[static_cast<std::size_t>(4 * i)]) << 24) |
        (static_cast<std::uint32_t>(key[static_cast<std::size_t>(4 * i + 1)]) << 16) |
        (static_cast<std::uint32_t>(key[static_cast<std::size_t>(4 * i + 2)]) << 8) |
        static_cast<std::uint32_t>(key[static_cast<std::size_t>(4 * i + 3)]);
  }
  Byte rcon = 0x01;
  for (int i = nk; i < 4 * (kRounds + 1); ++i) {
    std::uint32_t temp = round_keys_[static_cast<std::size_t>(i - 1)];
    if (i % nk == 0) {
      temp = sub_word(rot_word(temp)) ^ (static_cast<std::uint32_t>(rcon) << 24);
      rcon = gmul(rcon, 2);
    } else if (i % nk == 4) {
      temp = sub_word(temp);
    }
    round_keys_[static_cast<std::size_t>(i)] =
        round_keys_[static_cast<std::size_t>(i - nk)] ^ temp;
  }
}

void Aes256::encrypt_block(Byte block[kBlockSize]) const {
  const auto& sbox = tables().sbox;
  Byte state[4][4];
  // FIPS-197 column-major state layout.
  for (int c = 0; c < 4; ++c)
    for (int r = 0; r < 4; ++r) state[r][c] = block[4 * c + r];

  auto add_round_key = [&](int round) {
    for (int c = 0; c < 4; ++c) {
      const std::uint32_t w = round_keys_[static_cast<std::size_t>(4 * round + c)];
      state[0][c] ^= static_cast<Byte>(w >> 24);
      state[1][c] ^= static_cast<Byte>(w >> 16);
      state[2][c] ^= static_cast<Byte>(w >> 8);
      state[3][c] ^= static_cast<Byte>(w);
    }
  };
  auto sub_bytes = [&] {
    for (auto& row : state)
      for (auto& b : row) b = sbox[b];
  };
  auto shift_rows = [&] {
    for (int r = 1; r < 4; ++r) {
      Byte tmp[4];
      for (int c = 0; c < 4; ++c) tmp[c] = state[r][(c + r) % 4];
      for (int c = 0; c < 4; ++c) state[r][c] = tmp[c];
    }
  };
  const auto& mul2 = tables().mul2;
  const auto& mul3 = tables().mul3;
  auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      const Byte a0 = state[0][c], a1 = state[1][c], a2 = state[2][c], a3 = state[3][c];
      state[0][c] = static_cast<Byte>(mul2[a0] ^ mul3[a1] ^ a2 ^ a3);
      state[1][c] = static_cast<Byte>(a0 ^ mul2[a1] ^ mul3[a2] ^ a3);
      state[2][c] = static_cast<Byte>(a0 ^ a1 ^ mul2[a2] ^ mul3[a3]);
      state[3][c] = static_cast<Byte>(mul3[a0] ^ a1 ^ a2 ^ mul2[a3]);
    }
  };

  add_round_key(0);
  for (int round = 1; round < kRounds; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(kRounds);

  for (int c = 0; c < 4; ++c)
    for (int r = 0; r < 4; ++r) block[4 * c + r] = state[r][c];
}

namespace {

// The reference CTR loop: one encrypt_block per 16 bytes of keystream.
void ctr_portable(const Byte* key32, const Byte* iv16, const Byte* in, Byte* out,
                  std::size_t n) {
  const Aes256 cipher(BytesView(key32, Aes256::kKeySize));
  Byte counter[Aes256::kBlockSize];
  std::memcpy(counter, iv16, Aes256::kBlockSize);
  for (std::size_t off = 0; off < n; off += Aes256::kBlockSize) {
    Byte keystream[Aes256::kBlockSize];
    std::memcpy(keystream, counter, Aes256::kBlockSize);
    cipher.encrypt_block(keystream);
    const std::size_t take = std::min<std::size_t>(Aes256::kBlockSize, n - off);
    for (std::size_t i = 0; i < take; ++i) {
      out[off + i] = static_cast<Byte>(in[off + i] ^ keystream[i]);
    }
    // Increment the counter block big-endian.
    for (int i = Aes256::kBlockSize - 1; i >= 0; --i) {
      if (++counter[i] != 0) break;
    }
  }
}

#ifdef ROCKFS_X86_KERNELS

// x ^ (x << 32) ^ (x << 64) ^ (x << 96): the running XOR of the previous
// round key's words that the AES key schedule needs.
__attribute__((target("aes,sse4.1"))) __m128i spread_words(__m128i x) {
  x = _mm_xor_si128(x, _mm_slli_si128(x, 4));
  return _mm_xor_si128(x, _mm_slli_si128(x, 8));
}

// Round keys 2i and 2i+1 of the AES-256 schedule from 2i-2 and 2i-1
// (FIPS-197 §5.2 with AESKEYGENASSIST supplying SubWord/RotWord/Rcon).
template <int Rcon>
__attribute__((target("aes,sse4.1"))) __m128i next_even_key(__m128i even, __m128i odd) {
  return _mm_xor_si128(spread_words(even),
                       _mm_shuffle_epi32(_mm_aeskeygenassist_si128(odd, Rcon), 0xff));
}

__attribute__((target("aes,sse4.1"))) __m128i next_odd_key(__m128i even, __m128i odd) {
  return _mm_xor_si128(spread_words(odd),
                       _mm_shuffle_epi32(_mm_aeskeygenassist_si128(even, 0), 0xaa));
}

__attribute__((target("aes,sse4.1"))) void expand_key_aesni(const Byte* key32,
                                                            __m128i rk[15]) {
  rk[0] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key32));
  rk[1] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key32 + 16));
  rk[2] = next_even_key<0x01>(rk[0], rk[1]);
  rk[3] = next_odd_key(rk[2], rk[1]);
  rk[4] = next_even_key<0x02>(rk[2], rk[3]);
  rk[5] = next_odd_key(rk[4], rk[3]);
  rk[6] = next_even_key<0x04>(rk[4], rk[5]);
  rk[7] = next_odd_key(rk[6], rk[5]);
  rk[8] = next_even_key<0x08>(rk[6], rk[7]);
  rk[9] = next_odd_key(rk[8], rk[7]);
  rk[10] = next_even_key<0x10>(rk[8], rk[9]);
  rk[11] = next_odd_key(rk[10], rk[9]);
  rk[12] = next_even_key<0x20>(rk[10], rk[11]);
  rk[13] = next_odd_key(rk[12], rk[11]);
  rk[14] = next_even_key<0x40>(rk[12], rk[13]);
}

// The counter block for (hi, lo) as a 128-bit big-endian integer, then
// advances it with the carry propagating across the 64-bit halves.
__m128i next_counter(std::uint64_t& hi, std::uint64_t& lo) {
  const __m128i block = _mm_set_epi64x(static_cast<long long>(__builtin_bswap64(lo)),
                                       static_cast<long long>(__builtin_bswap64(hi)));
  if (++lo == 0) ++hi;
  return block;
}

std::uint64_t load_be64(const Byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return __builtin_bswap64(v);
}

// AES-NI CTR with eight counter blocks in flight, so the AESENC latency of
// one block hides behind the other seven.
__attribute__((target("aes,sse4.1"))) void ctr_aesni(const Byte* key32, const Byte* iv16,
                                                     const Byte* in, Byte* out,
                                                     std::size_t n) {
  constexpr std::size_t kLanes = 8;
  __m128i rk[15];
  expand_key_aesni(key32, rk);
  std::uint64_t hi = load_be64(iv16), lo = load_be64(iv16 + 8);

  std::size_t off = 0;
  for (; off + kLanes * 16 <= n; off += kLanes * 16) {
    __m128i b[kLanes];
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kLanes; ++j) b[j] = _mm_xor_si128(next_counter(hi, lo), rk[0]);
    for (int r = 1; r < Aes256::kRounds; ++r) {
#pragma GCC unroll 8
      for (std::size_t j = 0; j < kLanes; ++j) b[j] = _mm_aesenc_si128(b[j], rk[r]);
    }
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kLanes; ++j) {
      const __m128i ks = _mm_aesenclast_si128(b[j], rk[Aes256::kRounds]);
      const auto* src = reinterpret_cast<const __m128i*>(in + off + 16 * j);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + off + 16 * j),
                       _mm_xor_si128(_mm_loadu_si128(src), ks));
    }
  }
  for (; off < n; off += 16) {
    __m128i ks = _mm_xor_si128(next_counter(hi, lo), rk[0]);
    for (int r = 1; r < Aes256::kRounds; ++r) ks = _mm_aesenc_si128(ks, rk[r]);
    ks = _mm_aesenclast_si128(ks, rk[Aes256::kRounds]);
    if (n - off >= 16) {
      const auto* src = reinterpret_cast<const __m128i*>(in + off);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + off),
                       _mm_xor_si128(_mm_loadu_si128(src), ks));
    } else {
      Byte tail[16];
      _mm_storeu_si128(reinterpret_cast<__m128i*>(tail), ks);
      for (std::size_t i = 0; off + i < n; ++i) {
        out[off + i] = static_cast<Byte>(in[off + i] ^ tail[i]);
      }
    }
  }
}

#endif  // ROCKFS_X86_KERNELS

constexpr std::size_t kSealIv = 16, kSealTag = 32;

struct SealKeys {
  Bytes enc;
  Bytes mac;
};

// Independent cipher and MAC keys from the box key, sharing one HKDF extract.
SealKeys derive_seal_keys(BytesView key) {
  const Bytes prk = hkdf_sha256_extract(key, {});
  return {hkdf_sha256_expand(prk, to_bytes("rockfs.seal.enc"), 32),
          hkdf_sha256_expand(prk, to_bytes("rockfs.seal.mac"), 32)};
}

}  // namespace

namespace detail {

std::span<const AesCtrKernel> aes_ctr_kernels() {
  static const AesCtrKernel kKernels[] = {
#ifdef ROCKFS_X86_KERNELS
      {"aesni", "AES-NI+SSE4.1",
       __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse4.1"), &ctr_aesni},
#endif
      {"portable", "none", true, &ctr_portable},
  };
  return kKernels;
}

const AesCtrKernel& aes_ctr_kernel() {
  static const AesCtrKernel& chosen = common::first_supported(aes_ctr_kernels());
  return chosen;
}

}  // namespace detail

Bytes aes256_ctr(BytesView key, BytesView iv, BytesView data) {
  if (key.size() != Aes256::kKeySize) {
    throw std::invalid_argument("Aes256: key must be 32 bytes");
  }
  if (iv.size() != Aes256::kBlockSize) {
    throw std::invalid_argument("aes256_ctr: iv must be 16 bytes");
  }
  Bytes out(data.size());
  detail::aes_ctr_kernel().fn(key.data(), iv.data(), data.data(), out.data(), data.size());
  return out;
}

Bytes seal(BytesView key, BytesView plaintext, BytesView aad, BytesView iv16) {
  if (iv16.size() != kSealIv) throw std::invalid_argument("seal: iv must be 16 bytes");
  const SealKeys keys = derive_seal_keys(key);

  // Encrypt straight into the box and MAC aad || iv || ct where it lies.
  Bytes out(kSealIv + plaintext.size() + kSealTag);
  std::copy(iv16.begin(), iv16.end(), out.begin());
  detail::aes_ctr_kernel().fn(keys.enc.data(), iv16.data(), plaintext.data(),
                              out.data() + kSealIv, plaintext.size());
  HmacSha256 mac(keys.mac);
  mac.update(aad);
  mac.update(BytesView(out).first(kSealIv + plaintext.size()));
  const Bytes tag = mac.finish();
  std::copy(tag.begin(), tag.end(), out.end() - kSealTag);
  return out;
}

Result<Bytes> open_sealed(BytesView key, BytesView box, BytesView aad) {
  if (box.size() < kSealIv + kSealTag) {
    return Error{ErrorCode::kCorrupted, "sealed box too short"};
  }
  const SealKeys keys = derive_seal_keys(key);

  const BytesView body = box.first(box.size() - kSealTag);
  HmacSha256 mac(keys.mac);
  mac.update(aad);
  mac.update(body);
  if (!ct_equal(mac.finish(), box.last(kSealTag))) {
    return Error{ErrorCode::kIntegrity, "sealed box MAC mismatch"};
  }
  return aes256_ctr(keys.enc, body.first(kSealIv), body.subspan(kSealIv));
}

}  // namespace rockfs::crypto
