#include "erasure/reed_solomon.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/executor.h"
#include "erasure/kernels.h"

#ifdef ROCKFS_X86_KERNELS
#include <immintrin.h>
#endif

namespace rockfs::erasure {

namespace {

// The portable kernel: a 256-entry product table for the coefficient.
void mul_acc_table(std::uint8_t coef, const Byte* in, Byte* out, std::size_t n) {
  std::uint8_t product[256];
  for (unsigned x = 0; x < 256; ++x) product[x] = gf::mul(coef, static_cast<std::uint8_t>(x));
  for (std::size_t i = 0; i < n; ++i) out[i] ^= product[in[i]];
}

#ifdef ROCKFS_X86_KERNELS

// Bytes past the last whole vector.
void mul_acc_tail(std::uint8_t coef, const Byte* in, Byte* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] ^= gf::mul(coef, in[i]);
}

// Multiplying by a constant is GF(2)-linear, so it is an 8x8 bit-matrix that
// GF2P8AFFINEQB can apply. (GF2P8MULB cannot be used: it multiplies modulo the
// AES polynomial 0x11B, not this code's 0x11D.) Row i of the matrix, which the
// instruction reads from byte 7-i of the qword, has bit j set when bit i of
// coef * x^j is set.
std::uint64_t affine_matrix(std::uint8_t coef) {
  std::uint64_t m = 0;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t row = 0;
    for (int j = 0; j < 8; ++j) {
      if ((gf::mul(coef, static_cast<std::uint8_t>(1u << j)) >> i) & 1) row |= 1u << j;
    }
    m |= row << (8 * (7 - i));
  }
  return m;
}

__attribute__((target("gfni,avx2"))) void mul_acc_gfni(std::uint8_t coef, const Byte* in,
                                                       Byte* out, std::size_t n) {
  const __m256i matrix = _mm256_set1_epi64x(static_cast<long long>(affine_matrix(coef)));
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    auto* dst = reinterpret_cast<__m256i*>(out + i);
    _mm256_storeu_si256(dst, _mm256_xor_si256(_mm256_loadu_si256(dst),
                                              _mm256_gf2p8affine_epi64_epi8(x, matrix, 0)));
  }
  mul_acc_tail(coef, in + i, out + i, n - i);
}

// Split-nibble tables (the ISA-L technique): coef * x is
// low[x & 15] ^ high[x >> 4], each a 16-entry VPSHUFB lookup.
__attribute__((target("avx2"))) void mul_acc_avx2(std::uint8_t coef, const Byte* in, Byte* out,
                                                  std::size_t n) {
  Byte low[16], high[16];
  for (unsigned x = 0; x < 16; ++x) {
    low[x] = gf::mul(coef, static_cast<std::uint8_t>(x));
    high[x] = gf::mul(coef, static_cast<std::uint8_t>(x << 4));
  }
  const __m256i tlow =
      _mm256_broadcastsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(low)));
  const __m256i thigh =
      _mm256_broadcastsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(high)));
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i lo = _mm256_shuffle_epi8(tlow, _mm256_and_si256(x, nibble));
    const __m256i hi =
        _mm256_shuffle_epi8(thigh, _mm256_and_si256(_mm256_srli_epi64(x, 4), nibble));
    auto* dst = reinterpret_cast<__m256i*>(out + i);
    _mm256_storeu_si256(dst,
                        _mm256_xor_si256(_mm256_loadu_si256(dst), _mm256_xor_si256(lo, hi)));
  }
  mul_acc_tail(coef, in + i, out + i, n - i);
}

#endif  // ROCKFS_X86_KERNELS

// Row `r` of `m` applied to `inputs`: out (out_len bytes, zero on entry)
// becomes sum_c m[r][c] * inputs[c], an input shorter than out_len counting
// as zero-padded. A unit row (a systematic data shard) is a copy.
void code_row(const gf::Matrix& m, std::size_t r, const std::vector<BytesView>& inputs,
              Byte* out, std::size_t out_len, detail::MulAccFn mul_acc) {
  std::size_t nonzero = 0, last = 0;
  for (std::size_t c = 0; c < m.cols(); ++c) {
    if (m.at(r, c) != 0) {
      ++nonzero;
      last = c;
    }
  }
  if (nonzero == 1 && m.at(r, last) == 1) {
    const std::size_t len = std::min(out_len, inputs[last].size());
    if (len > 0) std::memcpy(out, inputs[last].data(), len);
    return;
  }
  for (std::size_t c = 0; c < m.cols(); ++c) {
    const std::size_t len = std::min(out_len, inputs[c].size());
    if (m.at(r, c) != 0 && len > 0) mul_acc(m.at(r, c), inputs[c].data(), out, len);
  }
}

}  // namespace

namespace detail {

std::span<const MulAccKernel> mul_acc_kernels() {
  static const MulAccKernel kKernels[] = {
#ifdef ROCKFS_X86_KERNELS
      {"gfni", "GFNI+AVX2", __builtin_cpu_supports("gfni") && __builtin_cpu_supports("avx2"),
       &mul_acc_gfni},
      {"avx2", "AVX2", __builtin_cpu_supports("avx2") != 0, &mul_acc_avx2},
#endif
      {"table", "none", true, &mul_acc_table},
  };
  return kKernels;
}

const MulAccKernel& mul_acc_kernel() {
  static const MulAccKernel& chosen = common::first_supported(mul_acc_kernels());
  return chosen;
}

// A Vandermonde matrix postmultiplied by the inverse of its own top k x k
// block, so rows 0..k-1 become the identity and every k x k submatrix stays
// invertible.
gf::Matrix systematic_matrix(std::size_t k, std::size_t n) {
  if (k == 0 || k > n || n > 255) {
    throw std::invalid_argument("ReedSolomon: need 1 <= k <= n <= 255");
  }
  const gf::Matrix vm = gf::Matrix::vandermonde(n, k);
  std::vector<std::size_t> top(k);
  for (std::size_t i = 0; i < k; ++i) top[i] = i;
  const gf::Matrix top_inv = vm.select_rows(top).inverse();
  return vm.multiply(top_inv);
}

std::vector<Shard> encode_with(const gf::Matrix& coding, BytesView data, MulAccFn mul_acc,
                               common::Executor* exec) {
  const std::size_t k = coding.cols();
  const std::size_t stride = std::max<std::size_t>((data.size() + k - 1) / k, 1);
  // Data shard c is data[c*stride, (c+1)*stride), zero-padded past the end.
  std::vector<BytesView> inputs(k);
  for (std::size_t c = 0; c < k; ++c) {
    const std::size_t begin = std::min(c * stride, data.size());
    inputs[c] = data.subspan(begin, std::min(stride, data.size() - begin));
  }
  std::vector<Shard> shards(coding.rows());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    shards[i].index = i;
    shards[i].data.assign(stride, 0);
  }
  // Each branch owns one output shard, so the writes are disjoint.
  common::parallel_for_index(exec, shards.size(), [&](std::size_t r) {
    code_row(coding, r, inputs, shards[r].data.data(), stride, mul_acc);
  });
  return shards;
}

Result<Bytes> decode_with(const gf::Matrix& coding, const std::vector<Shard>& shards,
                          std::size_t data_size, MulAccFn mul_acc) {
  const std::size_t k = coding.cols(), n = coding.rows();
  // Pick k distinct, size-consistent shards.
  std::vector<const Shard*> chosen;
  std::vector<bool> seen(n, false);
  const std::size_t stride = std::max<std::size_t>((data_size + k - 1) / k, 1);
  for (const Shard& s : shards) {
    if (s.index >= n || seen[s.index]) continue;
    if (s.data.size() != stride) {
      return Error{ErrorCode::kInvalidArgument, "decode: shard size mismatch"};
    }
    seen[s.index] = true;
    chosen.push_back(&s);
    if (chosen.size() == k) break;
  }
  if (chosen.size() < k) {
    return Error{ErrorCode::kInvalidArgument, "decode: fewer than k distinct shards"};
  }

  std::vector<std::size_t> rows(k);
  std::vector<BytesView> inputs(k);
  for (std::size_t i = 0; i < k; ++i) {
    rows[i] = chosen[i]->index;
    inputs[i] = chosen[i]->data;
  }
  const gf::Matrix dec = coding.select_rows(rows).inverse();

  Bytes out(data_size, 0);
  for (std::size_t j = 0; j < k && j * stride < data_size; ++j) {
    code_row(dec, j, inputs, out.data() + j * stride, std::min(stride, data_size - j * stride),
             mul_acc);
  }
  return out;
}

}  // namespace detail

ReedSolomon::ReedSolomon(std::size_t k, std::size_t n)
    : k_(k), n_(n), coding_(detail::systematic_matrix(k, n)) {}

std::size_t ReedSolomon::shard_size(std::size_t data_size) const {
  return (data_size + k_ - 1) / k_;
}

std::vector<Shard> ReedSolomon::encode(BytesView data) const { return encode(data, nullptr); }

std::vector<Shard> ReedSolomon::encode(BytesView data, common::Executor* exec) const {
  return detail::encode_with(coding_, data, detail::mul_acc_kernel().fn, exec);
}

Result<Bytes> ReedSolomon::decode(const std::vector<Shard>& shards,
                                  std::size_t data_size) const {
  return detail::decode_with(coding_, shards, data_size, detail::mul_acc_kernel().fn);
}

Result<Shard> ReedSolomon::repair_shard(const std::vector<Shard>& available,
                                        std::size_t missing_index,
                                        std::size_t data_size) const {
  if (missing_index >= n_) {
    return Error{ErrorCode::kInvalidArgument, "repair: bad shard index"};
  }
  auto decoded = decode(available, data_size);
  if (!decoded.ok()) return decoded.error();
  auto full = encode(*decoded);
  return full[missing_index];
}

}  // namespace rockfs::erasure
