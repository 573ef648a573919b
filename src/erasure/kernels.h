// Internal: the GF(2^8) multiply-accumulate kernels under ReedSolomon and the
// row-coding loop they plug into. Not part of the erasure API; the property
// tests include it to run encode/decode on every kernel, and
// bench_micro_substrate to report which kernel was dispatched.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/dispatch.h"
#include "common/result.h"
#include "erasure/reed_solomon.h"
#include "gf/gf256.h"

namespace rockfs::erasure::detail {

/// out[i] ^= coef * in[i] in GF(2^8) mod 0x11D, for i < n.
using MulAccFn = void (*)(std::uint8_t coef, const Byte* in, Byte* out, std::size_t n);

using MulAccKernel = common::Kernel<MulAccFn>;

/// Every kernel built for this architecture, fastest first, "table" last.
std::span<const MulAccKernel> mul_acc_kernels();

/// The kernel ReedSolomon dispatches to on this host.
const MulAccKernel& mul_acc_kernel();

/// The n x k systematic coding matrix (identity on top) for ReedSolomon(k, n).
gf::Matrix systematic_matrix(std::size_t k, std::size_t n);

/// ReedSolomon::encode and ::decode with an explicit kernel; `exec` may fan
/// the output rows out (null runs them in order).
std::vector<Shard> encode_with(const gf::Matrix& coding, BytesView data, MulAccFn mul_acc,
                               common::Executor* exec);
Result<Bytes> decode_with(const gf::Matrix& coding, const std::vector<Shard>& shards,
                          std::size_t data_size, MulAccFn mul_acc);

}  // namespace rockfs::erasure::detail
