// Internal: the kernels under aes256_ctr and Sha256. Not part of the crypto
// API; the property tests include it to run every kernel against the portable
// one, and bench_micro_substrate to report which kernel was dispatched.
#pragma once

#include <cstdint>
#include <span>

#include "common/bytes.h"
#include "common/dispatch.h"

namespace rockfs::crypto::detail {

/// AES-256-CTR: out[i] = in[i] ^ keystream[i] for i < n, the keystream
/// starting at the 16-byte big-endian counter block `iv`.
using AesCtrFn = void (*)(const Byte* key32, const Byte* iv16, const Byte* in, Byte* out,
                          std::size_t n);

/// SHA-256 compression of `nblocks` consecutive 64-byte blocks into `state`.
using Sha256BlocksFn = void (*)(std::uint32_t* state, const Byte* blocks, std::size_t nblocks);

using AesCtrKernel = common::Kernel<AesCtrFn>;
using Sha256Kernel = common::Kernel<Sha256BlocksFn>;

/// Every kernel built for this architecture, fastest first, "portable" last.
std::span<const AesCtrKernel> aes_ctr_kernels();
std::span<const Sha256Kernel> sha256_kernels();

/// The kernel the public functions dispatch to on this host.
const AesCtrKernel& aes_ctr_kernel();
const Sha256Kernel& sha256_kernel();

}  // namespace rockfs::crypto::detail
