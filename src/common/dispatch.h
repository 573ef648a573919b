// Runtime kernel dispatch for the hot substrate primitives (AES-256-CTR,
// SHA-256, GF(2^8) multiply-accumulate). Each primitive lists its kernels
// fastest first with the portable kernel last; the first one the host CPU
// supports is chosen once and called through a function pointer. There is no
// build option or environment switch: a host without the instructions simply
// runs the portable code, which is also the oracle the property tests compare
// every fast kernel against.
#pragma once

#include <span>

// Kernels that use x86 instructions are compiled only on x86-64 hosts, each with
// __attribute__((target(...))), and offered only when __builtin_cpu_supports
// reports their instruction sets.
#if defined(__x86_64__)
#define ROCKFS_X86_KERNELS 1
#endif

namespace rockfs::common {

template <typename Fn>
struct Kernel {
  const char* name;  // e.g. "aesni", "portable"
  const char* isa;   // instruction sets it needs, for skip and log messages
  bool supported;    // the host CPU has `isa`
  Fn fn;
};

/// The first supported kernel; the list must end with an always-supported one.
template <typename Fn>
const Kernel<Fn>& first_supported(std::span<const Kernel<Fn>> kernels) {
  for (const Kernel<Fn>& k : kernels) {
    if (k.supported) return k;
  }
  return kernels.back();
}

}  // namespace rockfs::common
