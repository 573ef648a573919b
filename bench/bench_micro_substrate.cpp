// Substrate micro-benchmarks (google-benchmark, REAL time): throughput of
// the cryptographic and coding primitives every RockFS operation is built
// from. Not a paper figure — these bound where the client-side CPU time goes
// and back the DESIGN.md §5 calibration.
//
// It is also a gate. It prints the kernel each dispatched primitive runs on
// this host and exits nonzero when a hardware kernel misses its floor at
// 1 MiB: AES-256-CTR >= 1 GB/s, SHA-256 >= 800 MB/s, RS 2-of-4 encode
// >= 1 GB/s. A primitive running its portable kernel has no floor. Schnorr
// over secp256k1 has one implementation and always a floor: sign >= 16,000/s
// and verify >= 5,000/s.
#include <benchmark/benchmark.h>

#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/kernels.h"
#include "crypto/secp256k1.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"
#include "crypto/signature.h"
#include "diff/binary_diff.h"
#include "erasure/kernels.h"
#include "erasure/reed_solomon.h"
#include "fssagg/fssagg.h"
#include "secretshare/shamir.h"

namespace rockfs {
namespace {

Bytes make_data(std::size_t n) {
  Rng rng(42);
  return rng.next_bytes(n);
}

void BM_Sha256(benchmark::State& state) {
  const Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha256(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(4 << 10)->Arg(1 << 20);

void BM_Sha512(benchmark::State& state) {
  const Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha512(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(1 << 20);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key(32, 0x11);
  const Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(1 << 20);

void BM_Aes256Ctr(benchmark::State& state) {
  const Bytes key(32, 0x22);
  const Bytes iv(16, 0x01);
  const Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::aes256_ctr(key, iv, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Aes256Ctr)->Arg(64 << 10)->Arg(1 << 20);

void BM_SealOpen(benchmark::State& state) {
  const Bytes key(32, 0x33);
  const Bytes iv(16, 0x02);
  const Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const Bytes box = crypto::seal(key, data, {}, iv);
    benchmark::DoNotOptimize(crypto::open_sealed(key, box, {}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0) *
                          2);
}
BENCHMARK(BM_SealOpen)->Arg(1 << 20);

void BM_RsEncode_2of4(benchmark::State& state) {
  const erasure::ReedSolomon rs(2, 4);
  const Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(rs.encode(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_RsEncode_2of4)->Arg(1 << 20);

void BM_RsDecodeFromParity_2of4(benchmark::State& state) {
  const erasure::ReedSolomon rs(2, 4);
  const Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  auto shards = rs.encode(data);
  const std::vector<erasure::Shard> parity{shards[2], shards[3]};
  for (auto _ : state) benchmark::DoNotOptimize(rs.decode(parity, data.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_RsDecodeFromParity_2of4)->Arg(1 << 20);

void BM_DiffAppend30(benchmark::State& state) {
  const Bytes base = make_data(static_cast<std::size_t>(state.range(0)));
  Bytes updated = base;
  append(updated, make_data(static_cast<std::size_t>(state.range(0)) * 3 / 10));
  for (auto _ : state) benchmark::DoNotOptimize(diff::encode(base, updated));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DiffAppend30)->Arg(1 << 20);

// The Fig 5 update: a random 30% region of the file overwritten in place.
void BM_DiffRewrite30(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Bytes base = make_data(n);
  Bytes updated = base;
  const Bytes fresh = Rng(7).next_bytes(n * 3 / 10);
  std::copy(fresh.begin(), fresh.end(), updated.begin() + static_cast<std::ptrdiff_t>(n / 3));
  for (auto _ : state) benchmark::DoNotOptimize(diff::encode(base, updated));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DiffRewrite30)->Arg(1 << 20);

void BM_Patch(benchmark::State& state) {
  const Bytes base = make_data(static_cast<std::size_t>(state.range(0)));
  Bytes updated = base;
  append(updated, make_data(static_cast<std::size_t>(state.range(0)) * 3 / 10));
  const Bytes delta = diff::encode(base, updated);
  for (auto _ : state) benchmark::DoNotOptimize(diff::patch(base, delta));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Patch)->Arg(1 << 20);

void BM_FssAggAppend(benchmark::State& state) {
  crypto::Drbg drbg(to_bytes("bench"));
  fssagg::FssAggSigner signer(fssagg::fssagg_keygen(drbg));
  const Bytes entry = make_data(256);
  for (auto _ : state) benchmark::DoNotOptimize(signer.append(entry));
}
BENCHMARK(BM_FssAggAppend);

void BM_SchnorrSign(benchmark::State& state) {
  crypto::Drbg drbg(to_bytes("bench"));
  const crypto::KeyPair kp = crypto::generate_keypair(drbg);
  const Bytes msg = make_data(256);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sign(kp, msg));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  crypto::Drbg drbg(to_bytes("bench"));
  const crypto::KeyPair kp = crypto::generate_keypair(drbg);
  const Bytes msg = make_data(256);
  const Bytes sig = crypto::sign(kp, msg);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::verify(kp.public_key, msg, sig));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SchnorrVerify);

void BM_ShamirShareCombine(benchmark::State& state) {
  crypto::Drbg drbg(to_bytes("bench"));
  const Bytes secret = drbg.generate(32);
  for (auto _ : state) {
    auto shares = secretshare::shamir_share(secret, 2, 4, drbg);
    shares.resize(2);
    benchmark::DoNotOptimize(secretshare::shamir_combine(shares, 2));
  }
}
BENCHMARK(BM_ShamirShareCombine);

// One 1 MiB row per kernel the host supports, dispatched or not, so a kernel
// that another host would dispatch (avx2 where there is no GFNI) and the
// portable oracle are measured on this host too. Not gated.
void register_kernel_rows() {
  const auto add = [](const std::string& name, auto body) {
    benchmark::RegisterBenchmark(name.c_str(),
                                 [body](benchmark::State& state) {
                                   const Bytes data =
                                       make_data(static_cast<std::size_t>(state.range(0)));
                                   for (auto _ : state) body(data);
                                   state.SetBytesProcessed(
                                       static_cast<std::int64_t>(state.iterations()) *
                                       state.range(0));
                                 })
        ->Arg(1 << 20);
  };
  for (const auto& k : crypto::detail::aes_ctr_kernels()) {
    if (!k.supported) continue;
    add(std::string("BM_Aes256Ctr_kernel/") + k.name, [fn = k.fn](const Bytes& data) {
      const Bytes key(32, 0x22), iv(16, 0x01);
      Bytes out(data.size());
      fn(key.data(), iv.data(), data.data(), out.data(), out.size());
      benchmark::DoNotOptimize(out.data());
    });
  }
  for (const auto& k : crypto::detail::sha256_kernels()) {
    if (!k.supported) continue;
    add(std::string("BM_Sha256_kernel/") + k.name, [fn = k.fn](const Bytes& data) {
      std::uint32_t state[8] = {};
      fn(state, data.data(), data.size() / 64);
      benchmark::DoNotOptimize(state);
    });
  }
  const gf::Matrix coding = erasure::detail::systematic_matrix(2, 4);
  for (const auto& k : erasure::detail::mul_acc_kernels()) {
    if (!k.supported) continue;
    add(std::string("BM_RsEncode_2of4_kernel/") + k.name,
        [fn = k.fn, coding](const Bytes& data) {
          benchmark::DoNotOptimize(erasure::detail::encode_with(coding, data, fn, nullptr));
        });
  }
}

// Console output as usual (colour only on a terminal), plus the bytes/s and
// items/s of every run for the gate.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  RecordingReporter() : ConsoleReporter(isatty(STDOUT_FILENO) ? OO_Defaults : OO_Tabular) {}
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      // Only fields that google-benchmark 1.7 and 1.8+ share: 1.8 replaced
      // Run::error_occurred with Run::skipped, and a skipped run has no
      // iterations.
      if (run.run_type != Run::RT_Iteration || run.iterations <= 0) continue;
      for (const char* counter : {"bytes_per_second", "items_per_second"}) {
        const auto it = run.counters.find(counter);
        if (it != run.counters.end()) rates[run.benchmark_name()][counter] = it->second.value;
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }
  std::map<std::string, std::map<std::string, double>> rates;
};

struct Floor {
  const char* primitive;
  const char* benchmark;
  const char* kernel;  // nullptr: the primitive has one implementation
  bool gated;          // false when the dispatched kernel is the portable one
  bool per_item;       // floor in items/s rather than bytes/s
  double min_rate;
};

template <typename K>
Floor make_floor(const char* primitive, const char* benchmark, std::span<const K> kernels,
                 const K& chosen, double min_bytes_per_second) {
  // The portable kernel is listed last.
  return {primitive, benchmark, chosen.name, &chosen != &kernels.back(), false,
          min_bytes_per_second};
}

}  // namespace
}  // namespace rockfs

int main(int argc, char** argv) {
  using namespace rockfs;
#ifdef __GLIBC__
  // Fix glibc's malloc thresholds, which otherwise adapt to the sizes freed so
  // far. A row that frees more than the trim threshold per iteration (RS
  // 2-of-4 encode frees four 512 KiB shards) then hands the heap top back to
  // the OS and page-faults ~480 times per call, or not, depending on which
  // rows ran before it: that row read 690 MB/s first in a process and
  // 2700 MB/s later in the same one. Fixed thresholds keep buffers up to 16 MiB
  // on the heap, so every row measures the primitive, whatever the order.
  mallopt(M_MMAP_THRESHOLD, 16 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  const Floor floors[] = {
      make_floor("aes256_ctr", "BM_Aes256Ctr/1048576", crypto::detail::aes_ctr_kernels(),
                 crypto::detail::aes_ctr_kernel(), 1e9),
      make_floor("sha256", "BM_Sha256/1048576", crypto::detail::sha256_kernels(),
                 crypto::detail::sha256_kernel(), 800e6),
      make_floor("rs_encode_2of4", "BM_RsEncode_2of4/1048576",
                 erasure::detail::mul_acc_kernels(), erasure::detail::mul_acc_kernel(), 1e9),
      {"schnorr_sign", "BM_SchnorrSign", nullptr, true, true, 16000},
      {"schnorr_verify", "BM_SchnorrVerify", nullptr, true, true, 5000},
  };
  for (const Floor& f : floors) {
    if (f.kernel != nullptr) std::printf("kernel %s: %s\n", f.primitive, f.kernel);
  }
  std::fflush(stdout);

  register_kernel_rows();
  RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  int failures = 0;
  for (const Floor& f : floors) {
    const char* counter = f.per_item ? "items_per_second" : "bytes_per_second";
    const auto row = reporter.rates.find(f.benchmark);
    const bool measured = row != reporter.rates.end() && row->second.count(counter) != 0;
    const std::string label =
        std::string(f.primitive) + (f.kernel != nullptr ? std::string(" [") + f.kernel + "]" : "");
    if (!f.gated) {
      std::printf("gate %s: no floor (portable kernel)\n", f.primitive);
    } else if (!measured) {
      std::printf("gate %s: FAIL, %s not measured (run without --benchmark_filter)\n",
                  f.primitive, f.benchmark);
      ++failures;
    } else {
      const double rate = row->second.at(counter);
      const bool ok = rate >= f.min_rate;
      if (f.per_item) {
        std::printf("gate %s: %.0f/s (floor %.0f/s) %s\n", label.c_str(), rate, f.min_rate,
                    ok ? "ok" : "FAIL");
      } else {
        std::printf("gate %s: %.0f MB/s (floor %.0f MB/s) %s\n", label.c_str(), rate / 1e6,
                    f.min_rate / 1e6, ok ? "ok" : "FAIL");
      }
      if (!ok) ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
