// Per-module throughput probes: each public substrate function the close,
// read and recovery paths spend CPU in, timed on buffers the size of the
// workload's inputs. Real time on the host; these are per-layer metrics only.
#include <algorithm>
#include <functional>

#include "bench.h"
#include "crypto/aes.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "diff/binary_diff.h"
#include "erasure/reed_solomon.h"
#include "fssagg/fssagg.h"

namespace rockbench {
namespace {

constexpr double kChunkSeconds = 0.06;
constexpr int kChunks = 3;

/// Calls per second of `call`: the median of kChunks chunks, each running
/// until kChunkSeconds elapse. Each chunk is one benchmark span.
double rate(const char* name, SpanLog& spans, const std::function<void()>& call) {
  std::vector<double> rates;
  for (int c = 0; c < kChunks; ++c) {
    const auto s = spans.open(name);
    const double t0 = wall_s();
    double t = t0;
    std::uint64_t calls = 0;
    do {
      call();
      ++calls;
      t = wall_s();
    } while (t - t0 < kChunkSeconds);
    rates.push_back(static_cast<double>(calls) / (t - t0));
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

}  // namespace

std::map<std::string, double> measure_layers(std::size_t bytes, SpanLog& spans) {
  namespace crypto = rockfs::crypto;
  rockfs::Rng rng(bytes);
  const Bytes data = rng.next_bytes(bytes);
  const Bytes key = rng.next_bytes(32);
  const Bytes iv = rng.next_bytes(16);
  const Bytes aad = rng.next_bytes(32);
  const Bytes msg = rng.next_bytes(256);
  const double mb = static_cast<double>(bytes) / 1e6;
  std::map<std::string, double> out;

  out["crypto.aes_ctr.mb_per_s"] =
      mb * rate("probe.aes256_ctr", spans, [&] { (void)crypto::aes256_ctr(key, iv, data); });
  const Bytes box = crypto::seal(key, data, aad, iv);
  out["crypto.seal.mb_per_s"] =
      mb * rate("probe.seal", spans, [&] { (void)crypto::seal(key, data, aad, iv); });
  out["crypto.open_sealed.mb_per_s"] =
      mb * rate("probe.open_sealed", spans, [&] { (void)crypto::open_sealed(key, box, aad); });
  out["crypto.sha256.mb_per_s"] =
      mb * rate("probe.sha256", spans, [&] { (void)crypto::sha256(data); });

  crypto::Drbg drbg(key);
  const crypto::KeyPair kp = crypto::generate_keypair(drbg);
  const Bytes sig = crypto::sign(kp, msg);
  out["crypto.sign.per_s"] = rate("probe.sign", spans, [&] { (void)crypto::sign(kp, msg); });
  out["crypto.verify.per_s"] =
      rate("probe.verify", spans, [&] { (void)crypto::verify(kp.public_key, msg, sig); });

  const rockfs::erasure::ReedSolomon rs(2, 4);
  const auto shards = rs.encode(data);
  const std::vector<rockfs::erasure::Shard> parity{shards[2], shards[3]};
  out["erasure.encode.mb_per_s"] =
      mb * rate("probe.rs_encode", spans, [&] { (void)rs.encode(data); });
  out["erasure.decode.mb_per_s"] =
      mb * rate("probe.rs_decode", spans, [&] { (void)rs.decode(parity, data.size()); });

  // The close path's change: a 30% region rewritten in place.
  Bytes updated = data;
  const std::size_t region = bytes * 3 / 10;
  const Bytes fresh = rng.next_bytes(region);
  std::copy(fresh.begin(), fresh.end(), updated.begin() + static_cast<std::ptrdiff_t>(
                                                             rng.next_below(bytes - region + 1)));
  const auto delta = rockfs::diff::make_log_delta(data, updated);
  out["diff.encode.mb_per_s"] = mb * rate("probe.diff_encode", spans, [&] {
    (void)rockfs::diff::make_log_delta(data, updated);
  });
  out["diff.apply.mb_per_s"] = mb * rate("probe.diff_apply", spans, [&] {
    (void)rockfs::diff::apply_log_delta(data, delta);
  });

  namespace fssagg = rockfs::fssagg;
  const fssagg::FssAggKeys keys = fssagg::fssagg_keygen(drbg);
  fssagg::FssAggSigner signer(keys);
  out["fssagg.append.per_s"] = rate("probe.fssagg_append", spans, [&] { (void)signer.append(msg); });
  constexpr std::size_t kLogEntries = 64;
  fssagg::FssAggSigner chain(keys);
  std::vector<fssagg::TaggedEntry> log;
  for (std::size_t i = 0; i < kLogEntries; ++i) {
    Bytes entry = rng.next_bytes(256);
    const auto tag = chain.append(entry);
    log.push_back({std::move(entry), tag});
  }
  out["fssagg.verify.entries_per_s"] =
      kLogEntries * rate("probe.fssagg_verify", spans, [&] {
        (void)fssagg::fssagg_verify(keys, log, chain.aggregate_a(), chain.aggregate_b(),
                                    kLogEntries);
      });
  return out;
}

}  // namespace rockbench
