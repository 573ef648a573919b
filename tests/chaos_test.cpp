// Chaos soak test: thousands of mixed DepSky operations under randomized,
// seeded fault schedules (outage windows, transient errors, timeouts, tail
// latency, torn writes, read corruption) checking the safety invariants:
//
//   1. no acked write is ever lost while at most f clouds are faulty —
//      a successful read returns an admissible content (the last acked
//      write, or a concurrently-failed write that may have landed),
//   2. reads either return correct data or fail cleanly with a classified
//      transport error (never silently wrong bytes),
//   3. retry work is bounded by the policy (attempts <= ops * max_attempts),
//   4. the whole run is deterministic: the same seed reproduces the exact
//      same trace, byte for byte, on any machine. Each seed's fingerprint,
//      tallies and resilience counters are pinned to recorded values.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "depsky/client.h"
#include "obs/metrics.h"

namespace rockfs::depsky {
namespace {

constexpr std::size_t kUnits = 20;
constexpr int kOpsPerSeed = 1200;

std::string unit_name(std::size_t u) { return "files/chaos/u" + std::to_string(u); }

struct ChaosResult {
  std::uint64_t fingerprint = 0;  // order-sensitive hash of every outcome
  std::size_t writes_acked = 0;
  std::size_t writes_failed = 0;
  std::size_t reads_ok = 0;
  std::size_t reads_failed = 0;
  std::size_t violations = 0;
  std::vector<std::string> violation_notes;
  // The client's depsky.* registry counters over this run.
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t breaker_skips = 0;
  std::uint64_t forced_probes = 0;
  std::uint64_t deadline_hits = 0;
  std::size_t guarded_op_ceiling = 0;  // upper bound on guarded ops issued
};

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
}

ChaosResult run_chaos(std::uint64_t seed) {
  obs::metrics().reset();
  ChaosResult result;
  Rng rng(seed);

  auto clock = std::make_shared<sim::SimClock>();
  auto clouds = cloud::make_provider_fleet(clock, 4, seed * 31 + 5);
  crypto::Drbg drbg{to_bytes("chaos-" + std::to_string(seed))};

  DepSkyConfig cfg;
  cfg.clouds = clouds;
  cfg.f = 1;
  cfg.protocol = Protocol::kCA;
  cfg.writer = crypto::generate_keypair(drbg);
  DepSkyClient client(std::move(cfg), to_bytes("chaos-seed"));

  std::vector<cloud::AccessToken> tokens;
  for (auto& c : clouds) {
    tokens.push_back(c->issue_token("alice", "fs", cloud::TokenScope::kFiles));
  }

  // Randomized per-cloud fault intensity, drawn from the seeded stream.
  // Outage windows are staggered so that at most one cloud is inside a
  // window at any virtual instant (the <= f guarantee the invariants need);
  // the probabilistic faults stay mild enough that retries usually mask
  // them.
  for (std::size_t i = 0; i < clouds.size(); ++i) {
    auto& faults = clouds[i]->faults();
    faults.set_transient_error_prob(0.10 * rng.next_double());
    faults.set_timeout_prob(0.06 * rng.next_double());
    faults.set_tail_latency(0.10 * rng.next_double(), 1.0 + 4.0 * rng.next_double());
    faults.set_read_corruption_prob(0.05 * rng.next_double());
    faults.set_partial_write_prob(0.08 * rng.next_double());
    // Cloud i is down during [i*20s + k*80s, i*20s + k*80s + 5s).
    for (int k = 0; k < 40; ++k) {
      const sim::SimClock::Micros start =
          static_cast<sim::SimClock::Micros>(i) * 20'000'000 +
          static_cast<sim::SimClock::Micros>(k) * 80'000'000;
      faults.add_outage(start, start + 5'000'000);
    }
  }

  // Per-unit admissible contents: an acked write collapses the set to its
  // payload; a failed write *adds* its payload (the shares and even the
  // metadata may or may not have landed before the fault hit).
  std::map<std::string, std::vector<Bytes>> admissible;
  std::map<std::string, bool> ever_acked;

  const auto is_admissible = [&](const std::string& unit, const Bytes& got) {
    const auto it = admissible.find(unit);
    if (it == admissible.end()) return false;
    return std::find(it->second.begin(), it->second.end(), got) != it->second.end();
  };

  for (int op = 0; op < kOpsPerSeed; ++op) {
    const std::string unit = unit_name(rng.next_below(kUnits));
    const std::uint64_t kind = rng.next_below(10);
    if (kind < 4) {  // 40% writes
      const Bytes data = rng.next_bytes(1 + rng.next_below(2048));
      auto w = client.write(tokens, unit, data);
      clock->advance_us(w.delay);
      mix(result.fingerprint, static_cast<std::uint64_t>(w.value.code()));
      mix(result.fingerprint, static_cast<std::uint64_t>(w.delay));
      if (w.value.ok()) {
        ++result.writes_acked;
        admissible[unit] = {data};
        ever_acked[unit] = true;
      } else {
        ++result.writes_failed;
        admissible[unit].push_back(data);
        if (w.value.code() != ErrorCode::kUnavailable &&
            w.value.code() != ErrorCode::kTimeout) {
          ++result.violations;
          result.violation_notes.push_back("write failed with non-transport code " +
                                           std::string(error_code_name(w.value.code())) +
                                           ": " + w.value.error().message);
        }
      }
    } else if (kind < 9) {  // 50% reads
      auto r = client.read(tokens, unit);
      clock->advance_us(r.delay);
      mix(result.fingerprint, static_cast<std::uint64_t>(r.value.code()));
      mix(result.fingerprint, static_cast<std::uint64_t>(r.delay));
      if (r.value.ok()) {
        ++result.reads_ok;
        mix(result.fingerprint, r.value->size());
        if (!is_admissible(unit, *r.value)) {
          ++result.violations;
          result.violation_notes.push_back("read of " + unit +
                                           " returned non-admissible content");
        }
      } else {
        ++result.reads_failed;
        const ErrorCode c = r.value.code();
        const bool clean = c == ErrorCode::kUnavailable || c == ErrorCode::kTimeout ||
                           c == ErrorCode::kNotFound;
        if (!clean) {
          ++result.violations;
          result.violation_notes.push_back("read of " + unit +
                                           " failed uncleanly with " +
                                           std::string(error_code_name(c)));
        }
        if (c == ErrorCode::kNotFound && ever_acked[unit]) {
          // A fully-acked unit can never vanish while <= f clouds are
          // faulty: metadata lives on n-f clouds and reads reach them all
          // via the forced-probe fallback.
          ++result.violations;
          result.violation_notes.push_back("acked unit " + unit + " reported NotFound");
        }
      }
    } else {  // 10% version probes
      auto h = client.head_version(tokens, unit);
      clock->advance_us(h.delay);
      mix(result.fingerprint, static_cast<std::uint64_t>(h.value.code()));
      mix(result.fingerprint, static_cast<std::uint64_t>(h.delay));
    }
  }

  // Quiescent pass: lift every fault and re-read each unit that ever acked
  // a write. With all clouds healthy, every read must succeed (the
  // forced-probe fallback conscripts clouds whose breakers are still open)
  // and return admissible content.
  for (auto& c : clouds) c->faults().clear();
  for (std::size_t u = 0; u < kUnits; ++u) {
    const std::string unit = unit_name(u);
    if (!ever_acked[unit]) continue;
    auto r = client.read(tokens, unit);
    clock->advance_us(r.delay);
    mix(result.fingerprint, static_cast<std::uint64_t>(r.value.code()));
    if (!r.value.ok()) {
      ++result.violations;
      result.violation_notes.push_back("quiescent read of " + unit + " failed: " +
                                       r.value.error().message);
    } else if (!is_admissible(unit, *r.value)) {
      ++result.violations;
      result.violation_notes.push_back("quiescent read of " + unit +
                                       " returned non-admissible content");
    }
  }

  const auto& reg = obs::metrics();
  result.attempts = reg.counter_value("depsky.attempts");
  result.retries = reg.counter_value("depsky.retries");
  result.breaker_skips = reg.counter_value("depsky.breaker.skips");
  result.forced_probes = reg.counter_value("depsky.forced_probes");
  result.deadline_hits = reg.counter_value("depsky.deadline_hits");
  // Ceiling on guarded per-cloud requests: every top-level operation fans
  // out to <= n clouds over <= 2 quorum rounds in <= 3 phases.
  result.guarded_op_ceiling =
      static_cast<std::size_t>(kOpsPerSeed + kUnits) * clouds.size() * 2 * 3;
  return result;
}

// Recorded per-seed outcomes. Re-record them only for an intended behaviour
// change.
struct ChaosPin {
  std::uint64_t seed;
  std::uint64_t fingerprint;
  std::size_t writes_acked;
  std::size_t reads_ok;
  std::uint64_t attempts;
  std::uint64_t retries;
  std::uint64_t breaker_skips;
  std::uint64_t forced_probes;
  std::uint64_t deadline_hits;
};

constexpr ChaosPin kPins[] = {
    {2024, 0xba35e95acf2ebe95ULL, 493, 554, 12035, 1279, 369, 1, 0},
    {7, 0x2734f2035c489571ULL, 476, 578, 11849, 1181, 421, 1, 0},
    {99, 0xb6d794931136401cULL, 476, 590, 11578, 905, 460, 1, 0},
};

void PrintTo(const ChaosPin& pin, std::ostream* os) { *os << "seed " << pin.seed; }

class ChaosSoak : public ::testing::TestWithParam<ChaosPin> {};

// One seed, two runs: the first is checked against every safety invariant
// and its recorded outcome, the second must reproduce it exactly.
TEST_P(ChaosSoak, SafetyInvariantsHoldDeterministically) {
  const ChaosPin& pin = GetParam();
  const ChaosResult r = run_chaos(pin.seed);
  for (const auto& note : r.violation_notes) ADD_FAILURE() << note;
  EXPECT_EQ(r.violations, 0u);
  // The run actually exercised the machinery.
  EXPECT_GT(r.writes_acked, 100u);
  EXPECT_GT(r.reads_ok, 100u);
  EXPECT_GT(r.retries, 0u);
  // Retry work is bounded by the policy.
  const RetryPolicy policy;  // defaults used by the client above
  EXPECT_LE(r.retries, r.attempts);
  EXPECT_LE(r.attempts,
            r.guarded_op_ceiling * static_cast<std::size_t>(policy.max_attempts));

  EXPECT_EQ(r.fingerprint, pin.fingerprint);
  EXPECT_EQ(r.writes_acked, pin.writes_acked);
  EXPECT_EQ(r.reads_ok, pin.reads_ok);
  EXPECT_EQ(r.attempts, pin.attempts);
  EXPECT_EQ(r.retries, pin.retries);
  EXPECT_EQ(r.breaker_skips, pin.breaker_skips);
  EXPECT_EQ(r.forced_probes, pin.forced_probes);
  EXPECT_EQ(r.deadline_hits, pin.deadline_hits);

  const ChaosResult again = run_chaos(pin.seed);
  EXPECT_EQ(r.fingerprint, again.fingerprint);
  EXPECT_EQ(r.writes_acked, again.writes_acked);
  EXPECT_EQ(r.reads_ok, again.reads_ok);
  EXPECT_EQ(r.attempts, again.attempts);
  EXPECT_EQ(r.retries, again.retries);
  EXPECT_EQ(r.breaker_skips, again.breaker_skips);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoak, ::testing::ValuesIn(kPins));

}  // namespace
}  // namespace rockfs::depsky
