// Fault-resilience sweep: DepSky read/write latency and success rate as the
// client-side fault intensity rises from none to severe. Each level scales
// the per-cloud FaultSchedule knobs (transient errors, timeouts, tail
// latency, torn writes, read corruption) and staggers one-cloud-at-a-time
// outage windows; the client's retry policy and circuit breakers are at
// their defaults. All latencies are VIRTUAL time, so the sweep is
// deterministic for a fixed seed.
//
// Output: a human-readable table followed by one JSON document on stdout
// (line starting with '{') for downstream tooling.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "depsky/client.h"
#include "obs/metrics.h"

namespace rockfs::bench {
namespace {

struct Level {
  const char* name;
  double scale;  // multiplies every probability knob
};

constexpr Level kLevels[] = {
    {"none", 0.0}, {"light", 1.0}, {"moderate", 2.0}, {"heavy", 4.0}, {"severe", 8.0},
};

struct OpStats {
  std::size_t attempted = 0;
  std::size_t succeeded = 0;
  std::vector<double> latencies_ms;

  double success_rate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(succeeded) / static_cast<double>(attempted);
  }
  double p99_ms() const {
    if (latencies_ms.empty()) return 0.0;
    std::vector<double> xs = latencies_ms;
    std::sort(xs.begin(), xs.end());
    const std::size_t idx = (xs.size() * 99 + 99) / 100 - 1;
    return xs[std::min(idx, xs.size() - 1)];
  }
};

// The client's depsky.* registry counters. A level's values are the change
// over its run: the registry keeps accumulating for the --metrics-json dump.
struct ResilienceCounters {
  std::uint64_t retries = 0;
  std::uint64_t breaker_skips = 0;
  std::uint64_t forced_probes = 0;
  std::uint64_t deadline_hits = 0;

  static ResilienceCounters now() {
    const auto& reg = obs::metrics();
    return {reg.counter_value("depsky.retries"), reg.counter_value("depsky.breaker.skips"),
            reg.counter_value("depsky.forced_probes"),
            reg.counter_value("depsky.deadline_hits")};
  }
  ResilienceCounters since(const ResilienceCounters& before) const {
    return {retries - before.retries, breaker_skips - before.breaker_skips,
            forced_probes - before.forced_probes, deadline_hits - before.deadline_hits};
  }
};

struct LevelResult {
  OpStats writes;
  OpStats reads;
  ResilienceCounters stats;
};

LevelResult run_level(const Level& level, int ops, std::uint64_t seed) {
  const auto before = ResilienceCounters::now();
  auto clock = std::make_shared<sim::SimClock>();
  auto clouds = cloud::make_provider_fleet(clock, 4, seed);
  crypto::Drbg drbg{to_bytes("bench-resilience-" + std::to_string(seed))};

  depsky::DepSkyConfig cfg;
  cfg.clouds = clouds;
  cfg.f = 1;
  cfg.protocol = depsky::Protocol::kCA;
  cfg.writer = crypto::generate_keypair(drbg);
  depsky::DepSkyClient client(std::move(cfg), to_bytes("bench-seed"));

  std::vector<cloud::AccessToken> tokens;
  for (auto& c : clouds) {
    tokens.push_back(c->issue_token("bench", "fs", cloud::TokenScope::kFiles));
  }

  const double s = level.scale;
  for (std::size_t i = 0; i < clouds.size(); ++i) {
    auto& faults = clouds[i]->faults();
    faults.set_transient_error_prob(0.04 * s);
    faults.set_timeout_prob(0.02 * s);
    faults.set_tail_latency(0.05 * s, 3.0);
    faults.set_read_corruption_prob(0.01 * s);
    faults.set_partial_write_prob(0.02 * s);
    if (s > 0.0) {
      // One cloud down at a time: cloud i off during [i*15s + k*60s, +5s).
      for (int k = 0; k < 50; ++k) {
        const sim::SimClock::Micros start =
            static_cast<sim::SimClock::Micros>(i) * 15'000'000 +
            static_cast<sim::SimClock::Micros>(k) * 60'000'000;
        faults.add_outage(start, start + 5'000'000);
      }
    }
  }

  LevelResult result;
  Rng rng(seed ^ 0xBEEF);
  constexpr std::size_t kUnits = 16;
  std::vector<bool> written(kUnits, false);
  for (int op = 0; op < ops; ++op) {
    const std::size_t u = rng.next_below(kUnits);
    const std::string unit = "files/bench/u" + std::to_string(u);
    const bool do_write = !written[u] || rng.next_below(10) < 4;
    if (do_write) {
      const Bytes data = rng.next_bytes(4096);
      auto w = client.write(tokens, unit, data);
      clock->advance_us(w.delay);
      ++result.writes.attempted;
      if (w.value.ok()) {
        ++result.writes.succeeded;
        written[u] = true;
      }
      result.writes.latencies_ms.push_back(static_cast<double>(w.delay) / 1e3);
    } else {
      auto r = client.read(tokens, unit);
      clock->advance_us(r.delay);
      ++result.reads.attempted;
      if (r.value.ok()) ++result.reads.succeeded;
      result.reads.latencies_ms.push_back(static_cast<double>(r.delay) / 1e3);
    }
  }
  result.stats = ResilienceCounters::now().since(before);
  return result;
}

void run(const BenchArgs& args) {
  const int ops = args.quick ? 150 : 600;
  std::printf("Fault-resilience sweep: DepSky f=1 (4 clouds), protocol CA, 4 KiB units\n");
  std::printf("retry: 4 attempts, decorrelated jitter; breaker: 3 failures, 5 s cooldown\n");
  print_header("fault resilience",
               {"level", "wr ok", "wr mean ms", "wr p99 ms", "rd ok", "rd mean ms",
                "rd p99 ms", "retries"});

  std::string json = "{\"bench\":\"fault_resilience\",\"ops_per_level\":" +
                     std::to_string(ops) + ",\"levels\":[";
  bool first = true;
  for (const Level& level : kLevels) {
    const LevelResult r = run_level(level, ops, 4242);
    std::printf("%14s%13.1f%%%14.1f%14.1f%13.1f%%%14.1f%14.1f%14llu\n", level.name,
                100.0 * r.writes.success_rate(), mean(r.writes.latencies_ms),
                r.writes.p99_ms(), 100.0 * r.reads.success_rate(),
                mean(r.reads.latencies_ms), r.reads.p99_ms(),
                static_cast<unsigned long long>(r.stats.retries));
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"level\":\"%s\",\"scale\":%.1f,"
        "\"write\":{\"ops\":%zu,\"success_rate\":%.4f,\"mean_ms\":%.2f,\"p99_ms\":%.2f},"
        "\"read\":{\"ops\":%zu,\"success_rate\":%.4f,\"mean_ms\":%.2f,\"p99_ms\":%.2f},"
        "\"retries\":%llu,\"breaker_skips\":%llu,\"forced_probes\":%llu,"
        "\"deadline_hits\":%llu}",
        first ? "" : ",", level.name, level.scale, r.writes.attempted,
        r.writes.success_rate(), mean(r.writes.latencies_ms), r.writes.p99_ms(),
        r.reads.attempted, r.reads.success_rate(), mean(r.reads.latencies_ms),
        r.reads.p99_ms(), static_cast<unsigned long long>(r.stats.retries),
        static_cast<unsigned long long>(r.stats.breaker_skips),
        static_cast<unsigned long long>(r.stats.forced_probes),
        static_cast<unsigned long long>(r.stats.deadline_hits));
    json += buf;
    first = false;
  }
  json += "]}";
  std::printf("\n%s\n", json.c_str());
}

}  // namespace
}  // namespace rockfs::bench

int main(int argc, char** argv) {
  const auto args = rockfs::bench::BenchArgs::parse(argc, argv);
  rockfs::bench::run(args);
  rockfs::bench::dump_metrics_json(args);
  return 0;
}
