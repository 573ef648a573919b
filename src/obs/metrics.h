// In-process metrics for the simulated stack: counters, gauges and
// fixed-bucket histograms, keyed by "component.op{label}" strings.
//
// Design rules (what makes this safe to call on hot paths):
//   * instruments are never deallocated — registry reset() ZEROES values but
//     keeps every instrument alive, so components may cache the returned
//     references across resets (CloudProvider, DepSkyClient do); a dump
//     lists only instruments looked up or written since the last reset, so
//     it matches a fresh registry's dump of the same work;
//   * increments are lock-free atomics; the registry mutex is only taken on
//     first registration and on export;
//   * everything recorded is derived from simulated state (virtual delays,
//     byte counts), never from wall-clock time, so metric dumps are
//     deterministic per seed and diffable across machines.
//
// Naming scheme (see docs/ARCHITECTURE.md §7): `component.op.measure{label}`
//   cloud.put.bytes{cloud-0}     depsky.retries      scfs.close.delay_us
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace rockfs::obs {

/// "name{label}", or just "name" when the label is empty.
std::string metric_key(std::string_view name, std::string_view label);

/// Set when an instrument is looked up or written; reset() clears it, and a
/// dump skips the instruments whose flag is clear.
class Touched {
 public:
  bool touched() const noexcept { return flag_.load(std::memory_order_relaxed); }
  void mark(bool on = true) noexcept {
    if (touched() != on) flag_.store(on, std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> flag_{false};
};

/// Monotonic counter. Thread-safe, lock-free.
class Counter : public Touched {
 public:
  void add(std::uint64_t n = 1) noexcept {
    mark();
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { mark(false); v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins signed gauge. Thread-safe, lock-free.
class Gauge : public Touched {
 public:
  void set(std::int64_t v) noexcept { mark(); v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { mark(); v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { mark(false); v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram for latencies (µs) and sizes (bytes). Bucket b
/// holds values whose bit width is b (i.e. v in [2^(b-1), 2^b - 1]); value 0
/// lands in bucket 0. Percentiles report the bucket's upper bound clamped to
/// the observed maximum, so they are exact integers and deterministic.
class Histogram : public Touched {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit widths 0..64

  void record(std::uint64_t v) noexcept;

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  /// 0 when empty.
  std::uint64_t min() const noexcept;
  std::uint64_t max() const noexcept { return max_.load(std::memory_order_relaxed); }
  /// Value at percentile p (0 < p <= 100): upper bound of the bucket where
  /// the cumulative count reaches ceil(p% of count), clamped to max().
  std::uint64_t percentile(double p) const;
  /// Raw count of bucket b (for tests of the bucket-edge math).
  std::uint64_t bucket_count(std::size_t b) const;
  /// Bucket index a value falls into.
  static std::size_t bucket_of(std::uint64_t v) noexcept;
  /// Inclusive upper bound of bucket b.
  static std::uint64_t bucket_upper(std::size_t b) noexcept;

  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

/// Registry of named instruments. Lookup registers on first use; the
/// returned references stay valid for the registry's lifetime (reset()
/// zeroes, never deallocates). Every lookup marks the instrument touched.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& key);
  Gauge& gauge(const std::string& key);
  Histogram& histogram(const std::string& key);

  /// Value of a counter, 0 if it was never registered (read-only; does not
  /// register).
  std::uint64_t counter_value(const std::string& key) const;

  /// Zeroes and untouches every instrument. References handed out earlier
  /// remain valid.
  void reset();

  /// Deterministic JSON dump: {"counters":{...},"gauges":{...},
  /// "histograms":{...}}, keys sorted, integer values only. Lists only the
  /// instruments touched since the last reset().
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Process-global registry used by the instrumented components.
MetricsRegistry& metrics();

}  // namespace rockfs::obs
