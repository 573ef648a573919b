#include "obs/metrics.h"

#include <bit>
#include <cmath>
#include <sstream>

namespace rockfs::obs {

std::string metric_key(std::string_view name, std::string_view label) {
  if (label.empty()) return std::string(name);
  std::string key;
  key.reserve(name.size() + label.size() + 2);
  key.append(name);
  key.push_back('{');
  key.append(label);
  key.push_back('}');
  return key;
}

std::size_t Histogram::bucket_of(std::uint64_t v) noexcept {
  return static_cast<std::size_t>(std::bit_width(v));  // 0 for v==0
}

std::uint64_t Histogram::bucket_upper(std::size_t b) noexcept {
  if (b == 0) return 0;
  if (b >= 64) return UINT64_MAX;
  return (std::uint64_t{1} << b) - 1;
}

void Histogram::record(std::uint64_t v) noexcept {
  mark();
  buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur && !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::min() const noexcept {
  std::uint64_t m = min_.load(std::memory_order_relaxed);
  return m == UINT64_MAX ? 0 : m;
}

std::uint64_t Histogram::percentile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  auto target = static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  if (target < 1) target = 1;
  if (target > n) target = n;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    cum += buckets_[b].load(std::memory_order_relaxed);
    if (cum >= target) {
      const std::uint64_t upper = bucket_upper(b);
      const std::uint64_t mx = max();
      return upper < mx ? upper : mx;
    }
  }
  return max();
}

std::uint64_t Histogram::bucket_count(std::size_t b) const {
  return b < kBuckets ? buckets_[b].load(std::memory_order_relaxed) : 0;
}

void Histogram::reset() noexcept {
  mark(false);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[key];
  if (!slot) slot = std::make_unique<Counter>();
  slot->mark();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = gauges_[key];
  if (!slot) slot = std::make_unique<Gauge>();
  slot->mark();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = histograms_[key];
  if (!slot) slot = std::make_unique<Histogram>();
  slot->mark();
  return *slot;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(key);
  return it == counters_.end() ? 0 : it->second->value();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [k, c] : counters_) c->reset();
  for (auto& [k, g] : gauges_) g->reset();
  for (auto& [k, h] : histograms_) h->reset();
}

namespace {

void append_escaped(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [k, c] : counters_) {
    if (!c->touched()) continue;
    if (!first) out << ',';
    first = false;
    append_escaped(out, k);
    out << ':' << c->value();
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [k, g] : gauges_) {
    if (!g->touched()) continue;
    if (!first) out << ',';
    first = false;
    append_escaped(out, k);
    out << ':' << g->value();
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [k, h] : histograms_) {
    if (!h->touched()) continue;
    if (!first) out << ',';
    first = false;
    append_escaped(out, k);
    out << ":{\"count\":" << h->count() << ",\"sum\":" << h->sum()
        << ",\"min\":" << h->min() << ",\"max\":" << h->max()
        << ",\"p50\":" << h->percentile(50) << ",\"p95\":" << h->percentile(95)
        << ",\"p99\":" << h->percentile(99) << '}';
  }
  out << "}}";
  return out.str();
}

MetricsRegistry& metrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace rockfs::obs
