#include "rockfs/audit.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace rockfs::core {

double byte_entropy(BytesView data) {
  if (data.empty()) return 0.0;
  std::array<std::size_t, 256> counts{};
  for (const Byte b : data) ++counts[b];
  double h = 0.0;
  const double n = static_cast<double>(data.size());
  for (const std::size_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / n;
    h -= p * std::log2(p);
  }
  return h;
}

std::set<std::string> implicated_users(const std::vector<LogRecord>& records,
                                       const std::set<std::uint64_t>& flagged_seqs,
                                       const std::set<std::string>& manual_overrides) {
  std::set<std::string> users;
  for (const auto& r : records) {
    if (!flagged_seqs.contains(r.seq)) continue;
    if (manual_overrides.contains(r.user)) continue;
    users.insert(r.user);
  }
  return users;
}

AuditAnalyzer::AuditAnalyzer(std::vector<LogRecord> records)
    : records_(std::move(records)) {
  std::sort(records_.begin(), records_.end(),
            [](const LogRecord& a, const LogRecord& b) { return a.seq < b.seq; });
}

std::vector<const LogRecord*> AuditAnalyzer::query(const AuditQuery& q) const {
  std::vector<const LogRecord*> out;
  for (const auto& r : records_) {
    if (q.path.has_value() && r.path != *q.path) continue;
    if (q.op.has_value() && r.op != *q.op) continue;
    if (r.timestamp_us < q.from_us || r.timestamp_us > q.to_us) continue;
    if (q.min_seq.has_value() && r.seq < *q.min_seq) continue;
    if (q.max_seq.has_value() && r.seq > *q.max_seq) continue;
    out.push_back(&r);
  }
  return out;
}

UsageStats AuditAnalyzer::stats() const {
  UsageStats s;
  for (const auto& r : records_) {
    ++s.total_operations;
    s.total_log_bytes += r.payload_size;
    ++(r.whole_file ? s.whole_file_entries : s.delta_entries);
    ++s.ops_by_type[r.op];
    ++s.ops_by_path[r.path];
    if (s.total_operations == 1 || r.timestamp_us < s.first_op_us) {
      s.first_op_us = r.timestamp_us;
    }
    s.last_op_us = std::max(s.last_op_us, r.timestamp_us);
  }
  return s;
}

std::set<std::uint64_t> AuditAnalyzer::detect_mass_rewrite() const {
  // Burst window: operations within this span count together.
  constexpr std::int64_t kWindowUs = 120'000'000;  // 2 virtual minutes
  // A burst is suspicious when it rewrites at least this many files...
  constexpr std::size_t kMinFiles = 3;
  // ...mostly with whole-file (not delta) entries.
  constexpr double kMinWholeFileFraction = 0.8;
  std::set<std::uint64_t> flagged;
  // Only rewrites of existing content are ransomware-shaped; creations of
  // brand-new files are normal behaviour.
  std::vector<const LogRecord*> updates;
  for (const auto& r : records_) {
    if (r.op == "update" || r.op == "delete") updates.push_back(&r);
  }
  // Sliding window by timestamp (records are in seq order == time order).
  for (std::size_t lo = 0, hi = 0; lo < updates.size(); ++lo) {
    if (hi < lo) hi = lo;
    while (hi + 1 < updates.size() && updates[hi + 1]->timestamp_us -
                                              updates[lo]->timestamp_us <=
                                          kWindowUs) {
      ++hi;
    }
    std::set<std::string> touched;
    std::size_t whole = 0, total = 0;
    for (std::size_t i = lo; i <= hi; ++i) {
      touched.insert(updates[i]->path);
      ++total;
      if (updates[i]->whole_file) ++whole;
    }
    if (touched.size() >= kMinFiles &&
        static_cast<double>(whole) >= kMinWholeFileFraction * static_cast<double>(total)) {
      for (std::size_t i = lo; i <= hi; ++i) flagged.insert(updates[i]->seq);
    }
  }
  return flagged;
}

}  // namespace rockfs::core
