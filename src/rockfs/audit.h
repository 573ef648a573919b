// Administrator-side log analysis (paper §2.2: administrators "monitor the
// usage of RockFS"). Provides structured queries and usage statistics over
// the verified log records, plus a heuristic ransomware detector.
//
// The paper explicitly takes intrusion detection as a given (§3.3 step 3:
// "we assume that there is some way of knowing which modifications have been
// compromised"). This module supplies a concrete instance of that assumed
// component: ransomware has a loud metadata signature — a dense burst of
// whole-file rewrites across many distinct files, with high-entropy payloads
// — and the detector flags exactly those log entries.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "rockfs/logservice.h"

namespace rockfs::core {

struct AuditQuery {
  std::optional<std::string> path;    // exact match
  std::optional<std::string> op;      // "create" | "update" | "delete" | ...
  std::int64_t from_us = 0;           // timestamp range [from, to]
  std::int64_t to_us = INT64_MAX;
  std::optional<std::uint64_t> min_seq;
  std::optional<std::uint64_t> max_seq;
};

struct UsageStats {
  std::size_t total_operations = 0;
  std::uint64_t total_log_bytes = 0;
  std::size_t whole_file_entries = 0;
  std::size_t delta_entries = 0;
  std::map<std::string, std::size_t> ops_by_type;
  std::map<std::string, std::size_t> ops_by_path;
  std::int64_t first_op_us = 0;
  std::int64_t last_op_us = 0;
};

/// Shannon entropy of a byte buffer in bits/byte (0..8). Ciphertext sits
/// near 8; text and most working data well below.
double byte_entropy(BytesView data);

class AuditAnalyzer {
 public:
  explicit AuditAnalyzer(std::vector<LogRecord> records);

  const std::vector<LogRecord>& records() const noexcept { return records_; }

  /// Records matching the query, in seq order.
  std::vector<const LogRecord*> query(const AuditQuery& q) const;

  UsageStats stats() const;

  /// Metadata-only detector: seq numbers of entries inside mass-rewrite
  /// bursts (at least 3 files rewritten within 2 virtual minutes, at least
  /// 80% of the entries whole-file). No payload access required.
  std::set<std::uint64_t> detect_mass_rewrite() const;

  /// Refines a candidate set with payload entropy: keeps only entries whose
  /// payload looks like ciphertext (entropy above `min_bits_per_byte`).
  /// `payload_of(record)` fetches the (decrypted) stored payload.
  template <typename PayloadFn>
  std::set<std::uint64_t> filter_by_entropy(const std::set<std::uint64_t>& candidates,
                                            PayloadFn&& payload_of,
                                            double min_bits_per_byte = 7.5) const {
    std::set<std::uint64_t> confirmed;
    for (const auto& r : records_) {
      if (!candidates.contains(r.seq)) continue;
      const Result<Bytes> payload = payload_of(r);
      if (!payload.ok()) continue;
      if (payload->size() >= 64 && byte_entropy(*payload) >= min_bits_per_byte) {
        confirmed.insert(r.seq);
      }
    }
    return confirmed;
  }

 private:
  std::vector<LogRecord> records_;  // seq order
};

/// Users who authored flagged records, minus any the administrator manually
/// cleared: the input to Deployment::apply_audit_verdict (detection verdict →
/// credential revocation trigger).
std::set<std::string> implicated_users(const std::vector<LogRecord>& records,
                                       const std::set<std::uint64_t>& flagged_seqs,
                                       const std::set<std::string>& manual_overrides = {});

}  // namespace rockfs::core
