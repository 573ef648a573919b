// Per-cloud circuit breaker driven by virtual time. Tracks transport-level
// health of one provider as seen by a DepSky client:
//
//   closed     — requests flow; `failure_threshold` consecutive transport
//                failures trip the breaker
//   open       — requests are skipped (fail-fast) until `open_cooldown_us`
//                of virtual time has passed
//   half-open  — probe requests are admitted; kHalfOpenSuccesses
//                consecutive successes close the breaker, one failure
//                re-opens it
//
// The breaker is an *optimization*: callers that cannot reach a quorum
// without an open cloud conscript it anyway (a forced probe), so the
// breaker can never make an operation fail that would otherwise succeed.
// Successful forced probes count like half-open probes, so a recovered
// cloud heals the breaker even while it is nominally open.
// Thread-safe: fan-out branches running on a pool record outcomes for
// different clouds concurrently, and the coordinator may consult any
// breaker's state while they do. All transitions happen under an internal
// mutex; the hot read-side accessors are atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "sim/clock.h"

namespace rockfs::depsky {

struct HealthOptions {
  int failure_threshold = 3;
  sim::SimClock::Micros open_cooldown_us = 5'000'000;  // 5 s of virtual time
};

/// Consecutive successful probes that close a half-open breaker.
inline constexpr int kHalfOpenSuccesses = 2;
/// Withheld-share incidents tolerated before quarantine. Unlike rollback /
/// equivocation (each individually provable), a missing acked share is
/// indistinguishable from genuine provider-side data loss, so a single
/// incident must not condemn the cloud.
inline constexpr int kWithheldShareThreshold = 3;

// ------------------------------------------------------ misbehavior ledger
//
// The breaker above tracks *transport* health: outages and timeouts are
// transient, so breaker-open state heals with time and open clouds are even
// conscripted as forced probes when a quorum needs them. Malice is not
// transient. Once a cloud is caught serving below its own witnessed version
// mark (rollback), contradicting what it told another session
// (equivocation), or repeatedly denying shares it acked (withholding), it is
// *quarantined*: sticky for the lifetime of the tracker, never conscripted,
// excluded from every quorum until the admin reconfigures the cloud set
// (depsky/reconfig.h).

/// Why a cloud was flagged by the freshness/accountability checks.
enum class MisbehaviorKind {
  kRollback = 0,   // served below its own witnessed mark (same session)
  kEquivocation,   // contradicted a version witnessed by another session
  kWithheldShare,  // acked a share upload, then claimed it never existed
};
inline constexpr std::size_t kMisbehaviorKinds = 3;

const char* misbehavior_kind_name(MisbehaviorKind k);

class HealthTracker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  /// `label` (typically the cloud name) tags the breaker's registry metrics;
  /// empty means the unlabeled "depsky.breaker.opened" counter.
  HealthTracker(sim::SimClockPtr clock, HealthOptions options = {},
                std::string label = {});

  /// Effective state at the current virtual time (open lapses into
  /// half-open once the cooldown has passed).
  State state() const;
  /// Whether a request should be sent (closed or half-open probe). A
  /// quarantined cloud never gets one.
  bool allow_request() const { return !quarantined() && state() != State::kOpen; }

  void record_success();
  void record_failure();

  // ---- misbehavior ledger (sticky quarantine) ----

  /// Records one incident; quarantines immediately for provable kinds
  /// (rollback, equivocation) and after kWithheldShareThreshold incidents
  /// for withheld shares. Quarantine is sticky: no success, cooldown, or
  /// probe ever lifts it.
  void record_misbehavior(MisbehaviorKind kind);
  bool quarantined() const noexcept {
    return quarantined_.load(std::memory_order_relaxed);
  }
  std::uint64_t misbehavior_count(MisbehaviorKind kind) const noexcept {
    return misbehavior_counts_[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t misbehavior_total() const noexcept;

  int consecutive_failures() const noexcept {
    return consecutive_failures_.load(std::memory_order_relaxed);
  }
  /// Number of times the breaker tripped closed -> open (re-opens included).
  std::uint64_t times_opened() const noexcept {
    return times_opened_.load(std::memory_order_relaxed);
  }

 private:
  /// state() with mu_ already held (record_* call it mid-transition).
  State effective_state_locked() const;

  mutable std::mutex mu_;
  sim::SimClockPtr clock_;
  HealthOptions options_;
  State state_ = State::kClosed;
  std::atomic<int> consecutive_failures_{0};
  int probe_successes_ = 0;
  sim::SimClock::Micros opened_at_us_ = 0;
  std::atomic<std::uint64_t> times_opened_{0};
  std::atomic<bool> quarantined_{false};
  std::atomic<std::uint64_t> misbehavior_counts_[kMisbehaviorKinds] = {};
  obs::Counter* opened_counter_ = nullptr;  // cached registry handles
  obs::Counter* misbehavior_counter_ = nullptr;
  obs::Counter* quarantined_counter_ = nullptr;
};

}  // namespace rockfs::depsky
