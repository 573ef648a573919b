#include "depsky/health.h"

#include <stdexcept>

namespace rockfs::depsky {

const char* misbehavior_kind_name(MisbehaviorKind k) {
  switch (k) {
    case MisbehaviorKind::kRollback: return "rollback";
    case MisbehaviorKind::kEquivocation: return "equivocation";
    case MisbehaviorKind::kWithheldShare: return "withheld_share";
  }
  return "unknown";
}

HealthTracker::HealthTracker(sim::SimClockPtr clock, HealthOptions options,
                             std::string label)
    : clock_(std::move(clock)),
      options_(options),
      opened_counter_(
          &obs::metrics().counter(obs::metric_key("depsky.breaker.opened", label))),
      misbehavior_counter_(
          &obs::metrics().counter(obs::metric_key("depsky.misbehavior", label))),
      quarantined_counter_(
          &obs::metrics().counter(obs::metric_key("depsky.quarantined", label))) {
  if (!clock_) throw std::invalid_argument("HealthTracker: null clock");
  if (options_.failure_threshold < 1) {
    throw std::invalid_argument("HealthTracker: failure_threshold must be >= 1");
  }
}

std::uint64_t HealthTracker::misbehavior_total() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : misbehavior_counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

void HealthTracker::record_misbehavior(MisbehaviorKind kind) {
  const std::uint64_t count =
      misbehavior_counts_[static_cast<std::size_t>(kind)].fetch_add(
          1, std::memory_order_relaxed) +
      1;
  misbehavior_counter_->add();
  const bool condemns =
      kind != MisbehaviorKind::kWithheldShare ||
      count >= static_cast<std::uint64_t>(kWithheldShareThreshold);
  if (condemns && !quarantined_.exchange(true, std::memory_order_relaxed)) {
    quarantined_counter_->add();
  }
}

HealthTracker::State HealthTracker::effective_state_locked() const {
  if (state_ == State::kOpen &&
      clock_->now_us() >= opened_at_us_ + options_.open_cooldown_us) {
    return State::kHalfOpen;
  }
  return state_;
}

HealthTracker::State HealthTracker::state() const {
  std::lock_guard<std::mutex> lk(mu_);
  return effective_state_locked();
}

void HealthTracker::record_success() {
  std::lock_guard<std::mutex> lk(mu_);
  switch (effective_state_locked()) {
    case State::kClosed:
      consecutive_failures_ = 0;
      break;
    case State::kOpen:      // a successful forced probe counts like a probe
    case State::kHalfOpen:
      if (++probe_successes_ >= kHalfOpenSuccesses) {
        state_ = State::kClosed;
        consecutive_failures_ = 0;
        probe_successes_ = 0;
      }
      break;
  }
}

void HealthTracker::record_failure() {
  std::lock_guard<std::mutex> lk(mu_);
  switch (effective_state_locked()) {
    case State::kClosed:
      if (++consecutive_failures_ >= options_.failure_threshold) {
        state_ = State::kOpen;
        opened_at_us_ = clock_->now_us();
        probe_successes_ = 0;
        ++times_opened_;
        opened_counter_->add();
      }
      break;
    case State::kHalfOpen:
      // A failed probe re-opens the breaker for a fresh cooldown.
      state_ = State::kOpen;
      opened_at_us_ = clock_->now_us();
      probe_successes_ = 0;
      ++times_opened_;
      opened_counter_->add();
      break;
    case State::kOpen:
      // A failed forced probe pushes the half-open transition back.
      opened_at_us_ = clock_->now_us();
      probe_successes_ = 0;
      break;
  }
}

}  // namespace rockfs::depsky
