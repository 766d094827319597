// Unified retry policy: capped exponential backoff, an attempt budget, and
// per-peer circuit-breaker state.
//
// Before this existed each retry driver carried its own inline rules: the
// network's retransmit timer computed `timeout << min(attempts, 16)` by hand
// and the DSM acquire driver hard-coded a 3-attempt bound.  Both now share
// one policy object, so the backoff shape, the budget and the breaker are
// configured — and tested — in one place.
//
// Determinism contract: BackoffFor is a pure function of (config, attempt),
// so computing a backoff never consumes stream state and never needs a
// DecisionLog entry.  With the default config (shift cap 16) BackoffFor
// reproduces the legacy network shift bit-for-bit, which is what keeps pinned
// traffic fingerprints unchanged.

#ifndef SRC_COMMON_RETRY_H_
#define SRC_COMMON_RETRY_H_

#include <cstdint>
#include <map>

#include "src/common/types.h"

namespace bmx {

struct RetryPolicyConfig {
  // Backoff for attempt a is base_timeout << min(a, backoff_shift_cap).
  uint64_t base_timeout = 8;
  uint32_t backoff_shift_cap = 16;
  // Total attempts a driver may make before giving up; 0 = unbounded.
  uint32_t attempt_budget = 0;
  // Consecutive failures toward one peer that trip its breaker; 0 disables
  // the breaker (AllowAttempt always true).
  uint32_t breaker_threshold = 0;
  // Virtual-clock ticks an open breaker holds off attempts before letting a
  // single half-open probe through.
  uint64_t breaker_cooldown_ticks = 1024;
};

class RetryPolicy {
 public:
  enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };

  RetryPolicy() = default;
  explicit RetryPolicy(const RetryPolicyConfig& config) : config_(config) {}

  // Backoff (in virtual-clock ticks) before retry number `attempt` (1-based:
  // the network passes the post-increment attempt counter; 0 is the first
  // transmission's timeout).
  uint64_t BackoffFor(uint32_t attempt) const;

  // True once `attempts_made` uses up the attempt budget (never with
  // budget 0).
  bool Exhausted(uint32_t attempts_made) const {
    return config_.attempt_budget != 0 && attempts_made >= config_.attempt_budget;
  }

  // Circuit breaker, per peer, driven by the caller's virtual clock.  A
  // closed breaker admits every attempt.  breaker_threshold consecutive
  // failures open it; while open, attempts are refused until the cooldown
  // elapses, then exactly one half-open probe is admitted.  The probe's
  // outcome re-closes (RecordSuccess) or re-opens (RecordFailure) it.
  bool AllowAttempt(NodeId peer, uint64_t now);
  void RecordSuccess(NodeId peer);
  void RecordFailure(NodeId peer, uint64_t now);
  BreakerState StateOf(NodeId peer) const;

 private:
  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    uint32_t consecutive_failures = 0;
    uint64_t open_until = 0;
  };

  RetryPolicyConfig config_;
  std::map<NodeId, Breaker> breakers_;
};

}  // namespace bmx

#endif  // SRC_COMMON_RETRY_H_
