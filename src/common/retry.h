// Unified retry policy: capped exponential backoff, an attempt budget, and
// per-peer circuit-breaker state.
//
// Before this existed each retry driver carried its own inline rules: the
// network's retransmit timer computed `timeout << min(attempts, 16)` by hand
// and the DSM acquire driver hard-coded a 3-attempt bound.  Both now share
// one policy, so the backoff shape, the budget and the breaker are defined —
// and tested — in one place.  Each has one value in use, so they are
// constants, not options.
//
// Determinism contract: BackoffFor is a pure function of the attempt, so
// computing a backoff never consumes stream state and never needs a
// DecisionLog entry.  It reproduces the legacy network shift bit for bit,
// which is what keeps pinned traffic fingerprints unchanged.

#ifndef SRC_COMMON_RETRY_H_
#define SRC_COMMON_RETRY_H_

#include <cstdint>
#include <map>

#include "src/common/types.h"

namespace bmx {

class RetryPolicy {
 public:
  enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };

  // Backoff for attempt a is kBaseTimeout << min(a, kBackoffShiftCap).
  static constexpr uint64_t kBaseTimeout = 8;
  static constexpr uint32_t kBackoffShiftCap = 16;
  // Total attempts a driver may make before giving up.
  static constexpr uint32_t kAttemptBudget = 3;
  // Consecutive failures toward one peer that trip its breaker.
  static constexpr uint32_t kBreakerThreshold = 6;
  // Virtual-clock ticks an open breaker holds off attempts before letting a
  // single half-open probe through.
  static constexpr uint64_t kBreakerCooldownTicks = 1024;

  // Backoff (in virtual-clock ticks) before retry number `attempt` (1-based:
  // the network passes the post-increment attempt counter; 0 is the first
  // transmission's timeout).
  static uint64_t BackoffFor(uint32_t attempt) {
    return kBaseTimeout << (attempt < kBackoffShiftCap ? attempt : kBackoffShiftCap);
  }

  // True once `attempts_made` uses up the attempt budget.
  static bool Exhausted(uint32_t attempts_made) { return attempts_made >= kAttemptBudget; }

  // Circuit breaker, per peer, driven by the caller's virtual clock.  A
  // closed breaker admits every attempt.  kBreakerThreshold consecutive
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

  std::map<NodeId, Breaker> breakers_;
};

}  // namespace bmx

#endif  // SRC_COMMON_RETRY_H_
