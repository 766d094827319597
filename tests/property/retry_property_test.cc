// Property tests for the unified RetryPolicy (src/common/retry.h): backoff
// shape (monotone up to the cap, legacy-compatible), the attempt budget, and
// the per-peer circuit breaker's open → half-open → closed/re-open life
// cycle, all at the policy's constants.

#include <gtest/gtest.h>

#include "src/common/retry.h"

namespace bmx {
namespace {

// The backoff must reproduce the legacy network retransmit shift
// (`timeout << min(attempts, 16)`) bit for bit — the pinned traffic
// fingerprints depend on it.
TEST(RetryBackoff, DefaultConfigMatchesLegacyShift) {
  for (uint32_t attempt = 0; attempt < 40; ++attempt) {
    EXPECT_EQ(RetryPolicy::BackoffFor(attempt), uint64_t{8} << (attempt < 16 ? attempt : 16))
        << "attempt " << attempt;
  }
}

// Monotone non-decreasing: the backoff doubles every attempt up to the cap
// and stays there.
TEST(RetryBackoff, MonotoneNonDecreasingUpToCap) {
  uint64_t prev = 0;
  for (uint32_t attempt = 0; attempt <= RetryPolicy::kBackoffShiftCap + 4; ++attempt) {
    uint64_t backoff = RetryPolicy::BackoffFor(attempt);
    EXPECT_GE(backoff, prev) << "attempt " << attempt;
    prev = backoff;
  }
  EXPECT_EQ(prev, RetryPolicy::kBaseTimeout << RetryPolicy::kBackoffShiftCap);
}

TEST(RetryBudget, ExhaustedHonorsBudget) {
  static_assert(RetryPolicy::kAttemptBudget == 3);
  EXPECT_FALSE(RetryPolicy::Exhausted(0));
  EXPECT_FALSE(RetryPolicy::Exhausted(2));
  EXPECT_TRUE(RetryPolicy::Exhausted(3));
  EXPECT_TRUE(RetryPolicy::Exhausted(4));
}

// Breaker life cycle: threshold consecutive failures open it, the cooldown
// holds attempts off, then one half-open probe is admitted and its outcome
// re-closes or re-opens the breaker.
TEST(RetryBreaker, OpensAfterThresholdAndReclosesOnProbeSuccess) {
  constexpr uint64_t kCooldown = RetryPolicy::kBreakerCooldownTicks;
  RetryPolicy policy;
  const NodeId peer = 2;
  uint64_t now = 10;

  for (uint32_t i = 0; i + 1 < RetryPolicy::kBreakerThreshold; ++i) {
    EXPECT_TRUE(policy.AllowAttempt(peer, now));
    policy.RecordFailure(peer, now);
    EXPECT_EQ(policy.StateOf(peer), RetryPolicy::BreakerState::kClosed);
  }
  policy.RecordFailure(peer, now);
  EXPECT_EQ(policy.StateOf(peer), RetryPolicy::BreakerState::kOpen);

  // Open: refused until the cooldown elapses.
  EXPECT_FALSE(policy.AllowAttempt(peer, now));
  EXPECT_FALSE(policy.AllowAttempt(peer, now + kCooldown - 1));
  // Cooldown over: exactly one half-open probe.
  EXPECT_TRUE(policy.AllowAttempt(peer, now + kCooldown));
  EXPECT_EQ(policy.StateOf(peer), RetryPolicy::BreakerState::kHalfOpen);
  EXPECT_FALSE(policy.AllowAttempt(peer, now + kCooldown));

  // Probe succeeds: breaker re-closes and failures reset (it takes the full
  // threshold to open it again).
  policy.RecordSuccess(peer);
  EXPECT_EQ(policy.StateOf(peer), RetryPolicy::BreakerState::kClosed);
  EXPECT_TRUE(policy.AllowAttempt(peer, now + kCooldown + 1));
  policy.RecordFailure(peer, now + kCooldown + 1);
  EXPECT_EQ(policy.StateOf(peer), RetryPolicy::BreakerState::kClosed);
}

TEST(RetryBreaker, FailedProbeReopensWithFreshCooldown) {
  constexpr uint64_t kCooldown = RetryPolicy::kBreakerCooldownTicks;
  RetryPolicy policy;
  const NodeId peer = 1;
  for (uint32_t i = 0; i < RetryPolicy::kBreakerThreshold; ++i) {
    policy.RecordFailure(peer, 0);
  }
  EXPECT_EQ(policy.StateOf(peer), RetryPolicy::BreakerState::kOpen);
  EXPECT_TRUE(policy.AllowAttempt(peer, kCooldown));  // half-open probe
  policy.RecordFailure(peer, kCooldown);
  EXPECT_EQ(policy.StateOf(peer), RetryPolicy::BreakerState::kOpen);
  EXPECT_FALSE(policy.AllowAttempt(peer, 2 * kCooldown - 1));
  EXPECT_TRUE(policy.AllowAttempt(peer, 2 * kCooldown));
}

// Breakers are per peer: peer 1 tripping must not affect peer 2.
TEST(RetryBreaker, PerPeerIsolation) {
  RetryPolicy policy;
  for (uint32_t i = 0; i < RetryPolicy::kBreakerThreshold; ++i) {
    policy.RecordFailure(1, 0);
  }
  EXPECT_EQ(policy.StateOf(1), RetryPolicy::BreakerState::kOpen);
  EXPECT_FALSE(policy.AllowAttempt(1, 0));
  EXPECT_TRUE(policy.AllowAttempt(2, 0));
  EXPECT_EQ(policy.StateOf(2), RetryPolicy::BreakerState::kClosed);
}

}  // namespace
}  // namespace bmx
