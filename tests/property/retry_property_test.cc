// Property tests for the unified RetryPolicy (src/common/retry.h): backoff
// shape (monotone up to the cap, legacy-compatible by default), attempt
// budgets, and the per-peer circuit breaker's open → half-open →
// closed/re-open life cycle.

#include <gtest/gtest.h>

#include "src/common/retry.h"
#include "src/common/rng.h"

namespace bmx {
namespace {

// The default config must reproduce the legacy network retransmit shift
// (`timeout << min(attempts, 16)`) bit for bit — the pinned traffic
// fingerprints depend on it.
TEST(RetryBackoff, DefaultConfigMatchesLegacyShift) {
  RetryPolicy policy;
  for (uint32_t attempt = 0; attempt < 40; ++attempt) {
    EXPECT_EQ(policy.BackoffFor(attempt),
              uint64_t{8} << (attempt < 16 ? attempt : 16))
        << "attempt " << attempt;
  }
}

// Monotone non-decreasing up to the cap, for many configs: the backoff
// doubles every attempt.
TEST(RetryBackoff, MonotoneNonDecreasingUpToCap) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    RetryPolicyConfig config;
    config.base_timeout = 1 + rng.Below(64);
    config.backoff_shift_cap = 1 + static_cast<uint32_t>(rng.Below(20));
    RetryPolicy policy(config);
    uint64_t prev = 0;
    for (uint32_t attempt = 0; attempt <= config.backoff_shift_cap; ++attempt) {
      uint64_t backoff = policy.BackoffFor(attempt);
      EXPECT_GE(backoff, prev) << "trial " << trial << " attempt " << attempt;
      prev = backoff;
    }
  }
}

TEST(RetryBudget, ExhaustedHonorsBudgetAndUnboundedZero) {
  RetryPolicyConfig config;
  config.attempt_budget = 3;
  RetryPolicy bounded(config);
  EXPECT_FALSE(bounded.Exhausted(0));
  EXPECT_FALSE(bounded.Exhausted(2));
  EXPECT_TRUE(bounded.Exhausted(3));
  EXPECT_TRUE(bounded.Exhausted(4));
  RetryPolicy unbounded;
  EXPECT_FALSE(unbounded.Exhausted(1u << 30));
}

// Breaker life cycle: threshold consecutive failures open it, the cooldown
// holds attempts off, then one half-open probe is admitted and its outcome
// re-closes or re-opens the breaker.
TEST(RetryBreaker, OpensAfterThresholdAndReclosesOnProbeSuccess) {
  RetryPolicyConfig config;
  config.breaker_threshold = 3;
  config.breaker_cooldown_ticks = 100;
  RetryPolicy policy(config);
  const NodeId peer = 2;
  uint64_t now = 10;

  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(policy.AllowAttempt(peer, now));
    policy.RecordFailure(peer, now);
    EXPECT_EQ(policy.StateOf(peer), RetryPolicy::BreakerState::kClosed);
  }
  policy.RecordFailure(peer, now);
  EXPECT_EQ(policy.StateOf(peer), RetryPolicy::BreakerState::kOpen);

  // Open: refused until the cooldown elapses.
  EXPECT_FALSE(policy.AllowAttempt(peer, now));
  EXPECT_FALSE(policy.AllowAttempt(peer, now + 99));
  // Cooldown over: exactly one half-open probe.
  EXPECT_TRUE(policy.AllowAttempt(peer, now + 100));
  EXPECT_EQ(policy.StateOf(peer), RetryPolicy::BreakerState::kHalfOpen);
  EXPECT_FALSE(policy.AllowAttempt(peer, now + 100));

  // Probe succeeds: breaker re-closes and failures reset (it takes the full
  // threshold to open it again).
  policy.RecordSuccess(peer);
  EXPECT_EQ(policy.StateOf(peer), RetryPolicy::BreakerState::kClosed);
  EXPECT_TRUE(policy.AllowAttempt(peer, now + 101));
  policy.RecordFailure(peer, now + 101);
  EXPECT_EQ(policy.StateOf(peer), RetryPolicy::BreakerState::kClosed);
}

TEST(RetryBreaker, FailedProbeReopensWithFreshCooldown) {
  RetryPolicyConfig config;
  config.breaker_threshold = 2;
  config.breaker_cooldown_ticks = 50;
  RetryPolicy policy(config);
  const NodeId peer = 1;
  policy.RecordFailure(peer, 0);
  policy.RecordFailure(peer, 0);
  EXPECT_EQ(policy.StateOf(peer), RetryPolicy::BreakerState::kOpen);
  EXPECT_TRUE(policy.AllowAttempt(peer, 50));  // half-open probe
  policy.RecordFailure(peer, 50);
  EXPECT_EQ(policy.StateOf(peer), RetryPolicy::BreakerState::kOpen);
  EXPECT_FALSE(policy.AllowAttempt(peer, 99));
  EXPECT_TRUE(policy.AllowAttempt(peer, 100));
}

TEST(RetryBreaker, DisabledBreakerAdmitsEverything) {
  RetryPolicy policy;  // breaker_threshold = 0
  for (int i = 0; i < 100; ++i) {
    policy.RecordFailure(0, static_cast<uint64_t>(i));
    EXPECT_TRUE(policy.AllowAttempt(0, static_cast<uint64_t>(i)));
    EXPECT_EQ(policy.StateOf(0), RetryPolicy::BreakerState::kClosed);
  }
}

// Breakers are per peer: peer 1 tripping must not affect peer 2.
TEST(RetryBreaker, PerPeerIsolation) {
  RetryPolicyConfig config;
  config.breaker_threshold = 1;
  RetryPolicy policy(config);
  policy.RecordFailure(1, 0);
  EXPECT_EQ(policy.StateOf(1), RetryPolicy::BreakerState::kOpen);
  EXPECT_FALSE(policy.AllowAttempt(1, 0));
  EXPECT_TRUE(policy.AllowAttempt(2, 0));
  EXPECT_EQ(policy.StateOf(2), RetryPolicy::BreakerState::kClosed);
}

}  // namespace
}  // namespace bmx
