#include "src/common/retry.h"

namespace bmx {

bool RetryPolicy::AllowAttempt(NodeId peer, uint64_t now) {
  auto it = breakers_.find(peer);
  if (it == breakers_.end()) return true;
  Breaker& b = it->second;
  switch (b.state) {
    case BreakerState::kClosed:
    case BreakerState::kHalfOpen:
      // A half-open breaker already admitted its probe; further attempts
      // wait for the probe's outcome.
      return b.state == BreakerState::kClosed;
    case BreakerState::kOpen:
      if (now < b.open_until) return false;
      b.state = BreakerState::kHalfOpen;
      return true;
  }
  return true;
}

void RetryPolicy::RecordSuccess(NodeId peer) {
  auto it = breakers_.find(peer);
  if (it == breakers_.end()) return;
  it->second = Breaker{};
}

void RetryPolicy::RecordFailure(NodeId peer, uint64_t now) {
  Breaker& b = breakers_[peer];
  if (b.consecutive_failures < UINT32_MAX) b.consecutive_failures++;
  if (b.state == BreakerState::kHalfOpen || b.consecutive_failures >= kBreakerThreshold) {
    b.state = BreakerState::kOpen;
    b.open_until = now + kBreakerCooldownTicks;
  }
}

RetryPolicy::BreakerState RetryPolicy::StateOf(NodeId peer) const {
  auto it = breakers_.find(peer);
  return it == breakers_.end() ? BreakerState::kClosed : it->second.state;
}

}  // namespace bmx
