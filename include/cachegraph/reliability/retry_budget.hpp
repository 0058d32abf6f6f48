// Token-bucket retry budget: the anti-retry-storm valve.
//
// Retrying a failed sub-operation (a portal probe against a sick
// replica) is only safe while failures are rare: when a
// whole shard goes dark, every request wants a second attempt at once
// and naive retries double the offered load exactly when capacity
// halved. The budget caps the *global* retry rate the way gRPC does:
// a bucket holds at most `capacity` tokens, each retry spends
// one, and each *success* earns back a small fraction
// (`refill_per_success`). In steady state retries are free; in a storm
// the bucket drains in `capacity` retries and stays empty until real
// successes refill it — so the retry rate is bounded at
// `refill_per_success` × success rate, a fixed overhead instead of an
// amplification factor.
//
// Lock-free: the balance is milli-tokens in one atomic, CAS to spend,
// saturating CAS to earn. Counters record grants/denials so chaos
// tests and bench scene 8 can prove the valve actually closed.
#pragma once

#include <atomic>
#include <cstdint>

#include "cachegraph/common/check.hpp"
#include "cachegraph/obs/counters.hpp"

namespace cachegraph::reliability {

/// Namespace-scope so `= {}` default arguments work in non-template
/// classes (aliased as RetryBudget::Config).
struct RetryBudgetConfig {
  /// Maximum banked tokens (= burst of retries tolerated at once).
  double capacity = 10.0;
  /// Tokens earned per reported success. 0.1 ⇒ at most one retry
  /// per ten successes once the bucket has drained.
  double refill_per_success = 0.1;
};

class RetryBudget {
 public:
  using Config = RetryBudgetConfig;

  struct Stats {
    std::uint64_t granted = 0;
    std::uint64_t denied = 0;
  };

  explicit RetryBudget(const Config& cfg = {}) : cfg_(cfg), milli_(to_milli(cfg.capacity)) {
    CG_CHECK(cfg.capacity >= 0.0, "retry budget capacity must be >= 0");
    CG_CHECK(cfg.refill_per_success >= 0.0, "retry budget refill must be >= 0");
  }

  RetryBudget(const RetryBudget&) = delete;
  RetryBudget& operator=(const RetryBudget&) = delete;

  /// Spend one token. False ⇒ the budget is exhausted and the caller
  /// must fail with what it has instead of retrying.
  [[nodiscard]] bool try_acquire() noexcept {
    std::int64_t cur = milli_.load(std::memory_order_relaxed);
    while (cur >= kMilli) {
      if (milli_.compare_exchange_weak(cur, cur - kMilli, std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        granted_.fetch_add(1, std::memory_order_relaxed);
        CG_COUNTER_INC("reliability.retry_budget.granted");
        return true;
      }
    }
    denied_.fetch_add(1, std::memory_order_relaxed);
    CG_COUNTER_INC("reliability.retry_budget.denied");
    return false;
  }

  /// Report a success: earn refill_per_success tokens, saturating at
  /// capacity.
  void on_success() noexcept {
    const std::int64_t add = to_milli(cfg_.refill_per_success);
    if (add == 0) return;
    const std::int64_t cap = to_milli(cfg_.capacity);
    std::int64_t cur = milli_.load(std::memory_order_relaxed);
    while (true) {
      const std::int64_t next = cur + add > cap ? cap : cur + add;
      if (next == cur) return;
      if (milli_.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        return;
      }
    }
  }

  /// Current balance in whole-token units (observability only).
  [[nodiscard]] double tokens() const noexcept {
    return static_cast<double>(milli_.load(std::memory_order_relaxed)) /
           static_cast<double>(kMilli);
  }

  [[nodiscard]] Stats stats() const noexcept {
    return Stats{granted_.load(std::memory_order_relaxed),
                 denied_.load(std::memory_order_relaxed)};
  }

 private:
  static constexpr std::int64_t kMilli = 1000;

  [[nodiscard]] static std::int64_t to_milli(double tokens) noexcept {
    return static_cast<std::int64_t>(tokens * static_cast<double>(kMilli) + 0.5);
  }

  Config cfg_;
  std::atomic<std::int64_t> milli_;
  std::atomic<std::uint64_t> granted_{0};
  std::atomic<std::uint64_t> denied_{0};
};

}  // namespace cachegraph::reliability
