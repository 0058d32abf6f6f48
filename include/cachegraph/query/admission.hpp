// AdmissionGate — the serving stack's one admission ladder.
//
// A gate bounds how many requests run at once and decides what an
// arrival over the cap gets (OverloadPolicy):
//
//   kReject  resolve OVERLOADED immediately — fail fast, caller retries.
//   kShed    cancel the oldest in-flight request that is not already
//            cancelled and admit the arrival over the cap (newest wins;
//            the victim resolves CANCELLED at its next poll).
//   kBlock   wait for a slot, polling the caller's cancel token and
//            deadline between wait steps — but shed to OVERLOADED once
//            half the remaining budget has gone to waiting
//            (block_budget_exhausted).
//
// QueryEngine::try_run opens one gate per batch (its kBlock wait step
// helps drain the pool); Router keeps one per tenant (its wait step
// yields). Admission is an atomic increment-if-below-cap, so the cap
// holds however many threads race for the last slot. The uncontended
// path is one load, one compare and one compare-exchange; only kShed
// gates keep the victim list, so no other policy takes the lock.
//
// Tallies (blocked / rejected / shed / deadline rejects) are counted
// once, here, and mirrored into the `reliability.admission.*`
// counters.
//
// Threading contract: enter/leave/stats are safe from any thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cachegraph/obs/counters.hpp"
#include "cachegraph/reliability/cancel.hpp"
#include "cachegraph/reliability/status.hpp"

namespace cachegraph::query {

/// What to do with a request that arrives while max_in_flight requests
/// are already running.
enum class OverloadPolicy {
  kBlock,   ///< wait until a slot frees (bounded by half the deadline budget)
  kReject,  ///< resolve OVERLOADED immediately — fail fast, caller retries
  kShed,    ///< cancel the oldest in-flight request to make room (newest wins)
};

[[nodiscard]] constexpr const char* to_string(OverloadPolicy p) noexcept {
  switch (p) {
    case OverloadPolicy::kBlock: return "block";
    case OverloadPolicy::kReject: return "reject";
    case OverloadPolicy::kShed: return "shed";
  }
  return "?";
}

/// Deadline-aware kBlock: true once `now` has passed the halfway point
/// between `enter` (when blocking began) and the request's deadline.
/// Past that point less than half the budget remains for the search
/// itself, so continuing to queue is throwing good time after bad —
/// the request sheds to OVERLOADED while the caller can still retry
/// elsewhere, instead of limping to a near-certain DEADLINE_EXCEEDED.
/// An unarmed deadline never exhausts (unbounded blocking).
[[nodiscard]] inline bool block_budget_exhausted(
    std::chrono::steady_clock::time_point enter, const reliability::Deadline& deadline,
    std::chrono::steady_clock::time_point now) noexcept {
  if (!deadline.armed()) return false;
  return now - enter >= (deadline.when() - enter) / 2;
}

/// An admission limit (QueryEngine::Admission, Router::TenantQuota).
struct AdmissionConfig {
  std::size_t max_in_flight = 0;  ///< 0 = unbounded
  OverloadPolicy policy = OverloadPolicy::kBlock;
};

class AdmissionGate {
 public:
  struct Stats {
    std::uint64_t blocked = 0;           ///< admissions that waited for a slot
    std::uint64_t rejected = 0;          ///< kReject refusals
    std::uint64_t shed = 0;              ///< victims cancelled to admit newer work
    std::uint64_t deadline_rejects = 0;  ///< kBlock refusals at the half-budget mark
  };

  /// `name` opens every refusal message ("admission", "tenant 'gold'").
  explicit AdmissionGate(AdmissionConfig cfg = {}, std::string name = "admission")
      : cfg_(cfg), name_(std::move(name)) {}

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// Admits one request or says why not. OK means the caller holds a
  /// slot and must call leave(victim) once the request resolves.
  /// `victim` is the request's own token — the one a later kShed
  /// arrival may cancel; it must outlive the slot. `cancel` and
  /// `deadline` bound a kBlock wait, and `wait_step()` runs between
  /// its polls.
  template <typename WaitStep>
  [[nodiscard]] reliability::Status enter(reliability::CancelToken& victim,
                                          const reliability::CancelToken* cancel,
                                          const reliability::Deadline& deadline,
                                          WaitStep&& wait_step) {
    if (!try_take()) {
      switch (cfg_.policy) {
        case OverloadPolicy::kReject:
          rejected_.fetch_add(1, std::memory_order_relaxed);
          CG_COUNTER_INC("reliability.admission.rejected");
          return reliability::overloaded(name_ + ": " + std::to_string(cfg_.max_in_flight) +
                                         " requests already in flight");
        case OverloadPolicy::kShed:
          shed_oldest();
          in_flight_.fetch_add(1, std::memory_order_acq_rel);  // over the cap, briefly
          break;
        case OverloadPolicy::kBlock:
          if (auto st = block(cancel, deadline, wait_step); !st.is_ok()) return st;
          break;
      }
    }
    if (tracks_victims()) {
      const std::lock_guard<std::mutex> lock(mu_);
      active_.push_back(&victim);
    }
    return {};
  }

  /// Frees the slot `enter` granted.
  void leave(reliability::CancelToken& victim) noexcept {
    if (tracks_victims()) {
      const std::lock_guard<std::mutex> lock(mu_);
      active_.erase(std::find(active_.begin(), active_.end(), &victim));
    }
    in_flight_.fetch_sub(1, std::memory_order_release);
  }

  [[nodiscard]] std::size_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] Stats stats() const noexcept {
    return Stats{blocked_.load(std::memory_order_relaxed),
                 rejected_.load(std::memory_order_relaxed),
                 shed_.load(std::memory_order_relaxed),
                 deadline_rejects_.load(std::memory_order_relaxed)};
  }

 private:
  [[nodiscard]] bool tracks_victims() const noexcept {
    return cfg_.policy == OverloadPolicy::kShed && cfg_.max_in_flight != 0;
  }

  /// Increment-if-below-cap: a racing arrival can never push the count
  /// past the cap (kShed's deliberate overshoot aside).
  [[nodiscard]] bool try_take() noexcept {
    if (cfg_.max_in_flight == 0) {
      in_flight_.fetch_add(1, std::memory_order_acq_rel);
      return true;
    }
    std::size_t cur = in_flight_.load(std::memory_order_acquire);
    while (cur < cfg_.max_in_flight) {
      if (in_flight_.compare_exchange_weak(cur, cur + 1, std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        return true;
      }
    }
    return false;
  }

  /// Cancels the oldest victim not already cancelled: skipping past
  /// earlier victims keeps the ladder moving — each overflow admission
  /// kills one distinct older request.
  void shed_oldest() {
    const std::lock_guard<std::mutex> lock(mu_);
    for (reliability::CancelToken* victim : active_) {
      if (!victim->cancelled()) {
        victim->cancel();
        shed_.fetch_add(1, std::memory_order_relaxed);
        CG_COUNTER_INC("reliability.admission.shed");
        return;
      }
    }
  }

  template <typename WaitStep>
  [[nodiscard]] reliability::Status block(const reliability::CancelToken* cancel,
                                          const reliability::Deadline& deadline,
                                          WaitStep& wait_step) {
    blocked_.fetch_add(1, std::memory_order_relaxed);
    CG_COUNTER_INC("reliability.admission.blocked");
    const auto enter = std::chrono::steady_clock::now();
    while (!try_take()) {
      if (cancel != nullptr && cancel->cancelled()) {
        CG_COUNTER_INC("reliability.requests.cancelled");
        return reliability::cancelled(name_ + ": cancelled while blocked");
      }
      if (deadline.expired()) {
        CG_COUNTER_INC("reliability.requests.deadline_exceeded");
        return reliability::deadline_exceeded(name_ + ": deadline spent while blocked");
      }
      // Once half the budget has gone to queueing, the search that
      // would follow is already starved — shed to OVERLOADED
      // (retryable) instead of blocking on toward a certain
      // DEADLINE_EXCEEDED (not).
      if (block_budget_exhausted(enter, deadline, std::chrono::steady_clock::now())) {
        deadline_rejects_.fetch_add(1, std::memory_order_relaxed);
        CG_COUNTER_INC("reliability.admission.deadline_rejected");
        return reliability::overloaded(name_ + ": half the deadline budget spent blocked");
      }
      wait_step();
    }
    return {};
  }

  const AdmissionConfig cfg_;
  const std::string name_;
  std::atomic<std::size_t> in_flight_{0};
  std::mutex mu_;
  std::vector<reliability::CancelToken*> active_;  ///< kShed victims, admission order
  std::atomic<std::uint64_t> blocked_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> deadline_rejects_{0};
};

}  // namespace cachegraph::query
