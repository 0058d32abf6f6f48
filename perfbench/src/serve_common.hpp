// Pieces both serving workloads share: the Router type, a snapshot of
// every layer's public stats() and counters, and the metric emitters.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cachegraph/serving/router.hpp"
#include "driver.hpp"
#include "oracle.hpp"

namespace pb {

using W = std::int32_t;
using RouterT = cachegraph::serving::Router<W>;

/// Cumulative public tallies of every layer under one Router. Two
/// snapshots bracket a phase; their difference is the phase's work.
struct Layers {
  RouterT::Stats router{};
  std::uint64_t tenant_requests = 0, tenant_overloaded = 0;
  std::uint64_t blk_hits = 0, blk_misses = 0, blk_evictions = 0, blk_pinned_hw = 0;
  std::uint64_t rc_hits = 0, rc_lookups = 0, rc_recomputes = 0;
  std::uint64_t eng_requests = 0, eng_settled = 0, eng_early = 0, eng_allocs = 0;
  std::uint64_t co_computes = 0, co_joined = 0;
  std::uint64_t pq_ops = 0;

  static Layers take(RouterT& r, std::uint32_t tenant) {
    Layers l;
    l.router = r.stats();
    const auto ts = r.tenant_stats(tenant);
    l.tenant_requests = ts.requests;
    l.tenant_overloaded = ts.overloaded;
    for (std::uint32_t s = 0; s < r.partition().num_shards(); ++s) {
      auto& set = r.replica_set(s);
      for (std::uint32_t k = 0; k < set.size(); ++k) {
        auto& sh = set.replica(k);
        const auto b = sh.block_cache_stats();
        l.blk_hits += b.hits;
        l.blk_misses += b.misses;
        l.blk_evictions += b.evictions;
        l.blk_pinned_hw = std::max<std::uint64_t>(l.blk_pinned_hw, b.pinned_high_water);
        const auto c = sh.cache().stats();
        l.rc_hits += c.hits;
        l.rc_lookups += c.hits + c.misses + c.invalidations;
        l.rc_recomputes += c.recomputes;
      }
    }
    const auto e = r.stitched_engine().stats();
    l.eng_requests = e.requests;
    l.eng_settled = e.settled;
    l.eng_early = e.early_exits;
    l.eng_allocs = e.scratch_allocs;
    const auto co = r.coalescer().stats();
    l.co_computes = co.computes;
    l.co_joined = co.joined;
    for (const auto& [k, v] : cachegraph::obs::CounterRegistry::instance().snapshot()) {
      if (k.rfind("pq.", 0) == 0) l.pq_ops += v;
    }
    return l;
  }
};

[[nodiscard]] inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Non-OK resolutions by status code, noted in the report so a
/// good_frac below 1 names its cause.
class Failures {
 public:
  /// Returns whether `st` is OK, counting it otherwise.
  bool ok(const cachegraph::reliability::Status& st) {
    if (st.is_ok()) return true;
    by_code_[std::min<std::size_t>(static_cast<std::size_t>(st.code()), kCodes - 1)]++;
    return false;
  }
  void note(Report& rep) const {
    for (std::size_t c = 0; c < kCodes; ++c) {
      if (const auto n = by_code_[c].load(); n > 0) {
        rep.note(std::string("failures.") + cachegraph::reliability::to_string(
                                                 static_cast<cachegraph::reliability::StatusCode>(c)),
                 static_cast<double>(n));
      }
    }
  }

 private:
  static constexpr std::size_t kCodes = 32;
  std::array<std::atomic<std::uint64_t>, kCodes> by_code_{};
};

/// Latencies of the requests of `stream` (optionally one kind) of a
/// finished open loop; failures are +inf.
[[nodiscard]] inline std::vector<double> latencies(const std::vector<Arrival>& sched,
                                                   const OpenLoopResult& res, std::uint32_t stream,
                                                   int kind = -1) {
  std::vector<double> v;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    if (sched[i].stream == stream && (kind < 0 || sched[i].kind == static_cast<std::uint32_t>(kind))) {
      v.push_back(res.recs[i].lat_ms);
    }
  }
  return v;
}

/// Median over requests matching `pick` of the field `f`.
template <class Pick, class Field>
[[nodiscard]] double median_of(const std::vector<Arrival>& sched, const OpenLoopResult& res,
                               Pick&& pick, Field&& f) {
  std::vector<double> v;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    if (pick(sched[i])) v.push_back(f(res.recs[i]));
  }
  return v.empty() ? 0.0 : median(v);
}

/// End-to-end metrics shared by both serving workloads.
inline void emit_serve_e2e(Report& rep, const std::vector<Arrival>& sched,
                           const OpenLoopResult& res, std::uint32_t latency_stream,
                           const std::vector<double>& deadline_ms, double setup_s,
                           double sat_rps, double second_p50_ms) {
  std::uint64_t good = 0;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    good += res.recs[i].lat_ms <= deadline_ms[sched[i].stream];
  }
  rep.attempted = sched.size();
  rep.failed = sched.size() - good;
  const auto lat = latencies(sched, res, latency_stream);
  rep.metric("setup_s", setup_s, "s");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  rep.metric("good_frac", ratio(static_cast<double>(good), static_cast<double>(sched.size())),
             "ratio");
  rep.metric("p50_ms", median(lat), "ms");
  rep.metric("p90_ms", percentile(lat, 90), "ms");
  rep.metric("sat_rps", sat_rps, "req/s");
  rep.metric("second_p50_ms", second_p50_ms, "ms");
  rep.note("latency_samples", static_cast<double>(lat.size()));
  rep.note("p90_samples_beyond", static_cast<double>(beyond(lat.size(), 90)));
}

/// Driver-layer metrics of one open loop.
inline void emit_driver_layer(Report& rep, const std::vector<Arrival>& sched,
                              const OpenLoopResult& res, std::uint32_t latency_stream) {
  std::vector<double> lag;
  std::vector<double> qw;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    lag.push_back(res.recs[i].lag_ms);
    if (sched[i].stream == latency_stream) qw.push_back(res.recs[i].queue_ms);
  }
  rep.metric("driver.lag_p99_ms", percentile(lag, 99), "ms");
  rep.metric("driver.queue_wait_p50_ms", median(qw), "ms");
  rep.metric("driver.queue_wait_p90_ms", percentile(qw, 90), "ms");
}

/// Serving-layer counts every serving workload reports from a traced
/// phase bracketed by `a` and `b`.
inline void emit_common_layers(Report& rep, const Layers& a, const Layers& b) {
  const double reqs = static_cast<double>(b.tenant_requests - a.tenant_requests);
  rep.metric("serving.refused_frac",
             ratio(static_cast<double>(b.tenant_overloaded - a.tenant_overloaded), reqs), "ratio");
  rep.metric("serving.failovers", static_cast<double>(b.router.failovers - a.router.failovers),
             "count");
  rep.metric("serving.unavailable",
             static_cast<double>(b.router.unavailable - a.router.unavailable), "count");
  const double eng = static_cast<double>(b.eng_requests - a.eng_requests);
  rep.metric("query.settled_per_request",
             ratio(static_cast<double>(b.eng_settled - a.eng_settled), eng), "count");
  rep.metric("query.early_exit_frac", ratio(static_cast<double>(b.eng_early - a.eng_early), eng),
             "ratio");
  rep.metric("query.scratch_allocs", static_cast<double>(b.eng_allocs - a.eng_allocs), "count");
#if defined(CACHEGRAPH_INSTRUMENT)
  rep.metric("pq.ops_per_request", ratio(static_cast<double>(b.pq_ops - a.pq_ops), reqs), "count");
#else
  rep.absent("pq.ops_per_request", "count", "pq.* counters compile out under INSTRUMENT=OFF");
#endif
}

/// Checks a k-nearest answer against oracle distances `d`: every item
/// exact, no duplicates, min(k, reachable) items, and nothing closer
/// than the farthest item left out (ties at the k-th place may differ).
template <class Item>
void check_nearest(const std::vector<Dist>& d, std::size_t k, const std::vector<Item>& got,
                   const std::string& what) {
  std::size_t reachable = 0;
  for (const Dist x : d) reachable += x != kUnreached;
  expect(got.size() == std::min(k, reachable), what + ": wrong item count");
  Dist far = 0;
  std::vector<char> seen(d.size(), 0);
  for (const auto& it : got) {
    const auto v = static_cast<std::size_t>(it.vertex);
    expect(!seen[v], what + ": duplicate vertex");
    seen[v] = 1;
    expect(static_cast<Dist>(it.dist) == d[v], what + ": wrong distance");
    far = std::max(far, d[v]);
  }
  for (std::size_t v = 0; v < d.size(); ++v) {
    expect(d[v] >= far || seen[v], what + ": a closer vertex is missing");
  }
}

/// Checks a bounded answer: exactly the vertices within `radius`.
template <class Item>
void check_within(const std::vector<Dist>& d, Dist radius, const std::vector<Item>& got,
                  const std::string& what) {
  std::size_t inside = 0;
  for (const Dist x : d) inside += x <= radius;
  expect(got.size() == inside, what + ": wrong item count");
  for (const auto& it : got) {
    expect(static_cast<Dist>(it.dist) == d[static_cast<std::size_t>(it.vertex)] &&
               it.dist <= radius,
           what + ": wrong distance");
  }
}

}  // namespace pb
