// serving::TrafficDriver — the replayable open-loop load generator.
//
// The contracts under test:
//   - build_schedule is a pure function of (config, n): two builds are
//     element-for-element equal, different seeds diverge, and tenants
//     draw from independent streams (removing one tenant leaves the
//     others' arrivals untouched).
//   - the Zipf picker skews mass toward a few hot vertices and stays
//     deterministic under a fixed Rng.
//   - run() resolves every scheduled arrival exactly once, the report
//     rows tile the schedule, percentiles are monotone (p50 <= p99 <=
//     p99.9 <= max), and quota/deadline pressure shows up as the
//     matching non-OK statuses rather than lost requests.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <vector>

#include "cachegraph/graph/adjacency_array.hpp"
#include "cachegraph/graph/generators.hpp"
#include "cachegraph/serving/router.hpp"
#include "cachegraph/serving/traffic.hpp"

namespace cachegraph {
namespace {

using graph::AdjacencyArray;
using serving::build_schedule;
using serving::Router;
using serving::ScheduledRequest;
using serving::TrafficConfig;
using serving::TrafficDriver;
using serving::TrafficKind;

TrafficConfig<int> two_tenant_config(std::uint64_t seed) {
  TrafficConfig<int> cfg;
  cfg.seed = seed;
  cfg.duration = std::chrono::milliseconds(40);
  cfg.tenants.push_back({.name = "latency",
                         .rate_hz = 900.0,
                         .zipf_skew = 1.2,
                         .weight_p2p = 2.0,
                         .weight_k_nearest = 1.0});
  cfg.tenants.push_back({.name = "batch",
                         .rate_hz = 300.0,
                         .zipf_skew = 0.5,
                         .weight_p2p = 0.0,
                         .weight_bounded = 1.0,
                         .weight_full_sssp = 1.0});
  return cfg;
}

// ----------------------------------------------------------- schedule

TEST(TrafficSchedule, IsAPureFunctionOfSeedAndConfig) {
  const auto cfg = two_tenant_config(99);
  const auto a = build_schedule(cfg, 64);
  const auto b = build_schedule(cfg, 64);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // element-for-element replay

  auto other = two_tenant_config(100);
  EXPECT_NE(build_schedule(other, 64), a);  // seeds matter
}

TEST(TrafficSchedule, ArrivalsAreSortedAndInHorizon) {
  const auto cfg = two_tenant_config(7);
  const auto sched = build_schedule(cfg, 64);
  ASSERT_FALSE(sched.empty());
  for (std::size_t i = 1; i < sched.size(); ++i) {
    EXPECT_LE(sched[i - 1].at_ns, sched[i].at_ns);
  }
  const auto horizon = static_cast<std::uint64_t>(cfg.duration.count());
  for (const auto& req : sched) {
    EXPECT_LT(req.at_ns, horizon);
    EXPECT_LT(req.tenant, 2u);
    EXPECT_LT(req.source, 64);
    if (req.kind == TrafficKind::kPointToPoint) {
      EXPECT_LT(req.target, 64);
    }
  }
}

TEST(TrafficSchedule, TenantStreamsAreIndependent) {
  const auto cfg = two_tenant_config(55);
  TrafficConfig<int> solo = cfg;
  solo.tenants.pop_back();  // drop "batch"

  auto both = build_schedule(cfg, 64);
  const auto alone = build_schedule(solo, 64);
  std::vector<ScheduledRequest<int>> tenant0;
  std::copy_if(both.begin(), both.end(), std::back_inserter(tenant0),
               [](const auto& r) { return r.tenant == 0; });
  EXPECT_EQ(tenant0, alone);  // removing a tenant never perturbs another's draws
}

TEST(TrafficSchedule, KindMixFollowsTheWeights) {
  auto cfg = two_tenant_config(13);
  const auto sched = build_schedule(cfg, 64);
  std::map<TrafficKind, std::size_t> latency_kinds;
  for (const auto& r : sched) {
    if (r.tenant == 0) ++latency_kinds[r.kind];
  }
  // Tenant "latency" mixes p2p:k_nearest at 2:1 and nothing else.
  EXPECT_GT(latency_kinds[TrafficKind::kPointToPoint], latency_kinds[TrafficKind::kKNearest]);
  EXPECT_EQ(latency_kinds.count(TrafficKind::kBounded), 0u);
  EXPECT_EQ(latency_kinds.count(TrafficKind::kFullSssp), 0u);
}

TEST(ZipfPicker, SkewConcentratesMassAndReplays) {
  Rng rng(17);
  const serving::ZipfPicker zipf(256, 1.2, rng);
  Rng draw_a(3), draw_b(3);
  std::map<vertex_t, std::size_t> counts;
  for (int i = 0; i < 4000; ++i) {
    const vertex_t a = zipf.pick(draw_a);
    ASSERT_EQ(a, zipf.pick(draw_b));  // same Rng stream, same picks
    ++counts[a];
  }
  // The hottest vertex should dominate a uniform share (4000/256 ≈ 16)
  // by an order of magnitude at skew 1.2.
  std::size_t hottest = 0;
  for (const auto& [v, c] : counts) hottest = std::max(hottest, c);
  EXPECT_GT(hottest, 160u);
  EXPECT_LT(counts.size(), 256u);  // and the tail is not fully covered
}

// ---------------------------------------------------------------- run

TEST(TrafficRun, EveryArrivalResolvesAndPercentilesAreMonotone) {
  const auto el = graph::random_digraph<int>(64, 0.08, 21, 1, 9);
  const AdjacencyArray<int> csr(el);
  Router<int> router(csr, {.shards = 4});
  const auto cfg = two_tenant_config(2);
  const auto sched = build_schedule(cfg, csr.num_vertices());
  ASSERT_FALSE(sched.empty());

  const auto report = TrafficDriver<int>::run(router, cfg, sched, 2);
  EXPECT_EQ(report.total_requests, sched.size());
  std::uint64_t resolved = 0;
  for (const auto& row : report.rows) {
    resolved += row.count;
    EXPECT_EQ(row.count, row.ok + row.overloaded + row.deadline_exceeded + row.cancelled +
                             row.other);
    EXPECT_LE(row.p50_ns, row.p99_ns);
    EXPECT_LE(row.p99_ns, row.p999_ns);
    EXPECT_LE(row.p999_ns, row.max_ns);
  }
  EXPECT_EQ(resolved, sched.size());  // report rows tile the schedule
  EXPECT_EQ(report.total_ok, sched.size());  // no quotas, no deadlines: all OK
}

TEST(TrafficRun, QuotaPressureSurfacesAsOverloadedNotLostRequests) {
  const auto el = graph::random_digraph<int>(64, 0.08, 33, 1, 9);
  const AdjacencyArray<int> csr(el);
  Router<int> router(csr, {.shards = 2});
  auto cfg = two_tenant_config(5);
  const auto sched = build_schedule(cfg, csr.num_vertices());

  // Tenant "batch" gets a one-slot reject quota; with a 2-worker open
  // loop at these rates, collisions are guaranteed often enough to
  // observe (and every collision must resolve OVERLOADED, not vanish).
  const std::vector<Router<int>::TenantQuota> quotas{
      {},
      {.max_in_flight = 1, .policy = query::OverloadPolicy::kReject}};
  const auto report = TrafficDriver<int>::run(router, cfg, sched, 2, quotas);
  std::uint64_t resolved = 0;
  for (const auto& row : report.rows) resolved += row.count;
  EXPECT_EQ(resolved, sched.size());
  EXPECT_EQ(router.tenant_stats(1).overloaded,
            router.tenant_stats(1).requests - router.tenant_stats(1).ok);
}

TEST(TrafficRun, ReplicatedRouterResolvesEveryArrival) {
  // The open-loop driver against the replicated configuration: every
  // arrival still resolves exactly once, all of them OK (no faults are
  // injected here — this pins that replication is invisible to a
  // healthy workload), and the percentile invariants hold row by row.
  const auto el = graph::random_digraph<int>(64, 0.08, 55, 1, 9);
  const AdjacencyArray<int> csr(el);
  Router<int>::Config rcfg;
  rcfg.shards = 2;
  rcfg.replicas = 2;
  Router<int> router(csr, rcfg);
  const auto cfg = two_tenant_config(8);
  const auto sched = build_schedule(cfg, csr.num_vertices());
  ASSERT_FALSE(sched.empty());

  const auto report = TrafficDriver<int>::run(router, cfg, sched, 2);
  EXPECT_EQ(report.total_requests, sched.size());
  EXPECT_EQ(report.total_ok, sched.size());
  std::uint64_t resolved = 0;
  for (const auto& row : report.rows) {
    resolved += row.count;
    EXPECT_LE(row.p50_ns, row.p99_ns);
    EXPECT_LE(row.p99_ns, row.p999_ns);
  }
  EXPECT_EQ(resolved, sched.size());
  const auto st = router.stats();
  EXPECT_EQ(st.quarantines, 0u);  // a healthy fleet never trips the breaker
}

}  // namespace
}  // namespace cachegraph
