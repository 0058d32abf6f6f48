// cachegraph::serving — the sharded multi-tenant front-end.
//
// The load-bearing contract: every answer served through the sharded
// Router is identical to the single-engine oracle's — point-to-point
// distances through the boundary-stitch portal search, full trees,
// k-nearest and bounded payloads, and the analytics kinds — across
// shard counts {1, 2, 4, 8}, both queue disciplines, cached and
// uncached portal modes, in-memory and out-of-core shards, and across
// overlay mutations. Sharding is a layout decision; it must never be
// an answer decision.
//
// On top of that: the coalescer's compute counter proves N concurrent
// identical full-SSSP asks ran exactly one search, and the tenant
// quota policies (reject / shed / block-with-half-budget-shed) resolve
// the way engine.hpp's admission ladder promises.
//
// Replication coverage: the ReplicaHealth circuit breaker driven on a
// synthetic clock, bit-identity across replicas (including the
// on-disk blocked files), degraded mode (an all-quarantined shard
// fails the requests that need it, fast, and only those), the retry
// budget bounding failovers exactly, and the scrubber repairing disk
// corruption from a sibling.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "cachegraph/graph/adjacency_array.hpp"
#include "cachegraph/graph/generators.hpp"
#include "cachegraph/query/engine.hpp"
#include "cachegraph/serving/health.hpp"
#include "cachegraph/serving/partition.hpp"
#include "cachegraph/serving/router.hpp"
#include "cachegraph/serving/scrubber.hpp"

namespace cachegraph {
namespace {

using graph::AdjacencyArray;
using graph::EdgeListGraph;
using reliability::StatusCode;
using serving::Partition;
using serving::Router;

using OracleEngine = query::QueryEngine<AdjacencyArray<int>>;

/// The single-engine full-SSSP distance row — the differential anchor
/// every sharded answer is compared against.
std::vector<int> oracle_dists(const AdjacencyArray<int>& csr, vertex_t source) {
  OracleEngine engine(csr);
  std::vector<int> dist;
  const auto resp = engine.try_serve(query::Request<int>{query::FullSSSP{source}}, {},
                                     [&](const auto& r, const auto& sc) {
                                       if (r.status.is_ok()) {
                                         dist.assign(sc.dist().begin(), sc.dist().end());
                                       }
                                     });
  EXPECT_TRUE(resp.status.is_ok());
  return dist;
}

// ---------------------------------------------------------- partition

TEST(Partition, RangesTileTheVertexSpace) {
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u, 13u}) {
    for (const vertex_t n : {vertex_t{1}, vertex_t{7}, vertex_t{64}, vertex_t{65}}) {
      const Partition part(n, shards);
      vertex_t covered = 0;
      for (std::uint32_t s = 0; s < shards; ++s) {
        EXPECT_EQ(part.begin(s) + part.size(s), part.end(s));
        covered += part.size(s);
        for (vertex_t v = part.begin(s); v < part.end(s); ++v) {
          EXPECT_EQ(part.shard_of(v), s);
          EXPECT_EQ(part.global_id(s, part.local_id(s, v)), v);
        }
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(Partition, MoreShardsThanVerticesLeavesTrailingShardsEmpty) {
  const Partition part(3, 8);
  vertex_t covered = 0;
  for (std::uint32_t s = 0; s < 8; ++s) covered += part.size(s);
  EXPECT_EQ(covered, 3);
  for (vertex_t v = 0; v < 3; ++v) EXPECT_LT(part.shard_of(v), 8u);
}

// --------------------------------------- point-to-point vs the oracle

/// Every (source, target) pair of a random digraph, through every
/// shard count — distances must match the oracle bit for bit.
TEST(RouterP2P, MatchesOracleAcrossShardCounts) {
  const auto el = graph::random_digraph<int>(48, 0.12, 91, 1, 9);
  const AdjacencyArray<int> csr(el);
  const vertex_t n = csr.num_vertices();
  std::vector<std::vector<int>> oracle(static_cast<std::size_t>(n));
  for (vertex_t s = 0; s < n; ++s) oracle[static_cast<std::size_t>(s)] = oracle_dists(csr, s);

  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    for (const int threads : {1, 2}) {
      Router<int> router(csr, {.shards = shards, .shard_pool_threads = threads});
      for (vertex_t s = 0; s < n; ++s) {
        for (vertex_t t = 0; t < n; ++t) {
          const auto r = router.point_to_point(s, t);
          ASSERT_TRUE(r.status.is_ok());
          ASSERT_EQ(r.target_dist,
                    oracle[static_cast<std::size_t>(s)][static_cast<std::size_t>(t)])
              << "shards=" << shards << " threads=" << threads << " s=" << s << " t=" << t;
        }
      }
    }
  }
}

TEST(RouterP2P, LazyQueueAndUncachedPortalsAgreeWithOracle) {
  const auto el = graph::random_digraph<int>(40, 0.15, 17, 1, 7);
  const AdjacencyArray<int> csr(el);
  const vertex_t n = csr.num_vertices();

  Router<int, query::LazyQueue<int>> lazy(csr, {.shards = 4});
  Router<int> uncached(csr, {.shards = 4, .cache_portals = false});
  for (vertex_t s = 0; s < n; s += 3) {
    const std::vector<int> want = oracle_dists(csr, s);
    for (vertex_t t = 0; t < n; ++t) {
      EXPECT_EQ(lazy.distance(s, t), want[static_cast<std::size_t>(t)]);
      EXPECT_EQ(uncached.distance(s, t), want[static_cast<std::size_t>(t)]);
    }
  }
}

/// A path that zig-zags across the cut on every hop: shard-local
/// segments are single vertices, so any stitching shortcut that
/// mishandles repeated crossings breaks this immediately.
TEST(RouterP2P, MultiCrossingPathIsExact) {
  const vertex_t n = 16;  // 4 shards of 4 under Partition(16, 4)
  EdgeListGraph<int> el(n);
  // 0 → 4 → 1 → 8 → 2 → 12 → 3 → 5 → 15: crosses a shard boundary on
  // every edge (weights 1..8, so the distance ladder is 1, 3, 6, ...).
  const vertex_t chain[] = {0, 4, 1, 8, 2, 12, 3, 5, 15};
  int total = 0;
  std::vector<int> prefix{0};
  for (std::size_t i = 0; i + 1 < std::size(chain); ++i) {
    const int w = static_cast<int>(i) + 1;
    el.add_edge(chain[i], chain[i + 1], w);
    total += w;
    prefix.push_back(total);
  }
  // A decoy direct edge that is *worse* than the zig-zag.
  el.add_edge(0, 15, total + 5);
  const AdjacencyArray<int> csr(el);
  const Partition part(n, 4);
  ASSERT_NE(part.shard_of(0), part.shard_of(4));  // the premise of the test

  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    Router<int> router(csr, {.shards = shards});
    for (std::size_t i = 0; i < std::size(chain); ++i) {
      EXPECT_EQ(router.distance(0, chain[i]), prefix[i]) << "shards=" << shards;
    }
  }
}

TEST(RouterP2P, UnreachableIsOkWithInfiniteDistance) {
  EdgeListGraph<int> el(8);
  el.add_edge(0, 1, 1);  // 2..7 untouched
  const AdjacencyArray<int> csr(el);
  Router<int> router(csr, {.shards = 4});
  const auto r = router.point_to_point(0, 7);
  EXPECT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.outcome, query::Outcome::exhausted);
  EXPECT_TRUE(is_inf(r.target_dist));
}

TEST(RouterP2P, OutOfRangeEndpointsAreInvalidArgument) {
  const AdjacencyArray<int> csr(EdgeListGraph<int>(4));
  Router<int> router(csr, {.shards = 2});
  EXPECT_EQ(router.point_to_point(-1, 0).status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(router.point_to_point(0, 4).status.code(), StatusCode::kInvalidArgument);
}

TEST(RouterP2P, PreExpiredDeadlineResolvesDeadlineExceeded) {
  const auto el = graph::random_digraph<int>(32, 0.2, 3, 1, 5);
  const AdjacencyArray<int> csr(el);
  Router<int> router(csr, {.shards = 2});
  serving::CallOptions opts;
  opts.deadline = reliability::Deadline::after(std::chrono::nanoseconds(0));
  const auto r = router.point_to_point(0, 31, opts);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.outcome, query::Outcome::deadline_exceeded);
}

// ------------------------------- out-of-core shards, same answers

TEST(RouterP2P, OutOfCoreShardsMatchOracle) {
  const auto el = graph::random_digraph<int>(48, 0.1, 29, 1, 9);
  const AdjacencyArray<int> csr(el);
  const vertex_t n = csr.num_vertices();
  const auto dir = std::filesystem::temp_directory_path() / "cg_serving_ooc_test";
  std::filesystem::create_directories(dir);

  // Uncached portals so every probe rides the out-of-core engine.
  Router<int> router(csr, {.shards = 4, .cache_portals = false});
  for (std::uint32_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(router.shard(s).enable_out_of_core(dir, 512, 4).is_ok());
    EXPECT_TRUE(router.shard(s).out_of_core());
  }
  for (vertex_t s = 0; s < n; s += 5) {
    const std::vector<int> want = oracle_dists(csr, s);
    for (vertex_t t = 0; t < n; ++t) {
      EXPECT_EQ(router.distance(s, t), want[static_cast<std::size_t>(t)]);
    }
  }
  std::uint64_t touched = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    touched += router.shard(s).block_cache_stats().hits + router.shard(s).block_cache_stats().misses;
  }
  EXPECT_GT(touched, 0u);  // the probes really went through the block caches
  std::filesystem::remove_all(dir);
}

// ----------------------------------- whole-graph kinds vs the oracle

TEST(RouterStitched, FullTreeKNearestBoundedAndAnalyticsMatchOracle) {
  const auto el = graph::random_digraph<int>(56, 0.1, 57, 1, 9);
  const AdjacencyArray<int> csr(el);
  const vertex_t n = csr.num_vertices();
  OracleEngine oracle(csr);

  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    Router<int> router(csr, {.shards = shards});

    for (const vertex_t src : {vertex_t{0}, vertex_t{19}, vertex_t{n - 1}}) {
      // Full tree: the dist array must be memcmp-equal to the oracle's.
      const std::vector<int> want = oracle_dists(csr, src);
      const auto full = router.full_sssp(src);
      ASSERT_TRUE(full.status.is_ok());
      ASSERT_NE(full.tree, nullptr);
      ASSERT_EQ(full.tree->dist.size(), want.size());
      EXPECT_EQ(std::memcmp(full.tree->dist.data(), want.data(), want.size() * sizeof(int)), 0)
          << "shards=" << shards << " src=" << src;

      // K-nearest: identical (dist, vertex) sequences.
      std::vector<Router<int>::NearItem> near;
      ASSERT_TRUE(router.k_nearest(src, 9, near, {}).is_ok());
      std::vector<Router<int>::NearItem> oracle_near;
      const auto kresp = oracle.try_serve(query::Request<int>{query::KNearest{src, 9}}, {},
                                          [&](const auto& r, const auto& sc) {
                                            if (!r.status.is_ok()) return;
                                            for (const vertex_t v : sc.settled_order()) {
                                              oracle_near.push_back(
                                                  {v, sc.dist()[static_cast<std::size_t>(v)]});
                                            }
                                          });
      ASSERT_TRUE(kresp.status.is_ok());
      ASSERT_EQ(near.size(), oracle_near.size());
      for (std::size_t i = 0; i < near.size(); ++i) {
        EXPECT_EQ(near[i].dist, oracle_near[i].dist);
      }

      // Bounded: same settled set, nearest-first.
      std::vector<Router<int>::NearItem> ball;
      ASSERT_TRUE(router.within(src, 12, ball, {}).is_ok());
      std::size_t want_in_ball = 0;
      for (const int d : want) want_in_ball += !is_inf(d) && d <= 12;
      EXPECT_EQ(ball.size(), want_in_ball);
      for (const auto& item : ball) {
        EXPECT_EQ(item.dist, want[static_cast<std::size_t>(item.vertex)]);
      }
    }

    // Analytics ride the stitched view: WCC labels and the triangle
    // count are order-independent, so they must be bit-identical.
    std::vector<vertex_t> wcc_sharded(static_cast<std::size_t>(n));
    std::vector<vertex_t> wcc_oracle(static_cast<std::size_t>(n));
    const auto ws = router.dispatch(query::Request<int>{query::Wcc{false, wcc_sharded}});
    const auto wo = oracle.try_serve(query::Request<int>{query::Wcc{false, wcc_oracle}});
    ASSERT_TRUE(ws.status.is_ok());
    ASSERT_TRUE(wo.status.is_ok());
    EXPECT_EQ(wcc_sharded, wcc_oracle);
    EXPECT_EQ(ws.aux, wo.aux);

    const auto ts = router.dispatch(query::Request<int>{query::TriangleCount{}});
    const auto to = oracle.try_serve(query::Request<int>{query::TriangleCount{}});
    ASSERT_TRUE(ts.status.is_ok());
    EXPECT_EQ(ts.aux, to.aux);
  }
}

// --------------------------------------------------------- mutations

TEST(RouterMutations, IntraAndCrossShardEditsTrackAFreshOracle) {
  const auto el = graph::random_digraph<int>(32, 0.12, 77, 1, 9);
  AdjacencyArray<int> csr(el);
  Router<int> router(csr, {.shards = 4});

  // One intra-shard insert (0 and 1 share shard 0 under Partition(32,
  // 4)), one cross-shard insert, one cross-shard remove of the edge
  // just added.
  router.insert_edge(0, 1, 1);
  router.insert_edge(1, 30, 2);
  EXPECT_TRUE(router.remove_edge(1, 30));
  EXPECT_FALSE(router.remove_edge(1, 30));  // already gone
  router.insert_edge(2, 31, 3);

  EdgeListGraph<int> mutated(el);
  mutated.add_edge(0, 1, 1);
  mutated.add_edge(2, 31, 3);
  const AdjacencyArray<int> mutated_csr(mutated);

  for (vertex_t s = 0; s < 32; s += 4) {
    const std::vector<int> want = oracle_dists(mutated_csr, s);
    for (vertex_t t = 0; t < 32; ++t) {
      EXPECT_EQ(router.distance(s, t), want[static_cast<std::size_t>(t)]) << s << "→" << t;
    }
    const auto full = router.full_sssp(s);
    ASSERT_TRUE(full.status.is_ok());
    EXPECT_EQ(full.tree->dist, want);
  }
}

// --------------------------------------------------------- coalescer

TEST(Coalescer, NConcurrentIdenticalSourcesRunExactlyOneCompute) {
  const auto el = graph::random_digraph<int>(64, 0.1, 5, 1, 9);
  const AdjacencyArray<int> csr(el);
  Router<int> router(csr, {.shards = 2});
  constexpr int kCallers = 4;

  // The leader blocks inside the hook until every follower has
  // *joined its flight* — the coalescing is proven concurrent, not
  // just probably so.
  router.coalescer().set_compute_hook([&] {
    while (router.coalescer().stats().joined < kCallers - 1) {
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> callers;
  std::vector<Router<int>::RouteResult> results(kCallers);
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&, i] { results[static_cast<std::size_t>(i)] = router.full_sssp(7); });
  }
  for (auto& th : callers) th.join();

  const auto cs = router.coalescer().stats();
  EXPECT_EQ(cs.computes, 1u);
  EXPECT_EQ(cs.joined, static_cast<std::uint64_t>(kCallers - 1));
  const std::vector<int> want = oracle_dists(csr, 7);
  for (const auto& r : results) {
    ASSERT_TRUE(r.status.is_ok());
    ASSERT_NE(r.tree, nullptr);
    EXPECT_EQ(r.tree->dist, want);
    EXPECT_EQ(r.tree.get(), results[0].tree.get());  // literally the same tree
  }
}

TEST(Coalescer, DistinctSourcesDoNotCoalesce) {
  const auto el = graph::random_digraph<int>(32, 0.15, 11, 1, 5);
  const AdjacencyArray<int> csr(el);
  Router<int> router(csr, {.shards = 2});
  ASSERT_TRUE(router.full_sssp(1).status.is_ok());
  ASSERT_TRUE(router.full_sssp(2).status.is_ok());
  ASSERT_TRUE(router.full_sssp(1).status.is_ok());  // sequential repeat: flight already retired
  const auto cs = router.coalescer().stats();
  EXPECT_EQ(cs.computes, 3u);
  EXPECT_EQ(cs.joined, 0u);
}

// ------------------------------------------------------ tenant quotas

/// Occupies one tenant slot with a full-SSSP whose leader is parked
/// inside the coalescer hook until release() fires.
class ParkedRequest {
 public:
  ParkedRequest(Router<int>& router, std::uint32_t tenant, vertex_t source) : router_(router) {
    router_.coalescer().set_compute_hook([this] {
      parked_.store(true, std::memory_order_release);
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return released_; });
    });
    worker_ = std::thread([this, tenant, source] {
      result_ = router_.try_serve(tenant, query::Request<int>{query::FullSSSP{source}});
    });
    while (!parked_.load(std::memory_order_acquire)) std::this_thread::yield();
  }

  ~ParkedRequest() {
    release();
    if (worker_.joinable()) worker_.join();
    router_.coalescer().set_compute_hook(nullptr);
  }

  void release() {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

  /// Unparks the leader, waits for its request to resolve, and returns
  /// the resolution.
  [[nodiscard]] Router<int>::RouteResult join() {
    release();
    if (worker_.joinable()) worker_.join();
    return result_;
  }

 private:
  Router<int>& router_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  std::atomic<bool> parked_{false};
  std::thread worker_;
  Router<int>::RouteResult result_;
};

TEST(TenantQuota, RejectPolicyResolvesOverloadedAtTheCap) {
  const auto el = graph::random_digraph<int>(32, 0.15, 23, 1, 5);
  const AdjacencyArray<int> csr(el);
  Router<int> router(csr, {.shards = 2});
  const auto gold = router.add_tenant(
      "gold", {.max_in_flight = 1, .policy = query::OverloadPolicy::kReject});
  const auto other = router.add_tenant("other", {});  // unbounded

  {
    ParkedRequest parked(router, gold, 3);
    const auto r = router.try_serve(gold, query::Request<int>{query::PointToPoint{0, 5}});
    EXPECT_EQ(r.status.code(), StatusCode::kOverloaded);
    // Quotas are per tenant: another tenant sails through.
    EXPECT_TRUE(
        router.try_serve(other, query::Request<int>{query::PointToPoint{0, 5}}).status.is_ok());
  }
  const auto stats = router.tenant_stats(gold);
  EXPECT_EQ(stats.overloaded, 1u);
  EXPECT_EQ(stats.requests, 2u);
}

TEST(TenantQuota, ShedPolicyCancelsTheTenantsOldestInFlight) {
  const auto el = graph::random_digraph<int>(32, 0.15, 31, 1, 5);
  const AdjacencyArray<int> csr(el);
  Router<int> router(csr, {.shards = 2});
  const auto tenant = router.add_tenant(
      "shedder", {.max_in_flight = 1, .policy = query::OverloadPolicy::kShed});

  ParkedRequest parked(router, tenant, 3);
  // The aggressor sheds the parked victim and is admitted over the cap.
  const auto r = router.try_serve(tenant, query::Request<int>{query::PointToPoint{0, 7}});
  EXPECT_TRUE(r.status.is_ok());
  EXPECT_EQ(router.tenant_stats(tenant).shed_victims, 1u);
  // The victim's token was cancelled while it was parked; its compute
  // observes that the moment it runs and resolves CANCELLED.
  const auto victim = parked.join();
  EXPECT_EQ(victim.status.code(), StatusCode::kCancelled);
}

TEST(TenantQuota, BlockPolicyShedsAtHalfTheDeadlineBudget) {
  const auto el = graph::random_digraph<int>(32, 0.15, 41, 1, 5);
  const AdjacencyArray<int> csr(el);
  Router<int> router(csr, {.shards = 2});
  const auto tenant = router.add_tenant(
      "blocker", {.max_in_flight = 1, .policy = query::OverloadPolicy::kBlock});

  ParkedRequest parked(router, tenant, 3);
  serving::CallOptions opts;
  opts.deadline = reliability::Deadline::after(std::chrono::milliseconds(100));
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = router.try_serve(tenant, query::Request<int>{query::PointToPoint{0, 7}}, opts);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(r.status.code(), StatusCode::kOverloaded);
  // Shed at ~50ms (half the budget), definitely before the deadline.
  EXPECT_GE(waited, std::chrono::milliseconds(45));
  EXPECT_LT(waited, std::chrono::milliseconds(100));
  const auto stats = router.tenant_stats(tenant);
  EXPECT_EQ(stats.deadline_rejects, 1u);
  EXPECT_EQ(stats.blocked, 1u);
}

TEST(TenantQuota, BlockPolicyAdmitsOnceTheSlotFrees) {
  const auto el = graph::random_digraph<int>(32, 0.15, 43, 1, 5);
  const AdjacencyArray<int> csr(el);
  Router<int> router(csr, {.shards = 2});
  const auto tenant = router.add_tenant(
      "patient", {.max_in_flight = 1, .policy = query::OverloadPolicy::kBlock});

  auto parked = std::make_unique<ParkedRequest>(router, tenant, 3);
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    parked->release();
  });
  // No deadline: block until the slot frees, then serve normally.
  const auto r = router.try_serve(tenant, query::Request<int>{query::PointToPoint{0, 7}});
  EXPECT_TRUE(r.status.is_ok());
  releaser.join();
  parked.reset();
  EXPECT_EQ(router.tenant_stats(tenant).deadline_rejects, 0u);
}

/// Races kRaceThreads callers, each issuing distinct-source FullSSSP asks
/// through one tenant, and returns the peak number of coalesced
/// computes open at once. Every compute sits in the hook for a few
/// milliseconds, so admissions that slip past the quota overlap there.
/// `statuses` collects every resolution.
constexpr int kRaceThreads = 4;
constexpr int kRaceRounds = 8;

int peak_concurrent_computes(const Router<int>::TenantQuota& quota,
                             std::vector<StatusCode>& statuses) {
  const auto el = graph::random_digraph<int>(64, 0.1, 53, 1, 9);
  const AdjacencyArray<int> csr(el);
  Router<int> router(csr, {.shards = 2});
  const auto tenant = router.add_tenant("capped", quota);

  std::atomic<int> open{0};
  std::atomic<int> peak{0};
  router.coalescer().set_compute_hook([&] {
    const int now = open.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    open.fetch_sub(1);
  });

  std::atomic<int> ready{0};
  std::mutex mu;
  std::vector<std::thread> callers;
  for (int t = 0; t < kRaceThreads; ++t) {
    callers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kRaceThreads) std::this_thread::yield();
      for (int round = 0; round < kRaceRounds; ++round) {
        const vertex_t source = t + kRaceThreads * round;  // never coalesces
        const auto r = router.try_serve(tenant, query::Request<int>{query::FullSSSP{source}});
        const std::lock_guard<std::mutex> lk(mu);
        statuses.push_back(r.status.code());
      }
    });
  }
  for (auto& th : callers) th.join();
  router.coalescer().set_compute_hook(nullptr);
  return peak.load();
}

TEST(TenantQuota, BlockQuotaCapsConcurrentComputesUnderARace) {
  std::vector<StatusCode> statuses;
  const int peak = peak_concurrent_computes(
      {.max_in_flight = 1, .policy = query::OverloadPolicy::kBlock}, statuses);
  EXPECT_EQ(peak, 1) << "a {1, kBlock} tenant ran computes side by side";
  ASSERT_EQ(statuses.size(), static_cast<std::size_t>(kRaceThreads * kRaceRounds));
  for (const auto code : statuses) EXPECT_EQ(code, StatusCode::kOk);
}

TEST(TenantQuota, RejectQuotaCapsConcurrentComputesUnderARace) {
  std::vector<StatusCode> statuses;
  const int peak = peak_concurrent_computes(
      {.max_in_flight = 1, .policy = query::OverloadPolicy::kReject}, statuses);
  EXPECT_EQ(peak, 1) << "a {1, kReject} tenant ran computes side by side";
  ASSERT_EQ(statuses.size(), static_cast<std::size_t>(kRaceThreads * kRaceRounds));
  int ok = 0;
  for (const auto code : statuses) {
    EXPECT_TRUE(code == StatusCode::kOk || code == StatusCode::kOverloaded);
    ok += code == StatusCode::kOk ? 1 : 0;
  }
  EXPECT_GE(ok, 1);
}

TEST(TenantQuota, UnknownTenantIsInvalidArgument) {
  const AdjacencyArray<int> csr(EdgeListGraph<int>(4));
  Router<int> router(csr, {});
  const auto r = router.try_serve(99, query::Request<int>{query::FullSSSP{0}});
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------- replica health

using serving::HealthConfig;
using serving::ReplicaHealth;
using serving::ReplicaState;
using HealthClock = ReplicaHealth::clock;

TEST(ReplicaHealthMachine, WalksTheFullCircuitOnASyntheticClock) {
  HealthConfig cfg;
  cfg.suspect_after = 1;
  cfg.quarantine_after = 2;
  cfg.probation_base = std::chrono::milliseconds(100);
  cfg.probation_multiplier = 2.0;
  cfg.probation_max = std::chrono::milliseconds(1000);
  cfg.probation_jitter = 0.0;  // exact schedule
  ReplicaHealth h(cfg, 7);
  const auto t0 = HealthClock::time_point{} + std::chrono::hours(1);
  using reliability::StatusCode;
  using std::chrono::milliseconds;

  EXPECT_EQ(h.state(), ReplicaState::kHealthy);
  // One failure: suspect — a leading indicator that still serves.
  auto tr = h.on_failure(StatusCode::kDataLoss, t0);
  ASSERT_TRUE(tr.has_value());
  EXPECT_EQ(tr->to, ReplicaState::kSuspect);
  EXPECT_TRUE(h.available());
  // Success heals it.
  tr = h.on_success();
  ASSERT_TRUE(tr.has_value());
  EXPECT_EQ(tr->to, ReplicaState::kHealthy);

  // Two consecutive failures: quarantined, probation = base exactly.
  (void)h.on_failure(StatusCode::kDeadlineExceeded, t0);
  tr = h.on_failure(StatusCode::kDeadlineExceeded, t0);
  ASSERT_TRUE(tr.has_value());
  EXPECT_EQ(tr->to, ReplicaState::kQuarantined);
  EXPECT_FALSE(h.available());
  EXPECT_FALSE(h.reachable(t0));
  EXPECT_EQ(h.probation_until(), t0 + milliseconds(100));

  // Half-open is one CAS ticket per window.
  EXPECT_FALSE(h.try_begin_probe(t0 + milliseconds(50))) << "probation not elapsed";
  EXPECT_TRUE(h.reachable(t0 + milliseconds(100)));
  EXPECT_TRUE(h.try_begin_probe(t0 + milliseconds(100)));
  EXPECT_EQ(h.state(), ReplicaState::kProbing);
  EXPECT_FALSE(h.try_begin_probe(t0 + milliseconds(100))) << "ticket already claimed";

  // Failed probe: re-quarantined and the probation doubles.
  tr = h.on_failure(StatusCode::kDataLoss, t0 + milliseconds(100));
  ASSERT_TRUE(tr.has_value());
  EXPECT_EQ(tr->to, ReplicaState::kQuarantined);
  EXPECT_EQ(h.probation_until(), t0 + milliseconds(100) + milliseconds(200));

  // A neutral resolution returns the ticket without doubling.
  ASSERT_TRUE(h.try_begin_probe(t0 + milliseconds(300)));
  const auto before = h.probation_until();
  h.abandon_probe();
  EXPECT_EQ(h.state(), ReplicaState::kQuarantined);
  EXPECT_EQ(h.probation_until(), before);

  // Successful probe: recovered.
  ASSERT_TRUE(h.try_begin_probe(t0 + milliseconds(300)));
  tr = h.on_success();
  ASSERT_TRUE(tr.has_value());
  EXPECT_EQ(tr->to, ReplicaState::kHealthy);
  const auto st = h.stats();
  EXPECT_EQ(st.quarantines, 2u);
  EXPECT_EQ(st.probes, 3u);
  EXPECT_EQ(st.recoveries, 1u);
}

TEST(ReplicaHealthMachine, ProbationScheduleIsDeterministicPerSeed) {
  HealthConfig cfg;  // default jitter 0.25 — the point of the test
  cfg.quarantine_after = 1;
  const auto t0 = HealthClock::time_point{} + std::chrono::hours(1);
  ReplicaHealth a(cfg, 42), b(cfg, 42);
  for (int round = 0; round < 4; ++round) {
    (void)a.on_failure(reliability::StatusCode::kDataLoss, t0);
    (void)b.on_failure(reliability::StatusCode::kDataLoss, t0);
    EXPECT_EQ(a.probation_until(), b.probation_until()) << "round " << round;
    const auto later = a.probation_until() + std::chrono::hours(1);
    ASSERT_TRUE(a.try_begin_probe(later));
    ASSERT_TRUE(b.try_begin_probe(later));
  }
}

// --------------------------------------------------- replica identity

/// Flips one byte inside every block of an out-of-core file. Offset 17
/// lands past the checksum-first field of the BlockHeader, so every
/// block fails verification afterwards.
void corrupt_all_blocks(const serving::BlockScrubber::Target& t) {
  std::fstream f(t.path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open()) << t.path;
  for (std::uint32_t b = 0; b < t.num_blocks; ++b) {
    const auto off =
        static_cast<std::streamoff>(t.data_offset + std::uint64_t{b} * t.block_bytes + 17);
    f.seekg(off);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(off);
    f.write(&c, 1);
  }
}

std::string file_bytes(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(ReplicaBitIdentity, ReplicasServeIdenticalTreesAcrossMutations) {
  const auto el = graph::random_digraph<int>(32, 0.15, 63, 1, 9);
  const AdjacencyArray<int> csr(el);
  Router<int> router(csr, {.shards = 2, .replicas = 3});

  const auto check_identical = [&] {
    for (std::uint32_t s = 0; s < 2; ++s) {
      auto& rs = router.replica_set(s);
      for (vertex_t lx = 0; lx < rs.replica(0).num_local(); lx += 3) {
        const auto t0 = rs.replica(0).local_tree(lx);
        for (std::uint32_t r = 1; r < rs.size(); ++r) {
          const auto tr = rs.replica(r).local_tree(lx);
          ASSERT_EQ(tr->dist, t0->dist) << "shard " << s << " replica " << r;
          ASSERT_EQ(tr->parent, t0->parent);
        }
      }
    }
  };
  check_identical();
  // Mutations fan out to every replica at the same quiescent point, so
  // identity survives them.
  router.insert_edge(0, 31, 2);
  router.insert_edge(3, 4, 1);
  EXPECT_TRUE(router.remove_edge(0, 31));
  check_identical();
}

TEST(ReplicaBitIdentity, OutOfCoreReplicaFilesAreByteIdentical) {
  const auto el = graph::random_digraph<int>(40, 0.12, 19, 1, 9);
  const AdjacencyArray<int> csr(el);
  const auto dir = std::filesystem::temp_directory_path() / "cg_replica_identity";
  std::filesystem::remove_all(dir);
  Router<int> router(csr, {.shards = 2, .replicas = 3});
  ASSERT_TRUE(router.enable_out_of_core(dir, 256, 4).is_ok());

  for (std::uint32_t s = 0; s < 2; ++s) {
    auto& rs = router.replica_set(s);
    const auto ref = file_bytes(rs.replica(0).ooc_path());
    ASSERT_FALSE(ref.empty());
    for (std::uint32_t r = 1; r < rs.size(); ++r) {
      EXPECT_EQ(file_bytes(rs.replica(r).ooc_path()), ref)
          << "shard " << s << " replica " << r << " file differs";
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ReplicaBitIdentity, ReplicatedRouterMatchesOracleAcrossShardCounts) {
  const auto el = graph::random_digraph<int>(36, 0.12, 83, 1, 9);
  const AdjacencyArray<int> csr(el);
  const vertex_t n = csr.num_vertices();
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    for (const std::uint32_t replicas : {2u, 3u}) {
      for (const bool cached : {true, false}) {  // uncached: every row is a replica probe
        Router<int> router(csr,
                           {.shards = shards, .cache_portals = cached, .replicas = replicas});
        for (vertex_t s = 0; s < n; s += 5) {
          const std::vector<int> want = oracle_dists(csr, s);
          for (vertex_t t = 0; t < n; ++t) {
            ASSERT_EQ(router.distance(s, t), want[static_cast<std::size_t>(t)])
                << "shards=" << shards << " replicas=" << replicas << " cached=" << cached;
          }
        }
        EXPECT_EQ(router.stats().quarantines, 0u) << "a healthy fleet never trips the breaker";
      }
    }
  }
}

// ------------------------------------------------------ degraded mode

/// Line graph 0→1→…→31 under Partition(32, 4): shard 1 owns 8..15 and
/// every path from the left half to the right half must cross it.
struct DegradedFixture : ::testing::Test {
  DegradedFixture() : el(32) {
    for (vertex_t v = 0; v + 1 < 32; ++v) el.add_edge(v, v + 1, 1);
    csr = std::make_unique<AdjacencyArray<int>>(el);
    Router<int>::Config cfg;
    cfg.shards = 4;
    cfg.replicas = 2;
    cfg.health.probation_base = std::chrono::minutes(10);  // quarantine holds
    cfg.health.probation_jitter = 0.0;
    router = std::make_unique<Router<int>>(*csr, cfg);
  }

  /// Drives every replica of shard `s` into quarantine through the
  /// same report() path the Router uses.
  void kill_shard(std::uint32_t s) {
    auto& rs = router->replica_set(s);
    const auto now = std::chrono::steady_clock::now();
    for (std::uint32_t r = 0; r < rs.size(); ++r) {
      for (int k = 0; k < 3; ++k) {
        rs.report(r, StatusCode::kDataLoss, false, false, now);
      }
      EXPECT_EQ(rs.health(r).state(), ReplicaState::kQuarantined);
    }
    EXPECT_FALSE(rs.reachable(now));
  }

  void revive_shard(std::uint32_t s) {
    auto& rs = router->replica_set(s);
    const auto now = std::chrono::steady_clock::now();
    for (std::uint32_t r = 0; r < rs.size(); ++r) {
      rs.report(r, StatusCode::kOk, false, false, now);
      EXPECT_EQ(rs.health(r).state(), ReplicaState::kHealthy);
    }
  }

  EdgeListGraph<int> el;
  std::unique_ptr<AdjacencyArray<int>> csr;
  std::unique_ptr<Router<int>> router;
};

TEST_F(DegradedFixture, RequestsAvoidingTheDeadShardStillSucceedExactly) {
  kill_shard(1);
  // Entirely inside shard 0: the target settles before any shard-1
  // portal pops, so the answer is exact — not merely "lucky".
  for (vertex_t t = 0; t < 8; ++t) {
    const auto r = router->point_to_point(0, t);
    ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
    EXPECT_EQ(r.target_dist, static_cast<int>(t));
  }
  // Entirely inside the right half (shards 2..3): shard 1 is upstream
  // of nothing on these routes.
  const auto r = router->point_to_point(16, 31);
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.target_dist, 15);
}

TEST_F(DegradedFixture, RequestsNeedingTheDeadShardFailFastAndDefinitely) {
  kill_shard(1);
  // Target inside the dead shard: rejected at the door.
  EXPECT_EQ(router->point_to_point(0, 10).status.code(), StatusCode::kOverloaded);
  // Source inside it too.
  EXPECT_EQ(router->point_to_point(10, 20).status.code(), StatusCode::kOverloaded);
  // Path *through* it: the stitch search prunes the dead shard and the
  // honest resolution is unavailable — never OK-with-infinity, which
  // would assert "no path exists" when one does.
  const auto through = router->point_to_point(0, 31);
  EXPECT_EQ(through.status.code(), StatusCode::kOverloaded) << through.status.to_string();

  // Whole-graph kinds need every shard: fail fast up front.
  EXPECT_EQ(router->full_sssp(0).status.code(), StatusCode::kOverloaded);
  std::vector<Router<int>::NearItem> near;
  EXPECT_EQ(router->k_nearest(0, 4, near, {}).code(), StatusCode::kOverloaded);
  EXPECT_EQ(router->within(0, 5, near, {}).code(), StatusCode::kOverloaded);

  const auto st = router->stats();
  EXPECT_GE(st.unavailable, 5u);
  EXPECT_EQ(st.quarantines, 2u);
}

TEST_F(DegradedFixture, RecoveryRestoresExactAnswersEndToEnd) {
  kill_shard(1);
  ASSERT_EQ(router->point_to_point(0, 31).status.code(), StatusCode::kOverloaded);
  revive_shard(1);
  const auto r = router->point_to_point(0, 31);
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.target_dist, 31);
  const auto full = router->full_sssp(0);
  ASSERT_TRUE(full.status.is_ok());
  for (vertex_t v = 0; v < 32; ++v) {
    EXPECT_EQ(full.tree->dist[static_cast<std::size_t>(v)], static_cast<int>(v));
  }
}

// -------------------------------------------- retry budget starvation

TEST(ReplicaFailover, RetryBudgetBoundsFailoversExactly) {
  const auto el = graph::random_digraph<int>(32, 0.15, 29, 1, 9);
  const AdjacencyArray<int> csr(el);
  const auto dir = std::filesystem::temp_directory_path() / "cg_budget_starvation";
  std::filesystem::remove_all(dir);

  Router<int>::Config cfg;
  cfg.shards = 2;
  cfg.replicas = 2;
  cfg.cache_portals = false;  // probes must ride the out-of-core engine
  cfg.health.quarantine_after = 1000;  // replicas stay available, keep failing
  cfg.retry_budget.capacity = 3.0;
  cfg.retry_budget.refill_per_success = 0.0;
  Router<int> router(csr, cfg);
  ASSERT_TRUE(router.enable_out_of_core(dir, 256, 4).is_ok());

  // Both replicas of shard 0 are corrupt on disk: every probe of shard
  // 0 resolves DATA_LOSS, so each request wants one failover.
  for (const auto& t : router.scrub_targets()) {
    if (t.path.string().find("/s0/") != std::string::npos) corrupt_all_blocks(t);
  }

  for (int i = 0; i < 8; ++i) {
    const auto r = router.point_to_point(0, 5);
    EXPECT_EQ(r.status.code(), StatusCode::kDataLoss) << r.status.to_string();
  }
  const auto st = router.stats();
  EXPECT_EQ(st.failovers, 3u) << "a bucket of 3 with zero refill grants exactly 3 failovers";
  EXPECT_GT(router.retry_budget().stats().denied, 0u);
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------- scrubber

TEST(Scrubber, RepairsACorruptReplicaFromItsSibling) {
  const auto el = graph::random_digraph<int>(40, 0.12, 47, 1, 9);
  const AdjacencyArray<int> csr(el);
  const vertex_t n = csr.num_vertices();
  const auto dir = std::filesystem::temp_directory_path() / "cg_scrubber_repair";
  std::filesystem::remove_all(dir);

  Router<int>::Config cfg;
  cfg.shards = 2;
  cfg.replicas = 2;
  cfg.cache_portals = false;
  cfg.health.probation_base = std::chrono::minutes(10);
  Router<int> router(csr, cfg);
  ASSERT_TRUE(router.enable_out_of_core(dir, 256, 4).is_ok());

  const auto targets = router.scrub_targets();
  ASSERT_EQ(targets.size(), 4u);  // 2 shards × 2 replicas
  // Corrupt replica 0 of shard 0 only — its sibling stays good.
  const auto it = std::find_if(targets.begin(), targets.end(), [](const auto& t) {
    return t.path.string().find("/s0/r0/") != std::string::npos;
  });
  ASSERT_NE(it, targets.end());
  corrupt_all_blocks(*it);

  // Traffic still resolves exactly, via failover to the sibling.
  const std::vector<int> want = oracle_dists(csr, 0);
  for (vertex_t t = 0; t < n; ++t) {
    EXPECT_EQ(router.distance(0, t), want[static_cast<std::size_t>(t)]);
  }
  EXPECT_GT(router.stats().failovers, 0u);

  // The scrubber finds every corrupt block and repairs each from the
  // sibling's bit-identical file.
  serving::BlockScrubber scrubber;
  for (auto t : targets) scrubber.add_target(std::move(t));
  scrubber.scrub_all();
  const auto s1 = scrubber.stats();
  EXPECT_EQ(s1.corrupt, static_cast<std::uint64_t>(it->num_blocks));
  EXPECT_EQ(s1.repaired, s1.corrupt);
  EXPECT_EQ(s1.repair_failed, 0u);

  // A second pass over the repaired file finds nothing.
  scrubber.scrub_all();
  const auto s2 = scrubber.stats();
  EXPECT_EQ(s2.corrupt, s1.corrupt);
  EXPECT_EQ(s2.scanned, s1.scanned * 2);

  // And the repaired replica serves correct bytes again.
  for (vertex_t s = 0; s < n; s += 7) {
    const std::vector<int> w = oracle_dists(csr, s);
    for (vertex_t t = 0; t < n; ++t) {
      EXPECT_EQ(router.distance(s, t), w[static_cast<std::size_t>(t)]);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(Scrubber, BackgroundThreadPatrolsAtTheConfiguredRate) {
  const auto el = graph::random_digraph<int>(24, 0.15, 11, 1, 5);
  const AdjacencyArray<int> csr(el);
  const auto dir = std::filesystem::temp_directory_path() / "cg_scrubber_bg";
  std::filesystem::remove_all(dir);
  Router<int> router(csr, {.shards = 1, .replicas = 2});
  ASSERT_TRUE(router.enable_out_of_core(dir, 256, 4).is_ok());

  serving::BlockScrubber scrubber({.blocks_per_pass = 2,
                                   .pass_interval = std::chrono::milliseconds(1)});
  for (auto t : router.scrub_targets()) scrubber.add_target(std::move(t));
  scrubber.start();
  EXPECT_TRUE(scrubber.running());
  for (int i = 0; i < 500 && scrubber.stats().passes < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  scrubber.stop();
  EXPECT_FALSE(scrubber.running());
  const auto st = scrubber.stats();
  EXPECT_GE(st.passes, 3u);
  EXPECT_GT(st.scanned, 0u);
  EXPECT_EQ(st.corrupt, 0u) << "a clean deployment scrubs clean";
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cachegraph
