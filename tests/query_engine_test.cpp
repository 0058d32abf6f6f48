// The query subsystem: every request shape differential-tested against
// a full-Dijkstra oracle across queue policies, representations, and
// thread counts; early-exit working-set bounds; the dynamic overlay
// against a rebuilt-from-scratch graph after randomized edge updates;
// component stamps; and the result cache's invalidation protocol
// (stale sources recompute, untouched components keep serving,
// re-served trees bit-identical to fresh computation).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cachegraph/graph/adjacency_list.hpp"
#include "cachegraph/graph/generators.hpp"
#include "cachegraph/obs/counters.hpp"
#include "cachegraph/parallel/task_pool.hpp"
#include "cachegraph/pq/dary_heap.hpp"
#include "cachegraph/query/dynamic_overlay.hpp"
#include "cachegraph/query/engine.hpp"
#include "cachegraph/query/request.hpp"
#include "cachegraph/query/result_cache.hpp"
#include "cachegraph/query/search_core.hpp"
#include "cachegraph/sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace cachegraph::query {
namespace {

using graph::AdjacencyArray;
using graph::AdjacencyList;
using graph::EdgeListGraph;
using graph::random_digraph;

template <Weight W, typename M>
using FourAry = pq::DAryHeap<W, 4, M>;

/// Materializes any GraphRep back into an edge list (the oracle runs
/// on a from-scratch rebuild, sharing no state with the overlay).
template <graph::GraphRep G>
EdgeListGraph<typename G::weight_type> materialize(const G& g) {
  EdgeListGraph<typename G::weight_type> out(g.num_vertices());
  memsim::NullMem mem;
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    g.for_neighbors(v, mem, [&](const auto& nb) { out.add_edge(v, nb.to, nb.weight); });
  }
  return out;
}

/// Graph with zero-weight edges and deliberate duplicate-weight ties.
EdgeListGraph<int> adversarial_graph(vertex_t n, std::uint64_t seed) {
  EdgeListGraph<int> el(n);
  Rng rng(seed);
  for (vertex_t i = 0; i < n; ++i) {
    for (vertex_t j = 0; j < n; ++j) {
      if (i != j && rng.chance(0.15)) {
        // weights drawn from {0, 1, 1, 2, 2, 5}: plateaus and ties
        constexpr int kW[] = {0, 1, 1, 2, 2, 5};
        el.add_edge(i, j, kW[static_cast<std::size_t>(rng.uniform_int(0, 5))]);
      }
    }
  }
  return el;
}

// --------------------------------- request shapes vs oracle, per policy

template <typename Q>
class SearchPolicies : public ::testing::Test {};

using QueuePolicies =
    ::testing::Types<IndexedQueue<int>, IndexedQueue<int, FourAry>, LazyQueue<int>>;
TYPED_TEST_SUITE(SearchPolicies, QueuePolicies);

TYPED_TEST(SearchPolicies, PointToPointMatchesOracle) {
  const auto el = random_digraph<int>(60, 0.08, 1201);
  const AdjacencyArray<int> rep(el);
  QueryEngine<AdjacencyArray<int>, TypeParam> engine(rep);
  for (vertex_t s = 0; s < 60; s += 9) {
    const auto oracle = sssp::dijkstra(rep, s);
    for (vertex_t t = 0; t < 60; t += 5) {
      EXPECT_EQ(engine.distance(s, t), oracle.dist[static_cast<std::size_t>(t)])
          << s << "->" << t;
    }
  }
}

TYPED_TEST(SearchPolicies, PointToPointOutcomeAndExactDistance) {
  EdgeListGraph<int> el(4);
  el.add_edge(0, 1, 5);
  el.add_edge(1, 2, 5);
  // vertex 3 unreachable
  const AdjacencyArray<int> rep(el);
  QueryEngine<AdjacencyArray<int>, TypeParam> engine(rep);
  parallel::TaskPool pool(2);
  const std::vector<Request<int>> reqs{PointToPoint{0, 2}, PointToPoint{0, 3},
                                       PointToPoint{0, 0}};
  const auto r = engine.run(reqs, pool);
  EXPECT_EQ(r[0].outcome, Outcome::target_settled);
  EXPECT_EQ(r[0].target_dist, 10);
  EXPECT_EQ(r[1].outcome, Outcome::exhausted);  // drained without reaching 3
  EXPECT_TRUE(is_inf(r[1].target_dist));
  EXPECT_EQ(r[2].outcome, Outcome::target_settled);  // source settles first
  EXPECT_EQ(r[2].target_dist, 0);
  EXPECT_EQ(r[2].settled, 1u);
}

TYPED_TEST(SearchPolicies, KNearestIsASortedPrefixOfTheOracle) {
  const auto el = random_digraph<int>(80, 0.06, 77);
  const AdjacencyArray<int> rep(el);
  QueryEngine<AdjacencyArray<int>, TypeParam> engine(rep);
  for (vertex_t s = 0; s < 80; s += 13) {
    auto oracle = sssp::dijkstra(rep, s).dist;
    std::vector<int> reach;
    for (const int d : oracle) {
      if (!is_inf(d)) reach.push_back(d);
    }
    std::sort(reach.begin(), reach.end());
    for (const vertex_t k : {vertex_t{1}, vertex_t{4}, vertex_t{17},
                             static_cast<vertex_t>(reach.size() + 10)}) {
      const auto near = engine.k_nearest(s, k);
      const std::size_t want = std::min<std::size_t>(static_cast<std::size_t>(k), reach.size());
      ASSERT_EQ(near.size(), want) << "s=" << s << " k=" << k;
      for (std::size_t i = 0; i < near.size(); ++i) {
        // Distance multiset must match the sorted oracle prefix exactly
        // (vertex identity may differ on ties; distances may not).
        EXPECT_EQ(near[i].dist, reach[i]) << "s=" << s << " k=" << k << " i=" << i;
        EXPECT_EQ(near[i].dist, oracle[static_cast<std::size_t>(near[i].vertex)]);
        if (i > 0) {
          EXPECT_GE(near[i].dist, near[i - 1].dist);  // settling order sorted
        }
      }
    }
  }
}

TYPED_TEST(SearchPolicies, BoundedReturnsExactlyTheVerticesWithinRadius) {
  const auto el = random_digraph<int>(80, 0.06, 313);
  const AdjacencyArray<int> rep(el);
  QueryEngine<AdjacencyArray<int>, TypeParam> engine(rep);
  for (vertex_t s = 0; s < 80; s += 11) {
    const auto oracle = sssp::dijkstra(rep, s).dist;
    for (const int radius : {0, 3, 25, 200}) {
      std::set<vertex_t> expect;
      for (vertex_t v = 0; v < 80; ++v) {
        const int d = oracle[static_cast<std::size_t>(v)];
        if (!is_inf(d) && d <= radius) expect.insert(v);
      }
      const auto got = engine.within(s, radius);
      std::set<vertex_t> got_set;
      for (const auto& item : got) {
        got_set.insert(item.vertex);
        EXPECT_EQ(item.dist, oracle[static_cast<std::size_t>(item.vertex)]);
        EXPECT_LE(item.dist, radius);
      }
      EXPECT_EQ(got_set, expect) << "s=" << s << " radius=" << radius;
    }
  }
}

TYPED_TEST(SearchPolicies, FullSsspBitIdenticalToOracle) {
  const auto el = random_digraph<int>(70, 0.1, 404);
  const AdjacencyArray<int> rep(el);
  QueryEngine<AdjacencyArray<int>, TypeParam> engine(rep);
  for (vertex_t s = 0; s < 70; s += 7) {
    const auto tree = engine.full(s);
    const auto oracle = sssp::dijkstra(rep, s);
    ASSERT_EQ(tree.dist.size(), oracle.dist.size());
    EXPECT_EQ(std::memcmp(tree.dist.data(), oracle.dist.data(),
                          oracle.dist.size() * sizeof(int)),
              0)
        << "source " << s;
  }
}

TYPED_TEST(SearchPolicies, AdversarialZeroWeightsAndTies) {
  const auto el = adversarial_graph(40, 555);
  const AdjacencyArray<int> rep(el);
  QueryEngine<AdjacencyArray<int>, TypeParam> engine(rep);
  for (vertex_t s = 0; s < 40; s += 3) {
    const auto oracle = sssp::dijkstra(rep, s).dist;
    const auto tree = engine.full(s);
    EXPECT_EQ(tree.dist, oracle) << "source " << s;
    for (vertex_t t = 0; t < 40; t += 7) {
      EXPECT_EQ(engine.distance(s, t), oracle[static_cast<std::size_t>(t)]);
    }
    const auto within2 = engine.within(s, 2);
    for (const auto& item : within2) {
      EXPECT_EQ(item.dist, oracle[static_cast<std::size_t>(item.vertex)]);
    }
    // Zero-radius must still return the whole zero-weight plateau.
    std::size_t plateau = 0;
    for (const int d : oracle) plateau += (d == 0) ? 1u : 0u;
    EXPECT_EQ(engine.within(s, 0).size(), plateau) << "source " << s;
  }
}

TYPED_TEST(SearchPolicies, WorksOverAdjacencyListToo) {
  const auto el = random_digraph<int>(48, 0.1, 808);
  const AdjacencyList<int> list(el);
  const AdjacencyArray<int> rep(el);
  QueryEngine<AdjacencyList<int>, TypeParam> engine(list);
  for (vertex_t s = 0; s < 48; s += 12) {
    EXPECT_EQ(engine.full(s).dist, sssp::dijkstra(rep, s).dist);
  }
}

// ------------------------------------------- LazyQueue hardening

TEST(LazyQueueHardening, ExtractMinOnEmptyThrowsInsteadOfUB) {
  // std::pop_heap on an empty range is UB; the hardened queue must
  // refuse with a diagnosable precondition failure — both when fresh
  // and when drained back to empty.
  LazyQueue<int> q(4);
  EXPECT_THROW((void)q.extract_min(), PreconditionError);
  q.insert(2, 7);
  EXPECT_EQ(q.extract_min().vertex, 2);
  EXPECT_THROW((void)q.extract_min(), PreconditionError);
}

TEST(LazyQueueHardening, PeakEntriesIsTheDuplicateHighWater) {
  LazyQueue<int> q(8);
  q.insert(0, 5);
  q.insert(1, 4);
  q.improve(0, 3);  // lazy deletion: duplicates pile up
  q.improve(1, 2);
  EXPECT_EQ(q.peak_entries(), 4u);
  (void)q.extract_min();
  (void)q.extract_min();
  EXPECT_EQ(q.peak_entries(), 4u);  // high-water survives pops
  q.clear();
  EXPECT_EQ(q.peak_entries(), 0u);  // per-search reset
}

// ----------------------------------------------- batch serving / threads

TEST(QueryEngineBatch, MixedRequestsAcrossThreadCountsMatchOracle) {
  const auto el = random_digraph<int>(100, 0.05, 2024);
  const AdjacencyArray<int> rep(el);
  std::vector<Request<int>> reqs;
  Rng rng(9);
  for (int i = 0; i < 64; ++i) {
    const auto s = static_cast<vertex_t>(rng.uniform_int(0, 99));
    switch (rng.uniform_int(0, 3)) {
      case 0: reqs.push_back(PointToPoint{s, static_cast<vertex_t>(rng.uniform_int(0, 99))}); break;
      case 1: reqs.push_back(KNearest{s, static_cast<vertex_t>(rng.uniform_int(1, 20))}); break;
      case 2: reqs.push_back(Bounded<int>{s, static_cast<int>(rng.uniform_int(0, 60))}); break;
      default: reqs.push_back(FullSSSP{s}); break;
    }
  }
  for (int threads = 1; threads <= 8; ++threads) {
    QueryEngine<AdjacencyArray<int>> engine(rep);
    parallel::TaskPool pool(threads);
    std::vector<std::uint64_t> settled(reqs.size(), 0);
    engine.run(std::span<const Request<int>>(reqs), pool,
               [&](std::size_t i, const Request<int>& req, const auto& resp, const auto& sc) {
                 settled[i] = resp.settled;
                 const auto oracle = sssp::dijkstra(rep, source_of(req));
                 // Every touched vertex's dist is exact once settled;
                 // verify all settled entries against the oracle.
                 for (const vertex_t v : sc.settled_order()) {
                   EXPECT_EQ(sc.dist()[static_cast<std::size_t>(v)],
                             oracle.dist[static_cast<std::size_t>(v)])
                       << "req " << i << " v " << v << " threads " << threads;
                 }
               });
    const auto st = engine.stats();
    EXPECT_EQ(st.requests, reqs.size());
    EXPECT_LE(st.scratch_allocs, static_cast<std::uint64_t>(threads));
    EXPECT_EQ(st.scratch_allocs + st.scratch_reuses, reqs.size());
    // Determinism: per-request settled counts are thread-invariant for
    // the indexed queue (one extraction per settled vertex).
    QueryEngine<AdjacencyArray<int>> serial(rep);
    parallel::TaskPool one(1);
    const auto base = serial.run(std::span<const Request<int>>(reqs), one);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      EXPECT_EQ(settled[i], base[i].settled) << "req " << i << " threads " << threads;
    }
  }
}

TEST(QueryEngineBatch, EarlyExitSettlesStrictlyFewerOnSparseGraphs) {
  const auto el = random_digraph<int>(400, 0.02, 31337);
  const AdjacencyArray<int> rep(el);
  QueryEngine<AdjacencyArray<int>> engine(rep);
  parallel::TaskPool pool(4);
  const vertex_t s = 0;
  const std::vector<Request<int>> reqs{FullSSSP{s}, KNearest{s, 8}, Bounded<int>{s, 3},
                                       PointToPoint{s, 1}};
  const auto r = engine.run(reqs, pool);
  const std::uint64_t full = r[0].settled;
  ASSERT_GT(full, 100u) << "graph too disconnected for the bound to mean anything";
  EXPECT_LT(r[1].settled, full);  // k-nearest: at most 8 settle
  EXPECT_EQ(r[1].settled, 8u);
  EXPECT_LT(r[2].settled, full);  // bounded: only the radius-3 ball
  EXPECT_EQ(r[1].outcome, Outcome::k_settled);
  EXPECT_EQ(r[2].outcome, Outcome::radius_exceeded);
  EXPECT_EQ(engine.stats().early_exits, 3u);  // all but the full run
}

TEST(QueryEngineBatch, ConcurrentSerialHelpersAreSafe) {
  // serve() leases scratch under a mutex; hammer it from many threads
  // (the TSan CI job runs this file at several thread counts).
  const auto el = random_digraph<int>(64, 0.1, 616);
  const AdjacencyArray<int> rep(el);
  QueryEngine<AdjacencyArray<int>> engine(rep);
  std::vector<std::vector<int>> oracle;
  for (vertex_t s = 0; s < 8; ++s) oracle.push_back(sssp::dijkstra(rep, s).dist);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const auto s = static_cast<vertex_t>(t);
      for (int round = 0; round < 20; ++round) {
        EXPECT_EQ(engine.full(s).dist, oracle[static_cast<std::size_t>(s)]);
        EXPECT_EQ(engine.distance(s, static_cast<vertex_t>((t + 3) % 8)),
                  oracle[static_cast<std::size_t>(s)][static_cast<std::size_t>((t + 3) % 8)]);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(engine.stats().scratch_allocs, 8u);
}

TEST(QueryEngineBatch, ValidationRejectsBeforeAnyTaskRuns) {
  const auto el = random_digraph<int>(10, 0.2, 5);
  const AdjacencyArray<int> rep(el);
  QueryEngine<AdjacencyArray<int>> engine(rep);
  parallel::TaskPool pool(2);
  const std::vector<Request<int>> bad_source{FullSSSP{10}};
  EXPECT_THROW((void)engine.run(std::span<const Request<int>>(bad_source), pool),
               PreconditionError);
  const std::vector<Request<int>> bad_target{PointToPoint{0, -1}};
  EXPECT_THROW((void)engine.run(std::span<const Request<int>>(bad_target), pool),
               PreconditionError);
  EXPECT_THROW((void)engine.k_nearest(0, 0), PreconditionError);
  EXPECT_THROW((void)engine.within(0, -1), PreconditionError);
  EXPECT_EQ(engine.stats().requests, 0u);
}

// ------------------------------------------------------- dynamic overlay

/// Applies a random update sequence to both the overlay and a plain
/// edge multiset model, then checks the overlay view and queries over
/// it against a from-scratch rebuild of the model.
TEST(DynamicOverlay, RandomizedUpdatesMatchFromScratchRebuild) {
  const auto base_el = random_digraph<int>(48, 0.08, 4711);
  const AdjacencyArray<int> base(base_el);
  DynamicOverlay<int> overlay(base);
  std::vector<graph::Edge<int>> model(base_el.edges().begin(), base_el.edges().end());

  Rng rng(99);
  for (int step = 0; step < 120; ++step) {
    if (rng.chance(0.45) && !model.empty()) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(model.size()) - 1));
      const auto e = model[pick];
      ASSERT_TRUE(overlay.remove_edge(e.from, e.to)) << "step " << step;
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const auto u = static_cast<vertex_t>(rng.uniform_int(0, 47));
      const auto v = static_cast<vertex_t>(rng.uniform_int(0, 47));
      const auto w = static_cast<int>(rng.uniform_int(0, 30));
      overlay.insert_edge(u, v, w);
      model.push_back(graph::Edge<int>{u, v, w});
    }

    if (step % 20 != 19) continue;
    EXPECT_EQ(overlay.num_edges(), static_cast<index_t>(model.size()));
    // View equivalence: per-vertex neighbour multisets match the model.
    EdgeListGraph<int> rebuilt(48);
    for (const auto& e : model) rebuilt.add_edge(e.from, e.to, e.weight);
    const AdjacencyArray<int> fresh(rebuilt);
    memsim::NullMem mem;
    for (vertex_t v = 0; v < 48; ++v) {
      std::multiset<std::pair<vertex_t, int>> got, want;
      overlay.for_neighbors(v, mem, [&](const auto& nb) { got.emplace(nb.to, nb.weight); });
      for (const auto& nb : fresh.neighbors(v)) want.emplace(nb.to, nb.weight);
      ASSERT_EQ(got, want) << "vertex " << v << " step " << step;
    }
    // Query equivalence: engine over the overlay == oracle over rebuild.
    QueryEngine<DynamicOverlay<int>> engine(overlay);
    for (vertex_t s = 0; s < 48; s += 11) {
      const auto tree = engine.full(s);
      const auto oracle = sssp::dijkstra(fresh, s);
      EXPECT_EQ(std::memcmp(tree.dist.data(), oracle.dist.data(), 48 * sizeof(int)), 0)
          << "source " << s << " step " << step;
    }
  }
}

TEST(DynamicOverlay, RemoveSemantics) {
  EdgeListGraph<int> el(4);
  el.add_edge(0, 1, 3);
  el.add_edge(0, 1, 5);  // parallel edge
  const AdjacencyArray<int> base(el);
  DynamicOverlay<int> overlay(base);
  EXPECT_FALSE(overlay.remove_edge(1, 0));  // absent direction
  EXPECT_FALSE(overlay.remove_edge(2, 3));  // absent entirely
  overlay.insert_edge(0, 1, 9);
  EXPECT_EQ(overlay.num_edges(), 3);
  // Removal prefers the spill, then the base; each call removes one.
  EXPECT_TRUE(overlay.remove_edge(0, 1));
  EXPECT_TRUE(overlay.remove_edge(0, 1));
  EXPECT_TRUE(overlay.remove_edge(0, 1));
  EXPECT_FALSE(overlay.remove_edge(0, 1));
  EXPECT_EQ(overlay.num_edges(), 0);
  memsim::NullMem mem;
  int count = 0;
  overlay.for_neighbors(0, mem, [&](const auto&) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(DynamicOverlay, ComponentStampsIsolateUntouchedComponents) {
  // Two components: {0,1,2} and {3,4,5}.
  EdgeListGraph<int> el(6);
  el.add_edge(0, 1, 1);
  el.add_edge(1, 2, 1);
  el.add_edge(3, 4, 1);
  el.add_edge(4, 5, 1);
  const AdjacencyArray<int> base(el);
  DynamicOverlay<int> overlay(base);
  EXPECT_TRUE(overlay.connected(0, 2));
  EXPECT_FALSE(overlay.connected(0, 3));

  const auto a0 = overlay.stamp_of(0);
  const auto b0 = overlay.stamp_of(3);
  overlay.insert_edge(2, 0, 7);  // touches only component A
  EXPECT_NE(overlay.stamp_of(0), a0);
  EXPECT_EQ(overlay.stamp_of(3), b0);  // B untouched

  // Bridging edge merges: both sides' stamps move.
  const auto a1 = overlay.stamp_of(0);
  overlay.insert_edge(2, 3, 1);
  EXPECT_TRUE(overlay.connected(0, 5));
  EXPECT_NE(overlay.stamp_of(0), a1);
  EXPECT_NE(overlay.stamp_of(3), b0);
  EXPECT_EQ(overlay.stamp_of(0), overlay.stamp_of(5));  // one component now

  // Removing the bridge: stamps bump, partition stays conservative
  // until rebuild, then splits — carrying stamps forward unchanged.
  const auto merged = overlay.stamp_of(0);
  ASSERT_TRUE(overlay.remove_edge(2, 3));
  EXPECT_NE(overlay.stamp_of(0), merged);
  EXPECT_TRUE(overlay.components_stale());
  EXPECT_TRUE(overlay.connected(0, 5));  // conservative over-approximation
  const auto before_a = overlay.stamp_of(0);
  const auto before_b = overlay.stamp_of(5);
  overlay.rebuild_components();
  EXPECT_FALSE(overlay.components_stale());
  EXPECT_FALSE(overlay.connected(0, 5));  // now precise
  EXPECT_TRUE(overlay.connected(0, 2));
  EXPECT_EQ(overlay.stamp_of(0), before_a);  // rebuild never bumps
  EXPECT_EQ(overlay.stamp_of(5), before_b);
}

TEST(DynamicOverlay, RebuildPreservesEveryVertexStamp) {
  // The rebuilt partition refines the conservative one, and each new
  // component inherits the max member stamp — which equals every
  // member's old stamp (they shared a conservative component). So
  // stamp_of is invariant across rebuild for all vertices.
  const auto el = random_digraph<int>(32, 0.06, 272);
  const AdjacencyArray<int> base(el);
  DynamicOverlay<int> overlay(base);
  Rng rng(7);
  std::vector<graph::Edge<int>> live(el.edges().begin(), el.edges().end());
  for (int i = 0; i < 25 && !live.empty(); ++i) {
    const auto pick =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
    ASSERT_TRUE(overlay.remove_edge(live[pick].from, live[pick].to));
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  std::vector<std::uint64_t> before(32);
  for (vertex_t v = 0; v < 32; ++v) before[static_cast<std::size_t>(v)] = overlay.stamp_of(v);
  overlay.rebuild_components();
  for (vertex_t v = 0; v < 32; ++v) {
    EXPECT_EQ(overlay.stamp_of(v), before[static_cast<std::size_t>(v)]) << "v " << v;
  }
}

// ---------------------------------------------------------- result cache

TEST(ResultCache, HitsServeTheSameTreeWithoutRecompute) {
  const auto el = random_digraph<int>(40, 0.1, 321);
  const AdjacencyArray<int> base(el);
  DynamicOverlay<int> overlay(base);
  ResultCache<int> cache(overlay);
  const auto t1 = cache.get_or_compute(3);
  const auto t2 = cache.get_or_compute(3);
  EXPECT_EQ(t1.get(), t2.get());  // literally the same tree object
  const auto st = cache.stats();
  EXPECT_EQ(st.recomputes, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(cache.get(3)->dist, sssp::dijkstra(base, 3).dist);
}

TEST(ResultCache, OnlyTouchedComponentSourcesRecompute) {
  // Components A = {0..4} (a path), B = {5..9} (a path).
  EdgeListGraph<int> el(10);
  for (vertex_t v = 0; v < 4; ++v) el.add_edge(v, v + 1, 2);
  for (vertex_t v = 5; v < 9; ++v) el.add_edge(v, v + 1, 2);
  const AdjacencyArray<int> base(el);
  DynamicOverlay<int> overlay(base);
  ResultCache<int> cache(overlay);
  parallel::TaskPool pool(4);
  std::vector<vertex_t> sources(10);
  std::iota(sources.begin(), sources.end(), vertex_t{0});

  const auto first = cache.ensure(sources, pool);
  EXPECT_EQ(first.misses, 10u);
  EXPECT_EQ(first.recomputed, 10u);

  const auto all_fresh = cache.ensure(sources, pool);
  EXPECT_EQ(all_fresh.hits, 10u);
  EXPECT_EQ(all_fresh.recomputed, 0u);

  // Shortcut edge inside A: exactly A's five sources go stale.
  overlay.insert_edge(0, 4, 1);
  const auto after = cache.ensure(sources, pool);
  EXPECT_EQ(after.hits, 5u);
  EXPECT_EQ(after.invalidations, 5u);
  EXPECT_EQ(after.misses, 0u);
  EXPECT_EQ(after.recomputed, 5u);

  // Every re-served tree bit-identical to a from-scratch oracle.
  const auto rebuilt = materialize(overlay);
  const AdjacencyArray<int> fresh(rebuilt);
  for (const vertex_t s : sources) {
    const auto tree = cache.get(s);
    ASSERT_TRUE(tree) << "source " << s;
    const auto oracle = sssp::dijkstra(fresh, s);
    EXPECT_EQ(std::memcmp(tree->dist.data(), oracle.dist.data(), 10 * sizeof(int)), 0)
        << "source " << s;
  }
  // B's trees were served from cache, not recomputed: dist to A stays inf.
  EXPECT_TRUE(is_inf(cache.get(7)->dist[0]));
}

TEST(ResultCache, RandomizedUpdateSequencesStayBitIdenticalToFresh) {
  // Four independent 9-vertex blocks: updates stay inside one block so
  // the other components' cached trees must keep serving untouched.
  EdgeListGraph<int> el(36);
  {
    Rng gen(626);
    for (vertex_t block = 0; block < 4; ++block) {
      const vertex_t lo = block * 9;
      for (vertex_t i = 0; i < 9; ++i) {
        for (vertex_t j = 0; j < 9; ++j) {
          if (i != j && gen.chance(0.3)) {
            el.add_edge(lo + i, lo + j, static_cast<int>(gen.uniform_int(1, 20)));
          }
        }
      }
    }
  }
  const AdjacencyArray<int> base(el);
  DynamicOverlay<int> overlay(base);
  ResultCache<int> cache(overlay);
  parallel::TaskPool pool(4);
  std::vector<vertex_t> sources(36);
  std::iota(sources.begin(), sources.end(), vertex_t{0});
  std::vector<graph::Edge<int>> live(el.edges().begin(), el.edges().end());

  Rng rng(1313);
  std::uint64_t total_recomputed = 0;
  for (int round = 0; round < 8; ++round) {
    const int updates = static_cast<int>(rng.uniform_int(1, 4));
    for (int u = 0; u < updates; ++u) {
      if (rng.chance(0.4) && !live.empty()) {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        ASSERT_TRUE(overlay.remove_edge(live[pick].from, live[pick].to));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        const auto lo = static_cast<vertex_t>(9 * rng.uniform_int(0, 3));  // stay in-block
        const auto a = static_cast<vertex_t>(lo + rng.uniform_int(0, 8));
        const auto b = static_cast<vertex_t>(lo + rng.uniform_int(0, 8));
        const auto w = static_cast<int>(rng.uniform_int(1, 20));
        overlay.insert_edge(a, b, w);
        live.push_back(graph::Edge<int>{a, b, w});
      }
    }
    const auto report = cache.ensure(sources, pool);
    EXPECT_EQ(report.hits + report.misses + report.invalidations, sources.size());
    total_recomputed += report.recomputed;

    EdgeListGraph<int> rebuilt(36);
    for (const auto& e : live) rebuilt.add_edge(e.from, e.to, e.weight);
    const AdjacencyArray<int> fresh(rebuilt);
    for (const vertex_t s : sources) {
      const auto tree = cache.get(s);
      ASSERT_TRUE(tree) << "round " << round << " source " << s;
      const auto oracle = sssp::dijkstra(fresh, s);
      ASSERT_EQ(std::memcmp(tree->dist.data(), oracle.dist.data(), 36 * sizeof(int)), 0)
          << "round " << round << " source " << s;
    }
  }
  // The whole point: incremental maintenance re-ran far fewer searches
  // than recompute-everything-every-round would have.
  EXPECT_LT(total_recomputed, 8u * sources.size());
}

TEST(ResultCache, RebuildComponentsDoesNotInvalidate) {
  const auto el = random_digraph<int>(24, 0.1, 911);
  const AdjacencyArray<int> base(el);
  DynamicOverlay<int> overlay(base);
  ResultCache<int> cache(overlay);
  parallel::TaskPool pool(2);
  std::vector<vertex_t> sources(24);
  std::iota(sources.begin(), sources.end(), vertex_t{0});
  ASSERT_TRUE(overlay.remove_edge(el.edges()[0].from, el.edges()[0].to));
  (void)cache.ensure(sources, pool);
  overlay.rebuild_components();
  const auto report = cache.ensure(sources, pool);
  EXPECT_EQ(report.hits, sources.size());
  EXPECT_EQ(report.recomputed, 0u);
}

// ------------------------------------------------- instrumented counters

#if defined(CACHEGRAPH_INSTRUMENT)
TEST(QueryCounters, RequestKindsEarlyExitsAndWorkingSetBounds) {
  auto& reg = obs::CounterRegistry::instance();
  reg.reset();
  const auto el = random_digraph<int>(200, 0.03, 77077);
  const AdjacencyArray<int> rep(el);
  QueryEngine<AdjacencyArray<int>> engine(rep);
  parallel::TaskPool pool(2);
  const std::vector<Request<int>> reqs{FullSSSP{0}, KNearest{0, 5}, Bounded<int>{0, 2},
                                       PointToPoint{0, 1}};
  const auto resp = engine.run(reqs, pool);
  EXPECT_EQ(reg.value("query.runs"), 1u);
  EXPECT_EQ(reg.value("query.requests.full_sssp"), 1u);
  EXPECT_EQ(reg.value("query.requests.k_nearest"), 1u);
  EXPECT_EQ(reg.value("query.requests.bounded"), 1u);
  EXPECT_EQ(reg.value("query.requests.point_to_point"), 1u);
  // query.settled sums all four searches; the early-exiting three must
  // keep it well under four full sweeps.
  std::uint64_t sum = 0;
  for (const auto& r : resp) sum += r.settled;
  EXPECT_EQ(reg.value("query.settled"), sum);
  EXPECT_LT(reg.value("query.settled"), 4 * resp[0].settled);
  EXPECT_EQ(reg.value("query.early_exits"), engine.stats().early_exits);
  EXPECT_GT(reg.value("query.relaxations"), 0u);
  EXPECT_EQ(reg.value("query.stale_pops"), 0u);  // indexed queue never pops stale
}

TEST(QueryCounters, LazyQueueReportsStalePops) {
  auto& reg = obs::CounterRegistry::instance();
  reg.reset();
  const auto el = random_digraph<int>(80, 0.2, 1999);
  const AdjacencyArray<int> rep(el);
  QueryEngine<AdjacencyArray<int>, LazyQueue<int>> engine(rep);
  for (vertex_t s = 0; s < 10; ++s) (void)engine.full(s).dist;
  EXPECT_GT(reg.value("query.stale_pops"), 0u);  // dense graph: duplicates certain
  // The O(E) entry high-water of the lazy queue is recorded per search
  // (max across the batch); stale pops certify duplicates existed, so
  // the peak must exceed the plain frontier's minimum of one.
  EXPECT_GT(reg.value("query.lazy.peak_entries"), 1u);
}

TEST(QueryCounters, CacheAndOverlayCounters) {
  auto& reg = obs::CounterRegistry::instance();
  reg.reset();
  EdgeListGraph<int> el(6);
  el.add_edge(0, 1, 1);
  el.add_edge(3, 4, 1);
  const AdjacencyArray<int> base(el);
  DynamicOverlay<int> overlay(base);
  ResultCache<int> cache(overlay);
  parallel::TaskPool pool(2);
  const std::vector<vertex_t> sources{0, 3};
  (void)cache.ensure(sources, pool);
  (void)cache.ensure(sources, pool);
  overlay.insert_edge(1, 0, 2);
  (void)cache.ensure(sources, pool);
  EXPECT_EQ(reg.value("query.cache.misses"), 2u);
  EXPECT_EQ(reg.value("query.cache.hits"), 3u);           // 2 + untouched source 3
  EXPECT_EQ(reg.value("query.cache.invalidations"), 1u);  // source 0 after insert
  EXPECT_EQ(reg.value("query.overlay.inserts"), 1u);
  overlay.rebuild_components();
  EXPECT_EQ(reg.value("query.overlay.rebuilds"), 1u);
}
#endif

// ------------------------------- hardened surface: every status path
//
// Exhaustive coverage of the closed status set through the public
// API: OK, INVALID_ARGUMENT, DEADLINE_EXCEEDED (including the
// deadline-at-zero edge), CANCELLED (before start, mid-search, and
// mid-batch), OVERLOADED (admission reject), RESOURCE_EXHAUSTED
// (scratch pool at capacity). DATA_LOSS is a persistence-layer code —
// reliability_test covers it against the snapshot format.

using reliability::CancelToken;
using reliability::Deadline;
using reliability::StatusCode;

using IntEngine = QueryEngine<AdjacencyArray<int>>;

TEST(QueryStatus, OkAnswersCarryOkStatusOnBothSurfaces) {
  EdgeListGraph<int> el(3);
  el.add_edge(0, 1, 2);
  el.add_edge(1, 2, 2);
  const AdjacencyArray<int> rep(el);
  IntEngine engine(rep);
  const auto r = engine.try_serve(Request<int>{PointToPoint{0, 2}});
  EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_EQ(r.outcome, Outcome::target_settled);
  EXPECT_EQ(r.target_dist, 4);

  parallel::TaskPool pool(2);
  const std::vector<Request<int>> reqs{FullSSSP{0}, KNearest{0, 2}};
  for (const auto& resp : engine.try_run(reqs, pool)) {
    EXPECT_TRUE(resp.status.is_ok()) << resp.status.to_string();
  }
}

TEST(QueryStatus, InvalidArgumentsResolveWithoutThrowing) {
  const auto el = random_digraph<int>(10, 0.2, 3);
  const AdjacencyArray<int> rep(el);
  IntEngine engine(rep);
  parallel::TaskPool pool(1);
  const std::vector<Request<int>> bad{
      PointToPoint{-1, 2},          // source below range
      PointToPoint{99, 2},          // source above range
      PointToPoint{0, 99},          // target out of range
      KNearest{0, 0},               // k < 1
      Bounded<int>{0, -5},          // negative radius
  };
  for (const auto& req : bad) {
    const auto r = engine.try_serve(req);
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument) << r.status.to_string();
    EXPECT_EQ(r.settled, 0u);
  }
  const auto out = engine.try_run(bad, pool);
  for (const auto& r : out) {
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  }
  // The legacy surface still treats the same requests as programmer
  // errors (existing callers rely on the throw).
  EXPECT_THROW((void)engine.distance(-1, 2), PreconditionError);
}

TEST(QueryStatus, DeadlineAtZeroSettlesNothing) {
  const auto el = random_digraph<int>(100, 0.05, 5);
  const AdjacencyArray<int> rep(el);
  IntEngine engine(rep);
  IntEngine::ServeOptions opts;
  opts.deadline = Deadline::after(std::chrono::nanoseconds{0});
  std::uint64_t sink_settled = 99;
  const auto r = engine.try_serve(Request<int>{FullSSSP{0}}, opts,
                                  [&](const IntEngine::Response& resp, const auto&) {
                                    sink_settled = resp.settled;
                                  });
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded) << r.status.to_string();
  EXPECT_EQ(r.outcome, Outcome::deadline_exceeded);
  EXPECT_EQ(r.settled, 0u) << "the entry poll must fire before any work";
  EXPECT_EQ(sink_settled, 0u);
}

TEST(QueryStatus, CancelBeforeStartSettlesNothing) {
  const auto el = random_digraph<int>(100, 0.05, 7);
  const AdjacencyArray<int> rep(el);
  IntEngine engine(rep);
  CancelToken token;
  token.cancel();
  IntEngine::ServeOptions opts;
  opts.cancel = &token;
  const auto r = engine.try_serve(Request<int>{FullSSSP{0}}, opts);
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled) << r.status.to_string();
  EXPECT_EQ(r.settled, 0u);

  // Batch flavour: a pre-cancelled batch token resolves every request
  // CANCELLED on the submitting thread.
  parallel::TaskPool pool(2);
  const std::vector<Request<int>> reqs{FullSSSP{0}, KNearest{1, 3}, PointToPoint{2, 3}};
  const auto out = engine.try_run(reqs, pool, opts);
  for (const auto& resp : out) {
    EXPECT_EQ(resp.status.code(), StatusCode::kCancelled);
    EXPECT_EQ(resp.settled, 0u);
  }
}

TEST(QueryStatus, MidSearchCancelStopsAtAPollAndKeepsAnExactPrefix) {
  // A long path graph: the search settles vertices in line order, so a
  // cancel from another thread lands mid-run with near-certainty; the
  // invariant checked is prefix exactness, not the stopping point.
  constexpr vertex_t n = 200'000;
  EdgeListGraph<int> el(n);
  for (vertex_t v = 0; v + 1 < n; ++v) el.add_edge(v, v + 1, 1);
  const AdjacencyArray<int> rep(el);
  IntEngine engine(rep);
  CancelToken token;
  IntEngine::ServeOptions opts;
  opts.cancel = &token;
  opts.check_every = 64;
  std::thread canceller([&token] { token.cancel(); });
  const auto r = engine.try_serve(
      Request<int>{FullSSSP{0}}, opts, [&](const IntEngine::Response& resp, const auto& sc) {
        // Every settled distance in the prefix is exact: on the path
        // graph dist(v) == v.
        std::uint64_t checked = 0;
        for (const vertex_t v : sc.settled_order()) {
          ASSERT_EQ(sc.dist()[static_cast<std::size_t>(v)], v);
          ++checked;
        }
        EXPECT_EQ(checked, resp.settled);
      });
  canceller.join();
  EXPECT_TRUE(r.status.code() == StatusCode::kCancelled || r.status.is_ok())
      << r.status.to_string();
  if (r.status.code() == StatusCode::kCancelled) {
    EXPECT_EQ(r.outcome, Outcome::cancelled);
    EXPECT_LT(r.settled, static_cast<std::uint64_t>(n));
  }
}

TEST(QueryStatus, CancelMidBatchResolvesTheRestCancelled) {
  constexpr vertex_t n = 20'000;
  EdgeListGraph<int> el(n);
  for (vertex_t v = 0; v + 1 < n; ++v) el.add_edge(v, v + 1, 1);
  const AdjacencyArray<int> rep(el);
  IntEngine engine(rep);
  parallel::TaskPool pool(1);
  const std::vector<Request<int>> reqs(16, Request<int>{FullSSSP{0}});
  CancelToken batch;
  IntEngine::ServeOptions opts;
  opts.cancel = &batch;
  opts.check_every = 16;
  // Every delivery cancels the batch: the first request(s) to finish
  // resolve OK, everything after the flag fires resolves CANCELLED at
  // its entry poll (or at preflight). At most two executors run
  // concurrently here (one worker + the waiting submitter), so at
  // least 14 of 16 must be CANCELLED.
  int ok = 0, cancelled_n = 0;
  engine.try_run(std::span<const Request<int>>(reqs), pool, opts,
                 [&](std::size_t, const Request<int>&, const IntEngine::Response& r,
                     const auto&) {
                   batch.cancel();
                   if (r.status.is_ok()) ++ok;
                   if (r.status.code() == StatusCode::kCancelled) ++cancelled_n;
                 });
  EXPECT_EQ(ok + cancelled_n, 16);
  EXPECT_GE(cancelled_n, 14);
  EXPECT_GE(ok, 1) << "something must have finished to fire the cancel";
}

TEST(QueryStatus, BatchDeadlineBoundsEveryRequest) {
  constexpr vertex_t n = 50'000;
  EdgeListGraph<int> el(n);
  for (vertex_t v = 0; v + 1 < n; ++v) el.add_edge(v, v + 1, 1);
  const AdjacencyArray<int> rep(el);
  IntEngine engine(rep);
  parallel::TaskPool pool(2);
  const std::vector<Request<int>> reqs(12, Request<int>{FullSSSP{0}});
  IntEngine::ServeOptions opts;
  opts.deadline = Deadline::after(std::chrono::microseconds{200});
  opts.check_every = 16;
  const auto out = engine.try_run(reqs, pool, opts);
  int timed_out = 0;
  for (const auto& r : out) {
    ASSERT_TRUE(r.status.is_ok() || r.status.code() == StatusCode::kDeadlineExceeded)
        << r.status.to_string();
    if (!r.status.is_ok()) ++timed_out;
  }
  EXPECT_GT(timed_out, 0) << "a 200us budget cannot cover 12 full 50k-vertex sweeps";
}

TEST(QueryStatus, AdmissionRejectResolvesOverloaded) {
  constexpr vertex_t n = 60'000;
  EdgeListGraph<int> el(n);
  for (vertex_t v = 0; v + 1 < n; ++v) el.add_edge(v, v + 1, 1);
  const AdjacencyArray<int> rep(el);
  IntEngine engine(rep);
  engine.set_admission({.max_in_flight = 1, .policy = OverloadPolicy::kReject});
  parallel::TaskPool pool(1);
  const std::vector<Request<int>> reqs(8, Request<int>{FullSSSP{0}});
  const auto out = engine.try_run(reqs, pool);
  int ok = 0, rejected = 0;
  for (const auto& r : out) {
    ASSERT_TRUE(r.status.is_ok() || r.status.code() == StatusCode::kOverloaded)
        << r.status.to_string();
    (r.status.is_ok() ? ok : rejected)++;
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(rejected, 1) << "submission outruns a 50k-vertex sweep on one slot";
  EXPECT_EQ(engine.stats().rejected, static_cast<std::uint64_t>(rejected));
}

TEST(QueryStatus, AdmissionBlockNeverRefusesAndAnswersStayExact) {
  const auto el = random_digraph<int>(300, 0.04, 11);
  const AdjacencyArray<int> rep(el);
  IntEngine engine(rep);
  engine.set_admission({.max_in_flight = 2, .policy = OverloadPolicy::kBlock});
  parallel::TaskPool pool(1);  // blocking must make progress even on one thread
  std::vector<Request<int>> reqs;
  for (vertex_t s = 0; s < 32; ++s) reqs.push_back(Request<int>{FullSSSP{s % 300}});
  const auto out = engine.try_run(reqs, pool);
  const auto oracle = sssp::dijkstra(rep, 0);
  for (const auto& r : out) {
    EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
  }
  EXPECT_EQ(out[0].settled, [&] {
    std::uint64_t c = 0;
    for (const int d : oracle.dist) c += is_inf(d) ? 0u : 1u;
    return c;
  }());
}

TEST(QueryStatus, AdmissionShedCancelsTheOldestVictim) {
  constexpr vertex_t n = 60'000;
  EdgeListGraph<int> el(n);
  for (vertex_t v = 0; v + 1 < n; ++v) el.add_edge(v, v + 1, 1);
  const AdjacencyArray<int> rep(el);
  IntEngine engine(rep);
  engine.set_admission({.max_in_flight = 1, .policy = OverloadPolicy::kShed});
  parallel::TaskPool pool(1);
  const std::vector<Request<int>> reqs(8, Request<int>{FullSSSP{0}});
  IntEngine::ServeOptions opts;
  opts.check_every = 16;  // victims must notice the shed quickly
  const auto out = engine.try_run(reqs, pool, opts);
  int ok = 0, cancelled_n = 0;
  for (const auto& r : out) {
    ASSERT_TRUE(r.status.is_ok() || r.status.code() == StatusCode::kCancelled)
        << r.status.to_string();
    (r.status.is_ok() ? ok : cancelled_n)++;
  }
  EXPECT_EQ(ok + cancelled_n, 8);
  EXPECT_GE(engine.stats().shed, 1u) << "oversubscription must have shed someone";
  EXPECT_GE(cancelled_n, 1);
}

// A rep that counts concurrent scans of vertex 0, holding each one
// open briefly — every FullSSSP{0} search scans it once, so the peak
// bounds how many requests were admitted at once from below.
namespace {
struct ConcurrencyProbeRep {
  using weight_type = int;
  const AdjacencyArray<int>* inner;
  std::atomic<int>* open;
  std::atomic<int>* peak;
  [[nodiscard]] vertex_t num_vertices() const { return inner->num_vertices(); }
  [[nodiscard]] index_t num_edges() const { return inner->num_edges(); }
  template <class Mem, class Fn>
  void for_neighbors(vertex_t u, Mem& mem, Fn&& fn) const {
    if (u == 0) {
      const int now = open->fetch_add(1) + 1;
      int seen = peak->load();
      while (now > seen && !peak->compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      open->fetch_sub(1);
    }
    inner->for_neighbors(u, mem, std::forward<Fn>(fn));
  }
  template <class Mem>
  void map_buffers(Mem& mem) const {
    inner->map_buffers(mem);
  }
  [[nodiscard]] std::size_t footprint_bytes() const { return inner->footprint_bytes(); }
};
}  // namespace

TEST(QueryStatus, AdmissionCapHoldsPerBatchOnAWidePool) {
  const auto el = random_digraph<int>(200, 0.05, 29);
  const AdjacencyArray<int> base(el);
  std::atomic<int> open{0}, peak{0};
  const ConcurrencyProbeRep rep{&base, &open, &peak};
  QueryEngine<ConcurrencyProbeRep> engine(rep);
  parallel::TaskPool pool(4);
  const std::vector<Request<int>> reqs(16, Request<int>{FullSSSP{0}});
  for (const auto policy : {OverloadPolicy::kBlock, OverloadPolicy::kReject}) {
    engine.set_admission({.max_in_flight = 2, .policy = policy});
    peak.store(0);
    const auto out = engine.try_run(reqs, pool);
    int ok = 0;
    for (const auto& r : out) {
      ASSERT_TRUE(r.status.is_ok() || r.status.code() == StatusCode::kOverloaded)
          << r.status.to_string();
      ok += r.status.is_ok() ? 1 : 0;
    }
    EXPECT_LE(peak.load(), 2) << "policy " << to_string(policy);
    EXPECT_GE(ok, 2) << "policy " << to_string(policy);
    if (policy == OverloadPolicy::kBlock) {
      EXPECT_EQ(ok, 16) << "kBlock waits, it never refuses";
    }
  }
  // Slots return to the gate: the next batch admits from zero again.
  EXPECT_EQ(engine.try_run(reqs, pool)[0].status.code(), StatusCode::kOk);
}

TEST(QueryStatus, ScratchExhaustionIsResourceExhaustedAfterRetries) {
  const auto el = random_digraph<int>(50, 0.1, 13);
  const AdjacencyArray<int> rep(el);
  IntEngine engine(rep);
  engine.set_scratch_capacity(1);
  reliability::BackoffPolicy fast;
  fast.max_attempts = 2;
  fast.initial_delay = std::chrono::microseconds{10};
  engine.set_lease_backoff(fast);
  // Deterministic exhaustion: the serve() sink holds the only scratch
  // while a nested try_serve asks for a second one.
  IntEngine::Response nested;
  engine.serve(Request<int>{FullSSSP{0}}, [&](const auto&, const auto&) {
    nested = engine.try_serve(Request<int>{FullSSSP{1}});
  });
  EXPECT_EQ(nested.status.code(), StatusCode::kResourceExhausted) << nested.status.to_string();
  EXPECT_EQ(engine.stats().lease_failures, 1u);
}

TEST(QueryStatus, ThrowingTaskResolvesCancelledAndBatchCompletes) {
  const auto el = random_digraph<int>(60, 0.1, 17);
  const AdjacencyArray<int> rep(el);
  IntEngine engine(rep);
  parallel::TaskPool pool(2);
  const std::vector<Request<int>> reqs{FullSSSP{0}, FullSSSP{1}, FullSSSP{2}};
  // A sink that throws is the one failure the engine cannot absorb
  // in-place; the contract is re-delivery with CANCELLED, never a
  // wedged batch or a lost request.
  std::vector<int> deliveries(reqs.size(), 0);
  std::vector<StatusCode> last(reqs.size(), StatusCode::kOk);
  engine.try_run(std::span<const Request<int>>(reqs), pool, {},
                 [&](std::size_t i, const Request<int>&, const IntEngine::Response& r,
                     const auto&) {
                   deliveries[static_cast<std::size_t>(i)]++;
                   last[static_cast<std::size_t>(i)] = r.status.code();
                   if (i == 1 && deliveries[1] == 1) throw std::runtime_error("sink bug");
                 });
  EXPECT_EQ(deliveries[0], 1);
  EXPECT_EQ(deliveries[2], 1);
  EXPECT_EQ(deliveries[1], 2) << "the throwing delivery is retried exactly once";
  EXPECT_EQ(last[1], StatusCode::kCancelled);
  EXPECT_TRUE(last[0] == StatusCode::kOk && last[2] == StatusCode::kOk);
}

TEST(QueryStatus, TryServeMatchesLegacyAnswersWhenNothingGoesWrong) {
  const auto el = random_digraph<int>(120, 0.05, 19);
  const AdjacencyArray<int> rep(el);
  IntEngine engine(rep);
  for (vertex_t s = 0; s < 120; s += 17) {
    const auto legacy = sssp::dijkstra(rep, s);
    for (vertex_t t = 0; t < 120; t += 23) {
      const auto r = engine.try_serve(Request<int>{PointToPoint{s, t}});
      ASSERT_TRUE(r.status.is_ok());
      EXPECT_EQ(r.target_dist, legacy.dist[static_cast<std::size_t>(t)]) << s << "->" << t;
    }
  }
}

// ----------------------------------------------- MultiTarget requests

TYPED_TEST(SearchPolicies, MultiTargetSettlesTheWholeSetExactly) {
  const auto el = random_digraph<int>(70, 0.07, 901);
  const AdjacencyArray<int> rep(el);
  QueryEngine<AdjacencyArray<int>, TypeParam> engine(rep);
  for (vertex_t s = 0; s < 70; s += 11) {
    const auto oracle = sssp::dijkstra(rep, s);
    const std::vector<vertex_t> targets{3, 17, 17, 42, 69, s};  // duplicate on purpose
    const Request<int> req{MultiTarget{s, targets}};
    const auto r = engine.try_serve(req, {}, [&](const auto& resp, const auto& sc) {
      ASSERT_TRUE(resp.status.is_ok());
      for (const vertex_t t : targets) {
        EXPECT_EQ(sc.dist()[static_cast<std::size_t>(t)],
                  oracle.dist[static_cast<std::size_t>(t)])
            << s << "->" << t;
      }
    });
    ASSERT_TRUE(r.status.is_ok());
    EXPECT_TRUE(r.outcome == Outcome::targets_settled || r.outcome == Outcome::exhausted);
  }
}

TEST(MultiTarget, StopsEarlyOnceTheSetSettles) {
  // A long path: targets near the source must not drag the search to
  // the far end.
  constexpr vertex_t n = 10'000;
  EdgeListGraph<int> el(n);
  for (vertex_t v = 0; v + 1 < n; ++v) el.add_edge(v, v + 1, 1);
  const AdjacencyArray<int> rep(el);
  IntEngine engine(rep);
  const std::vector<vertex_t> targets{5, 9, 2};
  const auto r = engine.try_serve(Request<int>{MultiTarget{0, targets}});
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.outcome, Outcome::targets_settled);
  EXPECT_EQ(r.settled, 10u);  // 0..9 settle, then the set is complete
}

TEST(MultiTarget, UnreachableTargetsExhaustWithInfiniteDistance) {
  EdgeListGraph<int> el(6);
  el.add_edge(0, 1, 2);  // 2..5 in a separate component
  el.add_edge(2, 3, 1);
  const AdjacencyArray<int> rep(el);
  IntEngine engine(rep);
  const std::vector<vertex_t> targets{1, 3};
  const auto r = engine.try_serve(Request<int>{MultiTarget{0, targets}}, {},
                                  [&](const auto& resp, const auto& sc) {
                                    ASSERT_TRUE(resp.status.is_ok());
                                    EXPECT_EQ(sc.dist()[1], 2);
                                    EXPECT_TRUE(is_inf(sc.dist()[3]));
                                  });
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.outcome, Outcome::exhausted);  // drained before 3 could settle
}

TEST(MultiTarget, ValidationRejectsEmptySetAndOutOfRangeTargets) {
  const AdjacencyArray<int> rep(EdgeListGraph<int>(4));
  IntEngine engine(rep);
  const std::vector<vertex_t> empty;
  EXPECT_EQ(engine.try_serve(Request<int>{MultiTarget{0, empty}}).status.code(),
            StatusCode::kInvalidArgument);
  const std::vector<vertex_t> oob{1, 4};
  EXPECT_EQ(engine.try_serve(Request<int>{MultiTarget{0, oob}}).status.code(),
            StatusCode::kInvalidArgument);
}

// A rep whose neighbor scan throws DataLossError at one vertex — the
// shape of an out-of-core graph hitting a corrupt block mid-search.
namespace {
struct PoisonedRep {
  using weight_type = int;
  const AdjacencyArray<int>* inner;
  vertex_t poison = kNoVertex;
  [[nodiscard]] vertex_t num_vertices() const { return inner->num_vertices(); }
  [[nodiscard]] index_t num_edges() const { return inner->num_edges(); }
  template <class Mem, class Fn>
  void for_neighbors(vertex_t u, Mem& mem, Fn&& fn) const {
    if (u == poison) throw reliability::DataLossError("poisoned block");
    inner->for_neighbors(u, mem, std::forward<Fn>(fn));
  }
  template <class Mem>
  void map_buffers(Mem& mem) const {
    inner->map_buffers(mem);
  }
  [[nodiscard]] std::size_t footprint_bytes() const { return inner->footprint_bytes(); }
};
}  // namespace

TEST(MultiTarget, TargetMarksDoNotSurviveAThrowingScan) {
  // Regression: target marks used to be erased only on the normal
  // return path, so a search aborted by a thrown DataLossError leaked
  // them into the leased scratch. The NEXT search then mis-counted
  // `pending` — settling a stale mark drained it early and the search
  // reported targets_settled while the real targets sat at inf: silent
  // data loss dressed up as an OK answer.
  constexpr vertex_t n = 100;
  EdgeListGraph<int> el(n);
  for (vertex_t v = 0; v + 1 < n; ++v) el.add_edge(v, v + 1, 1);
  const AdjacencyArray<int> rep(el);
  SearchScratch<int> sc(n);

  // First search: marks {5, 7}, then throws while scanning vertex 3 —
  // before either target settles, so both marks would leak.
  const PoisonedRep poisoned{&rep, 3};
  const std::vector<vertex_t> leaked{5, 7};
  Limits<int> lim1;
  lim1.targets = leaked;
  EXPECT_THROW((void)search<IndexedQueue<int>>(poisoned, 0, lim1, sc),
               reliability::DataLossError);

  // Second search on the SAME scratch against the healthy rep: its
  // target (90) is past the stale marks, which sit right on the path.
  const std::vector<vertex_t> real{90};
  Limits<int> lim2;
  lim2.targets = real;
  const auto out = search<IndexedQueue<int>>(rep, 0, lim2, sc);
  EXPECT_EQ(out, Outcome::targets_settled);
  EXPECT_EQ(sc.dist()[90], 90);  // stale-mark bug: inf, terminated at 5
}

// ------------------------------------ deadline-aware kBlock admission

TEST(BlockBudget, PredicateShedsAtExactlyHalfTheBudget) {
  using clock = std::chrono::steady_clock;
  const clock::time_point enter{};  // synthetic epoch
  const auto deadline = reliability::Deadline::at(enter + std::chrono::milliseconds(100));
  // Strictly before half the budget: keep blocking.
  EXPECT_FALSE(block_budget_exhausted(enter, deadline, enter));
  EXPECT_FALSE(
      block_budget_exhausted(enter, deadline, enter + std::chrono::milliseconds(49)));
  EXPECT_FALSE(block_budget_exhausted(enter, deadline,
                                      enter + std::chrono::milliseconds(50) -
                                          std::chrono::nanoseconds(1)));
  // At and past the half-way mark: shed.
  EXPECT_TRUE(
      block_budget_exhausted(enter, deadline, enter + std::chrono::milliseconds(50)));
  EXPECT_TRUE(
      block_budget_exhausted(enter, deadline, enter + std::chrono::milliseconds(99)));
}

TEST(BlockBudget, HalfIsMeasuredFromBlockEntryNotDeadlineCreation) {
  using clock = std::chrono::steady_clock;
  const clock::time_point t0{};
  const auto deadline = reliability::Deadline::at(t0 + std::chrono::milliseconds(100));
  // Blocking began at t0+60ms, so 20ms of blocking spends half the
  // *remaining* 40ms budget.
  const auto enter = t0 + std::chrono::milliseconds(60);
  EXPECT_FALSE(
      block_budget_exhausted(enter, deadline, enter + std::chrono::milliseconds(19)));
  EXPECT_TRUE(
      block_budget_exhausted(enter, deadline, enter + std::chrono::milliseconds(20)));
}

TEST(BlockBudget, UnarmedDeadlineNeverSheds) {
  using clock = std::chrono::steady_clock;
  const clock::time_point enter{};
  EXPECT_FALSE(block_budget_exhausted(enter, reliability::Deadline::none(),
                                      enter + std::chrono::hours(24)));
}

TEST(BlockBudget, BlockedAdmissionShedsToOverloadedAtHalfTheDeadline) {
  // The deadline is one uncontended sweep, so the half-budget shed
  // fires at ~s/2 while the slot is still held for ~s. The blocked
  // submitter only observes the shed if it gets a CPU slice inside
  // [s/2, s) — a window of width s/2 that must dwarf OS scheduling
  // granularity on a loaded single core. One sweep's duration varies
  // ~100x across build modes (instrument-off Release vs TSan), so
  // calibrate the path length: probe a warm sweep at a seed size and
  // rescale toward a target long enough that the window is wide in
  // every build.
  const auto build_path = [](vertex_t n) {
    EdgeListGraph<int> el(n);
    for (vertex_t v = 0; v + 1 < n; ++v) el.add_edge(v, v + 1, 1);
    return std::make_unique<const AdjacencyArray<int>>(el);
  };
  const auto warm_sweep = [](IntEngine& e) {
    EXPECT_TRUE(e.try_serve(Request<int>{FullSSSP{0}}).status.is_ok());  // warm scratch
    const auto c0 = std::chrono::steady_clock::now();
    EXPECT_TRUE(e.try_serve(Request<int>{FullSSSP{0}}).status.is_ok());
    return std::max<std::chrono::steady_clock::duration>(
        std::chrono::steady_clock::now() - c0, std::chrono::milliseconds(1));
  };
  constexpr auto kTargetSweep = std::chrono::milliseconds(80);
  vertex_t n = 1 << 18;
  auto rep = build_path(n);
  {
    IntEngine probe(*rep);
    const auto s0 = warm_sweep(probe);
    if (s0 < kTargetSweep) {
      const double scale =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(kTargetSweep).count()) /
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(s0).count());
      n = static_cast<vertex_t>(static_cast<double>(n) * std::min(scale, 48.0));
      rep = build_path(n);
    }
  }
  IntEngine engine(*rep);
  engine.set_admission({.max_in_flight = 1, .policy = OverloadPolicy::kBlock});
  parallel::TaskPool pool(2);
  const auto sweep = warm_sweep(engine);

  // The blocked submitter participates through pool.help_one(), so on
  // a quiet pool it drains its own predecessor and unblocks before the
  // shed can ever fire. Hot external drainers claim the queued sweep
  // first, which is exactly the production shape (other threads serve
  // the pool): the submitter then stays blocked while the sweep runs
  // elsewhere, and must shed OVERLOADED at half its remaining budget
  // rather than ride the block to a certain DEADLINE_EXCEEDED. The
  // submitter can still win the race to its own task on a given
  // attempt, so the scenario retries; the accounting invariants hold
  // on every run.
  std::atomic<bool> stop{false};
  std::vector<std::thread> drainers;
  for (int i = 0; i < 2; ++i) {
    drainers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (!pool.help_one()) std::this_thread::yield();
      }
    });
  }

  const std::vector<Request<int>> reqs(4, Request<int>{FullSSSP{0}});
  int overloaded_total = 0;
  for (int attempt = 0; attempt < 10 && overloaded_total == 0; ++attempt) {
    IntEngine::ServeOptions opts;
    opts.deadline = reliability::Deadline::after(sweep);
    const auto out = engine.try_run(reqs, pool, opts);
    int ok = 0, overloaded = 0, deadline = 0;
    for (const auto& r : out) {
      switch (r.status.code()) {
        case StatusCode::kOk: ++ok; break;
        case StatusCode::kOverloaded: ++overloaded; break;
        case StatusCode::kDeadlineExceeded: ++deadline; break;
        default: FAIL() << r.status.to_string();
      }
    }
    EXPECT_EQ(ok + overloaded + deadline, 4);
    overloaded_total += overloaded;
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : drainers) t.join();
  EXPECT_GE(overloaded_total, 1)
      << "a one-sweep budget cannot cover a queue of equal sweeps";
  EXPECT_EQ(engine.stats().deadline_rejects, static_cast<std::uint64_t>(overloaded_total));
}

TEST(BlockBudget, BlockWithoutADeadlineStillNeverRefuses) {
  const auto el = random_digraph<int>(200, 0.05, 47);
  const AdjacencyArray<int> rep(el);
  IntEngine engine(rep);
  engine.set_admission({.max_in_flight = 1, .policy = OverloadPolicy::kBlock});
  parallel::TaskPool pool(1);
  const std::vector<Request<int>> reqs(8, Request<int>{FullSSSP{0}});
  const auto out = engine.try_run(reqs, pool);
  for (const auto& r : out) EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_EQ(engine.stats().deadline_rejects, 0u);
}

}  // namespace
}  // namespace cachegraph::query
