// serve_mem_churn: in-memory serving of a graph with no locality, under
// edge churn.
//
// Random digraph, 16,384 vertices, out-degree 8, weights 1–100, on 4
// in-memory shards. Tenant `explore`: kNN (k=2048) and bounded at 1:1,
// Zipf(1.1) sources. Tenant `bulk`: full SSSP, Zipf(1.3) so identical
// asks overlap, quota 2 in flight with kBlock. Every epoch the driver
// stops dispatching, drains, applies a seeded batch of inserts and
// removes through the Router and resumes; arrivals keep their scheduled
// times, so the write pause lands in read latency. There is no p2p, so
// the portal path and the store see no work here.
#include <string>

#include "serve_common.hpp"

namespace pb {
namespace {

namespace cg = cachegraph;

// 16,384 vertices keep the working set in a core's L2. At 65,536 it
// spilled into an L3 shared with other tenants of the host, and p50_ms
// and the bulk median spread 13% and 15% across seeds.
constexpr std::int32_t kN = 16384;
constexpr int kDegree = 8;
constexpr std::uint32_t kShards = 4;
constexpr std::int32_t kK = 2048;
constexpr W kRadius = 110;
constexpr int kWorkers = 2;
constexpr int kSetupReps = 5;
constexpr double kExploreHz = 300;  // about 25% of closed-loop capacity
constexpr double kBulkHz = 8;
constexpr double kEpochS = 1.0;
constexpr int kBatch = 256;  // inserts and removes per epoch
const std::vector<double> kDeadlineMs = {1000, 3000};  // explore, bulk
constexpr std::size_t kSatCount = 40000;  // more than the closed loop can serve
enum Kind : std::uint32_t { kKnn = 0, kBounded = 1, kFull = 0 };
enum StreamId : std::uint32_t { kExplore = 0, kBulk = 1 };

const Stream kExploreMix{kExploreHz, 1.1, {1.0, 1.0}};
const Stream kBulkMix{kBulkHz, 1.3, {1.0}};
Failures failures;

cg::graph::EdgeListGraph<W> make_graph(std::uint64_t seed, Mirror& mirror) {
  Rng r(seed);
  cg::graph::EdgeListGraph<W> g(kN);
  mirror = Mirror(kN);
  for (std::int32_t u = 0; u < kN; ++u) {
    for (int d = 0; d < kDegree;) {
      const auto v = static_cast<std::int32_t>(r.below(kN));
      if (v == u || mirror.count(u, v) != 0) continue;
      const auto w = static_cast<W>(r.range(1, 100));
      g.add_edge(u, v, w);
      mirror.add(u, v, w);
      ++d;
    }
  }
  return g;
}

struct Served {
  std::unique_ptr<cg::graph::AdjacencyArray<W>> csr;
  std::unique_ptr<RouterT> router;
  std::uint32_t explore = 0, bulk = 0;
  double build_s = 0, warmup_s = 0, total_s = 0;
};

bool serve(RouterT& r, const Served& sv, const Arrival& a, Clock::time_point due,
           RouterT::TreePtr* keep = nullptr) {
  cg::serving::CallOptions o;
  o.deadline = cg::reliability::Deadline::at(
      due + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(kDeadlineMs[a.stream])));
  if (a.stream == kBulk) {
    auto res = r.try_serve(sv.bulk, cg::query::Request<W>{cg::query::FullSSSP{a.a}}, o);
    if (keep != nullptr && res.status.is_ok()) *keep = res.tree;
    return failures.ok(res.status);
  }
  const auto req = a.kind == kKnn ? cg::query::Request<W>{cg::query::KNearest{a.a, kK}}
                                  : cg::query::Request<W>{cg::query::Bounded<W>{a.a, kRadius}};
  return failures.ok(r.try_serve(sv.explore, req, o).status);
}

/// One set-up from generated inputs to ready: CSR, Router, and a
/// warm-up in which every worker thread serves 64 explore and 4 bulk
/// requests, so scratch pools and page mappings reach steady state.
Served set_up(Context& ctx, const cg::graph::EdgeListGraph<W>& edges, int rep) {
  Served s;
  Tracer& tr = ctx.tracer;
  const auto id = static_cast<std::uint64_t>(rep);
  auto reqs = draw_requests(kExploreMix, kExplore, kN, 64 * kWorkers, 0, derive(ctx.args.seed, 600));
  for (auto b : draw_requests(kBulkMix, kBulk, kN, 4 * kWorkers, 0, derive(ctx.args.seed, 601))) {
    reqs.push_back(b);
  }
  const auto t0 = Clock::now();
  const auto root = tr.open(0, "driver.setup", t0, id);
  timed(tr, 0, "graph.csr", id, root,
        [&] { s.csr = std::make_unique<cg::graph::AdjacencyArray<W>>(edges); });
  s.build_s = timed(tr, 0, "serving.build", id, root, [&] {
    RouterT::Config cfg;
    cfg.shards = kShards;
    cfg.shard_pool_threads = 1;
    s.router = std::make_unique<RouterT>(*s.csr, cfg);
    s.explore = s.router->add_tenant("explore", {16, cg::query::OverloadPolicy::kReject});
    s.bulk = s.router->add_tenant("bulk", {2, cg::query::OverloadPolicy::kBlock});
  }) / 1e3;
  s.warmup_s = timed(tr, 0, "serving.warmup", id, root, [&] {
    const auto cl = run_closed_loop(reqs.size(), kWorkers, 0, [&](std::size_t i, int) {
      return serve(*s.router, s, reqs[i], Clock::now());
    });
    if (cl.ok != reqs.size()) throw std::runtime_error("warm-up request failed");
  }) / 1e3;
  const auto t1 = Clock::now();
  tr.close(0, root, t1);
  s.total_s = secs(t1 - t0);
  return s;
}

/// Seeded edge churn, mirrored: inserts of absent edges and removes of
/// edges present exactly once, so the mirror and the Router agree on
/// which edge a remove takes.
struct Churn {
  Mirror& mirror;
  RouterT& router;
  Tracer& tr;
  std::vector<double> batch_ms, insert_us, remove_us;

  void apply(std::uint64_t seed, std::uint64_t epoch) {
    Rng r(seed);
    const auto t0 = Clock::now();
    const auto root = tr.open(0, "serving.write_batch", t0, epoch);
    for (int i = 0; i < kBatch; ++i) {
      std::int32_t u = 0;
      std::int32_t v = 0;
      do {
        u = static_cast<std::int32_t>(r.below(kN));
        v = static_cast<std::int32_t>(r.below(kN));
      } while (u == v || mirror.count(u, v) != 0);
      const auto w = static_cast<W>(r.range(1, 100));
      insert_us.push_back(1e3 * timed(tr, 0, "serving.insert_edge", epoch, root,
                                      [&] { router.insert_edge(u, v, w); }));
      mirror.add(u, v, w);
    }
    for (int i = 0; i < kBatch; ++i) {
      std::int32_t u = 0;
      std::int32_t v = 0;
      do {
        u = static_cast<std::int32_t>(r.below(kN));
        const auto& row = mirror.adj[static_cast<std::size_t>(u)];
        v = row.empty() ? u : row[r.below(row.size())].to;
      } while (u == v || mirror.count(u, v) != 1);
      bool removed = false;
      remove_us.push_back(1e3 * timed(tr, 0, "serving.remove_edge", epoch, root,
                                      [&] { removed = router.remove_edge(u, v); }));
      expect(removed, "remove_edge missed a live edge");
      mirror.remove(u, v);
    }
    const auto t1 = Clock::now();
    tr.close(0, root, t1);
    batch_ms.push_back(msecs(t1 - t0));
  }
};

}  // namespace

void run_serve_mem_churn(Context& ctx) {
  const std::uint64_t seed = ctx.args.seed;
  Report& rep = ctx.report;

  Mirror mirror;
  const auto edges = make_graph(derive(seed, 2), mirror);

  std::vector<double> total, build, warm;
  Served sv;
  for (int r = 0; r < kSetupReps; ++r) {
    sv = Served{};
    sv = set_up(ctx, edges, r);
    std::fprintf(stderr, "setup %d: %.3f s (build %.4f warm-up %.4f)\n", r, sv.total_s,
                 sv.build_s, sv.warmup_s);
    total.push_back(sv.total_s);
    build.push_back(sv.build_s);
    warm.push_back(sv.warmup_s);
  }
  RouterT& router = *sv.router;
  Churn churn{mirror, router, ctx.tracer, {}, {}, {}};
  std::uint64_t epochs = 0;
  std::size_t checked = 0;

  // Oracle sample for one epoch, taken at its drain while the graph is
  // still the one those requests saw: the first bulk tree served in the
  // window, and the first kNN and bounded source re-asked through the
  // typed helpers.
  std::vector<RouterT::NearItem> items;
  const auto check_window = [&](const std::vector<Arrival>& sched,
                                const std::vector<RouterT::TreePtr>& trees, double from_s,
                                double to_s) {
    bool bulk = false, knn = false, bounded = false;
    for (std::size_t i = 0; i < sched.size(); ++i) {
      const Arrival& a = sched[i];
      if (a.at_s < from_s || a.at_s >= to_s) continue;
      if (a.stream == kBulk && !bulk && trees[i] != nullptr) {
        const auto d = dijkstra(mirror, a.a);
        for (std::size_t v = 0; v < d.size(); ++v) {
          const W got = trees[i]->dist[v];
          expect((cg::is_inf(got) ? kUnreached : got) == d[v],
                 "full SSSP from " + std::to_string(a.a) + " wrong at " + std::to_string(v));
        }
        bulk = true;
      } else if (a.stream == kExplore && a.kind == kKnn && !knn) {
        expect(router.k_nearest(a.a, kK, items).is_ok(), "k_nearest failed in the oracle check");
        check_nearest(dijkstra(mirror, a.a), kK, items, "knn from " + std::to_string(a.a));
        knn = true;
      } else if (a.stream == kExplore && a.kind == kBounded && !bounded) {
        expect(router.within(a.a, kRadius, items).is_ok(), "within failed in the oracle check");
        check_within(dijkstra(mirror, a.a), kRadius, items, "bounded from " + std::to_string(a.a));
        bounded = true;
      }
      if (bulk && knn && bounded) break;
    }
    checked += bulk + knn + bounded;
  };

  struct Phase {
    std::vector<Arrival> sched;
    OpenLoopResult res;
  };
  const auto run_phase = [&](double seconds, std::uint64_t label, Tracer& tr) {
    Phase p;
    p.sched = make_schedule({kExploreMix, kBulkMix}, kN, seconds, derive(seed, label));
    std::vector<RouterT::TreePtr> trees(p.sched.size());
    std::vector<char> keep(p.sched.size(), 0);
    for (double w = 0; w < seconds; w += kEpochS) {  // first bulk request per window
      for (std::size_t i = 0; i < p.sched.size(); ++i) {
        if (p.sched[i].stream == kBulk && p.sched[i].at_s >= w) {
          keep[i] = 1;
          break;
        }
      }
    }
    int window = 0;
    p.res = run_open_loop(
        p.sched, kWorkers, kEpochS, tr,
        [&](std::size_t i, int, Clock::time_point due) {
          return serve(router, sv, p.sched[i], due, keep[i] ? &trees[i] : nullptr);
        },
        [&](int) {
          const auto t0 = Clock::now();
          check_window(p.sched, trees, window * kEpochS, (window + 1) * kEpochS);
          ++window;
          const double excluded = secs(Clock::now() - t0);
          churn.apply(derive(seed, 1000 + epochs), epochs);
          ++epochs;
          return excluded;
        },
        [&](std::size_t i) {
          const Arrival& a = p.sched[i];
          return a.stream == kBulk ? "serving.full"
                 : a.kind == kKnn  ? "serving.knn"
                                   : "serving.bounded";
        });
    check_window(p.sched, trees, window * kEpochS, seconds + 1);
    return p;
  };
  const auto second_p50 = [](const Phase& p) { return median(latencies(p.sched, p.res, kBulk)); };

  const std::uint64_t steal0 = steal_ticks();
  Tracer off(false, 0);
  if (!ctx.args.trace) {
    // Two thirds of the time open loop, then closed-loop capacity of the
    // explore mix for the rest.
    const Phase p = run_phase(ctx.args.seconds * 2 / 3, 10, off);
    const auto sat = draw_requests(kExploreMix, kExplore, kN, kSatCount, 0, derive(seed, 20));
    const auto cl = run_closed_loop(sat.size(), kWorkers, ctx.args.seconds / 3,
                                    [&](std::size_t i, int) {
                                      return serve(router, sv, sat[i], Clock::now());
                                    });
    check_window(sat, std::vector<RouterT::TreePtr>(sat.size()), 0, 1);
    emit_serve_e2e(rep, p.sched, p.res, kExplore, kDeadlineMs, median(total),
                   static_cast<double>(cl.ok) / cl.wall_s, second_p50(p));
    emit_driver_layer(rep, p.sched, p.res, kExplore);
    rep.note("driver.max_threads", std::max(p.res.max_threads, cl.max_threads));
    expect(std::max(p.res.max_threads, cl.max_threads) <= ctx.cores, "more threads than cores");
  } else {
    const Phase plain = run_phase(ctx.args.seconds / 2, 10, off);
    const double plain_p50 = median(latencies(plain.sched, plain.res, kExplore));
    churn.batch_ms.clear();
    churn.insert_us.clear();
    churn.remove_us.clear();
    const Layers a = Layers::take(router, sv.explore);
    const Layers bulk_a = Layers::take(router, sv.bulk);
    const Phase p = run_phase(ctx.args.seconds / 2, 11, ctx.tracer);
    const Layers b = Layers::take(router, sv.explore);
    const Layers bulk_b = Layers::take(router, sv.bulk);
    rep.attempted = plain.sched.size() + p.sched.size();
    emit_driver_layer(rep, p.sched, p.res, kExplore);
    rep.metric("driver.drain_ms", median(p.res.drain_ms), "ms");
    const auto call = [](const Rec& r) { return r.call_ms; };
    const auto is = [](std::uint32_t s, std::uint32_t k) {
      return [s, k](const Arrival& x) { return x.stream == s && x.kind == k; };
    };
    rep.metric("serving.knn_call_ms", median_of(p.sched, p.res, is(kExplore, kKnn), call), "ms");
    rep.metric("serving.bounded_call_ms", median_of(p.sched, p.res, is(kExplore, kBounded), call),
               "ms");
    rep.metric("serving.full_call_ms", median_of(p.sched, p.res, is(kBulk, kFull), call), "ms");
    const double joined = static_cast<double>(b.co_joined - a.co_joined);
    rep.metric("serving.coalesce_join_ratio",
               ratio(joined, joined + static_cast<double>(b.co_computes - a.co_computes)), "ratio");
    rep.metric("serving.write_batch_ms", median(churn.batch_ms), "ms");
    rep.metric("serving.insert_call_us", median(churn.insert_us), "us");
    rep.metric("serving.remove_call_us", median(churn.remove_us), "us");
    // Tenant counts cover both tenants; engine and pq counts are global.
    Layers ab = a, bb = b;
    ab.tenant_requests += bulk_a.tenant_requests;
    ab.tenant_overloaded += bulk_a.tenant_overloaded;
    bb.tenant_requests += bulk_b.tenant_requests;
    bb.tenant_overloaded += bulk_b.tenant_overloaded;
    emit_common_layers(rep, ab, bb);
    rep.metric("serving.build_s", median(build), "s");
    rep.metric("serving.warmup_s", median(warm), "s");
    rep.metric("trace.overhead_frac",
               median(latencies(p.sched, p.res, kExplore)) / plain_p50 - 1.0, "ratio");
    expect(p.res.max_threads <= ctx.cores, "more threads than cores");
  }
  rep.note("driver.steal_ticks", static_cast<double>(steal_ticks() - steal0));
  rep.note("churn.epochs", static_cast<double>(epochs));
  failures.note(rep);
  rep.note("oracle.checked", static_cast<double>(checked));
  expect(checked > 0, "no answer was checked");
}

}  // namespace pb
