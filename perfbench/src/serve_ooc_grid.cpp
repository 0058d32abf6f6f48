// serve_ooc_grid: a road-like grid served out of core.
//
// 96×96 4-neighbour grid, weights 1–100, on 4 shards × 2 replicas with
// the blocked on-disk mirror (4 KiB blocks, a frame budget of about half
// of each shard file). One open-loop tenant, `interactive`: Poisson
// arrivals, Zipf(1.1) sources, p2p:kNN(k=16) = 3:1. Point-to-point runs
// the Router's portal search, and its source probes read through the
// BlockCache, so the serving portal path and store faults carry this
// workload.
#include <filesystem>
#include <string>
#include <unistd.h>

#include "serve_common.hpp"

namespace pb {
namespace {

namespace cg = cachegraph;

constexpr std::int32_t kSide = 96;
constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kReplicas = 2;
constexpr std::size_t kBlockBytes = 4096;
constexpr std::int32_t kK = 16;
constexpr int kWorkers = 2;
constexpr int kSetupReps = 3;
constexpr double kRateHz = 125;  // about 40% of closed-loop capacity
constexpr double kDeadlineMs = 1000;  // far past any host stall seen
constexpr std::size_t kSatCount = 20000;  // more than the closed loop can serve
constexpr std::size_t kSweep = 64;  // p2p requests per warm-up sweep
constexpr std::size_t kMaxSweeps = 64;
constexpr W kUnanswered = -1;  // failed requests count in good_frac, not here
enum Kind : std::uint32_t { kP2p = 0, kKnn = 1 };

const Stream kInteractive{kRateHz, 1.1, {3.0, 1.0}};

cg::graph::EdgeListGraph<W> make_grid(std::uint64_t seed, Mirror& mirror) {
  Rng r(seed);
  const std::int32_t n = kSide * kSide;
  cg::graph::EdgeListGraph<W> g(n);
  mirror = Mirror(n);
  for (std::int32_t y = 0; y < kSide; ++y) {
    for (std::int32_t x = 0; x < kSide; ++x) {
      const std::int32_t u = y * kSide + x;
      const std::int32_t nb[4][2] = {{x + 1, y}, {x - 1, y}, {x, y + 1}, {x, y - 1}};
      for (const auto& p : nb) {
        if (p[0] < 0 || p[0] >= kSide || p[1] < 0 || p[1] >= kSide) continue;
        const std::int32_t v = p[1] * kSide + p[0];
        const auto w = static_cast<W>(r.range(1, 100));
        g.add_edge(u, v, w);
        mirror.add(u, v, w);
      }
    }
  }
  return g;
}

/// Frames per shard: about half the blocks its file will hold (whole
/// 8-byte neighbour records, a 32-byte header per block).
std::size_t block_budget(const Mirror& m) {
  const cg::serving::Partition part(m.n(), kShards);
  std::size_t max_records = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    std::size_t rec = 0;
    for (std::int32_t v = part.begin(s); v < part.begin(s) + part.size(s); ++v) {
      for (const auto& e : m.adj[static_cast<std::size_t>(v)]) rec += part.shard_of(e.to) == s;
    }
    max_records = std::max(max_records, rec);
  }
  const std::size_t per_block = (kBlockBytes - 32) / 8;
  return std::max<std::size_t>(2, (max_records + per_block - 1) / per_block / 2);
}

struct Served {
  std::unique_ptr<RouterT> router;
  std::uint32_t tenant = 0;
  double build_s = 0, write_s = 0, warmup_s = 0, total_s = 0;
  int sweeps = 0;
};

std::uint64_t recomputes(RouterT& r) {
  std::uint64_t n = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (std::uint32_t k = 0; k < kReplicas; ++k) {
      n += r.replica_set(s).replica(k).cache().stats().recomputes;
    }
  }
  return n;
}

/// One set-up from generated inputs to ready: CSR, Router, durable
/// out-of-core write, and warm-up sweeps until one sweep recomputes no
/// ResultCache tree.
Served set_up(Context& ctx, const cg::graph::EdgeListGraph<W>& edges, std::size_t budget,
              const std::vector<Arrival>& sweeps, const std::filesystem::path& dir, int rep) {
  Served s;
  Tracer& tr = ctx.tracer;
  const auto id = static_cast<std::uint64_t>(rep);
  const auto t0 = Clock::now();
  const auto root = tr.open(0, "driver.setup", t0, id);
  std::unique_ptr<cg::graph::AdjacencyArray<W>> csr;
  timed(tr, 0, "graph.csr", id, root,
        [&] { csr = std::make_unique<cg::graph::AdjacencyArray<W>>(edges); });
  s.build_s = timed(tr, 0, "serving.build", id, root, [&] {
    RouterT::Config cfg;
    cfg.shards = kShards;
    cfg.replicas = kReplicas;
    cfg.shard_pool_threads = 1;
    s.router = std::make_unique<RouterT>(*csr, cfg);
    s.tenant = s.router->add_tenant("interactive", {8, cg::query::OverloadPolicy::kReject});
  }) / 1e3;
  s.write_s = timed(tr, 0, "store.write", id, root, [&] {
    const auto st = s.router->enable_out_of_core(dir, kBlockBytes, budget);
    if (!st.is_ok()) throw std::runtime_error("enable_out_of_core: " + st.to_string());
  }) / 1e3;
  s.warmup_s = timed(tr, 0, "serving.warmup", id, root, [&] {
    for (std::size_t from = 0; from < sweeps.size(); from += kSweep) {
      const std::uint64_t before = recomputes(*s.router);
      for (std::size_t i = from; i < from + kSweep; ++i) {
        const auto r = s.router->try_serve(
            s.tenant, cg::query::Request<W>{cg::query::PointToPoint{sweeps[i].a, sweeps[i].b}});
        if (!r.status.is_ok()) throw std::runtime_error("warm-up p2p failed");
      }
      ++s.sweeps;
      if (recomputes(*s.router) == before) break;
    }
  }) / 1e3;
  const auto t1 = Clock::now();
  tr.close(0, root, t1);
  s.total_s = secs(t1 - t0);
  return s;
}

}  // namespace

void run_serve_ooc_grid(Context& ctx) {
  const std::uint64_t seed = ctx.args.seed;
  Report& rep = ctx.report;

  // Inputs (not timed).
  Mirror mirror;
  const auto edges = make_grid(derive(seed, 1), mirror);
  const std::size_t budget = block_budget(mirror);
  const auto sweeps = draw_requests(kInteractive, 0, kSide * kSide, kSweep * kMaxSweeps, 0,
                                    derive(seed, 500));
  const auto base = std::filesystem::path(ctx.args.out_dir) /
                    ("ooc-" + std::to_string(::getpid()));

  // Set-up, several times; the median is setup_s and the last one serves.
  std::vector<double> total, build, write, warm;
  Served sv;
  for (int r = 0; r < kSetupReps; ++r) {
    sv = Served{};  // drop the previous Router before its files go
    std::filesystem::remove_all(base);
    sv = set_up(ctx, edges, budget, sweeps, base / std::to_string(r), r);
    std::fprintf(stderr, "setup %d: %.3f s (write %.4f warm-up %.4f, %d sweeps)\n", r,
                 sv.total_s, sv.write_s, sv.warmup_s, sv.sweeps);
    total.push_back(sv.total_s);
    build.push_back(sv.build_s);
    write.push_back(sv.write_s);
    warm.push_back(sv.warmup_s);
  }
  RouterT& router = *sv.router;
  std::size_t file_blocks = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    file_blocks = std::max<std::size_t>(file_blocks, router.shard(s).ooc_file()->num_blocks());
  }
  rep.note("grid.block_budget", static_cast<double>(budget));
  rep.note("grid.max_shard_file_blocks", static_cast<double>(file_blocks));
  rep.note("grid.warmup_sweeps", sv.sweeps);

  // Requests and their answers; the oracle checks them after timing.
  Failures failures;
  const auto serve_one = [&](const Arrival& a, std::size_t slot, Clock::time_point due,
                             std::vector<W>& out) {
    cg::serving::CallOptions o;
    o.deadline = cg::reliability::Deadline::at(
        due + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(kDeadlineMs)));
    if (a.kind == kP2p) {
      const auto r = router.try_serve(
          sv.tenant, cg::query::Request<W>{cg::query::PointToPoint{a.a, a.b}}, o);
      if (r.status.is_ok()) out[slot] = r.target_dist;
      return failures.ok(r.status);
    }
    return failures.ok(
        router.try_serve(sv.tenant, cg::query::Request<W>{cg::query::KNearest{a.a, kK}}, o)
            .status);
  };
  const auto kind_span = [](const std::vector<Arrival>& s) {
    return [&s](std::size_t i) { return s[i].kind == kP2p ? "serving.p2p" : "serving.knn"; };
  };
  struct Checked {
    std::vector<Arrival> sched;
    std::vector<W> answers;
  };
  std::vector<Checked> phases;
  phases.reserve(3);  // references into it outlive later push_backs
  const auto run_phase = [&](double seconds, std::uint64_t label, Tracer& tr) {
    Checked c;
    c.sched = make_schedule({kInteractive}, kSide * kSide, seconds, derive(seed, label));
    c.answers.assign(c.sched.size(), kUnanswered);
    auto res = run_open_loop(
        c.sched, kWorkers, 0, tr,
        [&](std::size_t i, int, Clock::time_point due) {
          return serve_one(c.sched[i], i, due, c.answers);
        },
        [](int) { return 0.0; }, kind_span(c.sched));
    phases.push_back(std::move(c));
    return res;
  };

  const std::uint64_t steal0 = steal_ticks();
  Tracer off(false, 0);
  if (!ctx.args.trace) {
    // Two thirds of the time open loop, then closed-loop capacity on
    // the same mix for the rest.
    const auto res = run_phase(ctx.args.seconds * 2 / 3, 10, off);
    const auto& sched = phases.back().sched;
    Checked sat;
    sat.sched = draw_requests(kInteractive, 0, kSide * kSide, kSatCount, 0, derive(seed, 20));
    sat.answers.assign(sat.sched.size(), kUnanswered);
    const auto cl = run_closed_loop(sat.sched.size(), kWorkers, ctx.args.seconds / 3,
                                    [&](std::size_t i, int) {
                                      return serve_one(sat.sched[i], i, Clock::now(), sat.answers);
                                    });
    phases.push_back(std::move(sat));
    const double p2p_p50 = median(latencies(sched, res, 0, kP2p));
    emit_serve_e2e(rep, sched, res, 0, {kDeadlineMs}, median(total),
                   static_cast<double>(cl.ok) / cl.wall_s, p2p_p50);
    emit_driver_layer(rep, sched, res, 0);
    rep.note("driver.max_threads", std::max(res.max_threads, cl.max_threads));
    expect(std::max(res.max_threads, cl.max_threads) <= ctx.cores, "more threads than cores");
  } else {
    // Untraced then traced halves: per-layer numbers come from the
    // traced half, trace.overhead_frac from the two p50s.
    const auto plain = run_phase(ctx.args.seconds / 2, 10, off);
    const auto& plain_sched = phases.back().sched;
    const double plain_p50 = median(latencies(plain_sched, plain, 0));
    const Layers a = Layers::take(router, sv.tenant);
    const auto res = run_phase(ctx.args.seconds / 2, 11, ctx.tracer);
    const Layers b = Layers::take(router, sv.tenant);
    const auto& sched = phases.back().sched;
    rep.attempted = plain_sched.size() + sched.size();
    emit_driver_layer(rep, sched, res, 0);
    const double p2p = static_cast<double>(
        std::count_if(sched.begin(), sched.end(), [](const Arrival& x) { return x.kind == kP2p; }));
    const auto is = [](std::uint32_t k) { return [k](const Arrival& x) { return x.kind == k; }; };
    const auto call = [](const Rec& r) { return r.call_ms; };
    rep.metric("serving.p2p_call_ms", median_of(sched, res, is(kP2p), call), "ms");
    rep.metric("serving.knn_call_ms", median_of(sched, res, is(kKnn), call), "ms");
    const auto d = [&](std::uint64_t Layers::*f) { return static_cast<double>(b.*f - a.*f); };
    const auto dr = [&](std::uint64_t RouterT::Stats::*f) {
      return static_cast<double>(b.router.*f - a.router.*f);
    };
    const double probes = dr(&RouterT::Stats::portal_probes);
    const double tree_hits = dr(&RouterT::Stats::portal_tree_hits);
    rep.metric("serving.portal_pops_per_p2p", ratio(dr(&RouterT::Stats::portal_pops), p2p), "count");
    rep.metric("serving.portal_probes_per_p2p", ratio(probes, p2p), "count");
    rep.metric("serving.portal_tree_hit_ratio", ratio(tree_hits, tree_hits + probes), "ratio");
    emit_common_layers(rep, a, b);
    rep.metric("query.result_cache_hit_ratio", ratio(d(&Layers::rc_hits), d(&Layers::rc_lookups)),
               "ratio");
    rep.metric("query.result_cache_recomputes", d(&Layers::rc_recomputes), "count");
    rep.metric("store.block_hit_ratio",
               ratio(d(&Layers::blk_hits), d(&Layers::blk_hits) + d(&Layers::blk_misses)), "ratio");
    rep.metric("store.faults_per_p2p", ratio(d(&Layers::blk_misses), p2p), "count");
    rep.metric("store.evictions_per_p2p", ratio(d(&Layers::blk_evictions), p2p), "count");
    rep.metric("store.read_mb", d(&Layers::blk_misses) * kBlockBytes / (1024.0 * 1024.0), "MiB");
    rep.note("store.read_mb", "computed as block faults x block bytes, not measured I/O");
    rep.metric("store.pinned_high_water", static_cast<double>(b.blk_pinned_hw), "count");
    expect(b.blk_pinned_hw <= budget, "block cache pinned more frames than its budget");
    rep.metric("serving.build_s", median(build), "s");
    rep.metric("serving.warmup_s", median(warm), "s");
    rep.metric("store.write_s", median(write), "s");
    rep.metric("trace.overhead_frac", median(latencies(sched, res, 0)) / plain_p50 - 1.0, "ratio");
    expect(res.max_threads <= ctx.cores, "more threads than cores");
  }
  rep.note("driver.steal_ticks", static_cast<double>(steal_ticks() - steal0));

  // Oracle (outside every timed window). p2p: all requests from a
  // sample of sources, one Dijkstra per source. kNN: a deterministic
  // sample re-asked through the typed helper.
  std::map<std::int32_t, std::vector<Dist>> oracle;
  const auto dist_from = [&](std::int32_t s) -> const std::vector<Dist>& {
    auto it = oracle.find(s);
    if (it == oracle.end()) it = oracle.emplace(s, dijkstra(mirror, s)).first;
    return it->second;
  };
  std::size_t checked = 0;
  for (const auto& ph : phases) {
    for (std::size_t i = 0; i < ph.sched.size(); ++i) {
      const Arrival& a = ph.sched[i];
      if (a.kind != kP2p || ph.answers[i] == kUnanswered ||
          (oracle.size() >= 24 && !oracle.count(a.a))) {
        continue;
      }
      const Dist want = dist_from(a.a)[static_cast<std::size_t>(a.b)];
      const Dist got = cg::is_inf(ph.answers[i]) ? kUnreached : ph.answers[i];
      expect(got == want, "p2p " + std::to_string(a.a) + "->" + std::to_string(a.b) +
                              " answered " + std::to_string(got) + ", oracle " + std::to_string(want));
      ++checked;
    }
  }
  std::size_t knn_checked = 0;
  std::vector<RouterT::NearItem> items;
  for (const auto& a : phases.front().sched) {
    if (a.kind != kKnn) continue;
    const auto st = router.k_nearest(a.a, kK, items);
    expect(st.is_ok(), "k_nearest failed during the oracle check");
    check_nearest(dist_from(a.a), kK, items, "knn from " + std::to_string(a.a));
    if (++knn_checked == 24) break;
  }
  rep.note("oracle.p2p_checked", static_cast<double>(checked));
  rep.note("oracle.knn_checked", static_cast<double>(knn_checked));
  failures.note(rep);

  sv = Served{};
  std::filesystem::remove_all(base);
}

}  // namespace pb
