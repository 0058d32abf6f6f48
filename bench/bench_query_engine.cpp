// Extension bench: the cachegraph::query serving layer.
//
// Three scenes:
//
//   1. Request-mix ladder — a realistic mix (25% each point-to-point /
//      k-nearest / bounded / full SSSP) against an all-full-SSSP batch
//      of the same size, across densities and a thread ladder. The
//      "settled" column is the early-exit working-set ratio: how much
//      of the graph the bounded shapes actually explored. The paper's
//      cache argument in one number — less settled, less working set.
//
//   2. Queue policy — the same mix under the indexed binary heap
//      (decrease-key) vs lazy deletion (duplicate entries, stale pops
//      at extraction), the Section 2 Update-vs-no-Update ablation
//      transplanted to the query path.
//
//   3. Incremental serving — a DynamicOverlay + ResultCache under
//      rounds of localized edge flaps: hit rate, invalidations, and
//      the time ensure() takes vs recomputing every source cold.
//
// Plus an overload ladder, an analytics-kind mix (PageRank / WCC /
// BFS-from-set / triangles through the same hardened batch surface,
// so their latency histograms share the scoreboard), the
// cancellation-poll overhead scene, and an open-loop traffic scene
// that drives the sharded serving::Router with a replayable Poisson
// schedule and reports per-tenant p50/p99/p99.9 (serving/traffic.hpp).
//
// All scenes honour --json/--csv/--trace like every other bench; with
// an instrumented build the mix / flap / overload scenes also print
// per-request-kind latency percentile tables from the telemetry
// histograms (and --metrics exports them).
#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cachegraph/benchlib/options.hpp"
#include "cachegraph/benchlib/report.hpp"
#include "cachegraph/benchlib/table.hpp"
#include "cachegraph/graph/adjacency_array.hpp"
#include "cachegraph/graph/generators.hpp"
#include "cachegraph/obs/metrics.hpp"
#include "cachegraph/obs/telemetry.hpp"
#include "cachegraph/parallel/task_pool.hpp"
#include "cachegraph/query/dynamic_overlay.hpp"
#include "cachegraph/query/engine.hpp"
#include "cachegraph/query/result_cache.hpp"
#include "cachegraph/serving/router.hpp"
#include "cachegraph/serving/scrubber.hpp"
#include "cachegraph/serving/traffic.hpp"

namespace {

using namespace cachegraph;

/// Per-request-kind latency percentiles accumulated since the last
/// mark(). The telemetry histograms run for the whole process, so a
/// scene isolates its own tail by diffing snapshots (the same
/// HistogramSnapshot::minus the tests oracle against).
class LatencyScoreboard {
 public:
  LatencyScoreboard() { mark(); }

  void mark() {
    for (std::uint8_t k = 0; k < obs::kNumRequestKinds; ++k) base_[k] = snap(k);
  }

  /// Prints (and re-marks) — a no-op when nothing was recorded, which
  /// is exactly the CACHEGRAPH_INSTRUMENT=OFF build.
  void print(std::ostream& os, bool csv, const char* title) {
    bench::Table t({"request kind", "count", "p50 (us)", "p90 (us)", "p99 (us)", "p99.9 (us)"});
    bool any = false;
    for (std::uint8_t k = 0; k < obs::kNumRequestKinds; ++k) {
      const obs::HistogramSnapshot d = snap(k).minus(base_[k]);
      if (d.count == 0) continue;
      any = true;
      t.add_row({obs::request_kind_name(k), bench::fmt_count(d.count), us(d.percentile(50)),
                 us(d.percentile(90)), us(d.percentile(99)), us(d.percentile(99.9))});
    }
    mark();
    if (!any) return;
    os << "\n-- " << title << " --\n";
    t.print(os, csv);
  }

 private:
  [[nodiscard]] static std::string us(std::uint64_t ns) {
    return bench::fmt(static_cast<double>(ns) / 1e3, 1);
  }
  [[nodiscard]] static obs::HistogramSnapshot snap(std::uint8_t k) {
    return obs::MetricsRegistry::instance()
        .histogram(std::string("query.latency_ns.") + obs::request_kind_name(k))
        .snapshot();
  }
  std::array<obs::HistogramSnapshot, obs::kNumRequestKinds> base_{};
};

/// Deterministic 25/25/25/25 request mix over a graph of n vertices.
std::vector<query::Request<int>> make_mix(vertex_t n, std::size_t count, std::uint64_t seed) {
  std::vector<query::Request<int>> reqs;
  reqs.reserve(count);
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const auto s = static_cast<vertex_t>(rng.uniform_int(0, n - 1));
    switch (i % 4) {
      case 0:
        reqs.push_back(query::PointToPoint{s, static_cast<vertex_t>(rng.uniform_int(0, n - 1))});
        break;
      case 1:
        reqs.push_back(query::KNearest{s, static_cast<vertex_t>(rng.uniform_int(1, 32))});
        break;
      case 2:
        reqs.push_back(query::Bounded<int>{s, static_cast<int>(rng.uniform_int(1, 40))});
        break;
      default:
        reqs.push_back(query::FullSSSP{s});
        break;
    }
  }
  return reqs;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cachegraph::bench;
  const Options opt = parse_options(argc, argv);

  Harness h(std::cout, opt, "Extension: query engine",
            "concurrent bounded-search serving over the task pool",
            "early exit keeps the per-query working set a fraction of the graph");

  LatencyScoreboard board;

  const auto n = static_cast<vertex_t>(opt.full ? 4096 : 1024);
  const std::size_t batch = opt.full ? 512 : 256;
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<int> ladder;
  if (opt.threads > 0) {
    ladder.push_back(opt.threads);
  } else {
    for (int t = 1; t <= hw; t *= 2) ladder.push_back(t);
  }

  // ---------------------------------------- scene 1: request-mix ladder
  Table t1({"density", "threads", "full-only (s)", "mix (s)", "mix speedup",
            "settled mix/full", "scratch allocs", "scratch reuses"});
  for (const double density : {0.02, 0.1, 0.3}) {
    const auto el = graph::random_digraph<int>(n, density, opt.seed);
    const graph::AdjacencyArray<int> rep(el);
    const std::string dlabel = fmt(density, 2);
    const auto mix = make_mix(n, batch, opt.seed + 1);
    std::vector<query::Request<int>> full_only;
    for (const auto& r : mix) full_only.push_back(query::FullSSSP{query::source_of(r)});

    for (const int threads : ladder) {
      const Params params{{"n", std::to_string(n)},
                          {"density", dlabel},
                          {"threads", std::to_string(threads)}};
      parallel::TaskPool pool(threads);

      query::QueryEngine<graph::AdjacencyArray<int>> full_engine(rep);
      std::atomic<std::uint64_t> full_settled{0};
      const double tf = h.time_s("query_full_only", params, opt.reps, [&] {
        full_settled = 0;
        full_engine.run(std::span<const query::Request<int>>(full_only), pool,
                        [&](std::size_t, const auto&, const auto& r, const auto&) {
                          full_settled.fetch_add(r.settled, std::memory_order_relaxed);
                        });
      });

      query::QueryEngine<graph::AdjacencyArray<int>> mix_engine(rep);
      std::atomic<std::uint64_t> mix_settled{0};
      const double tm = h.time_s("query_mix", params, opt.reps, [&] {
        mix_settled = 0;
        mix_engine.run(std::span<const query::Request<int>>(mix), pool,
                       [&](std::size_t, const auto&, const auto& r, const auto&) {
                         mix_settled.fetch_add(r.settled, std::memory_order_relaxed);
                       });
      });
      const auto stats = mix_engine.stats();
      const double ratio =
          full_settled.load() == 0
              ? 0.0
              : static_cast<double>(mix_settled.load()) / static_cast<double>(full_settled.load());
      t1.add_row({dlabel, std::to_string(threads), fmt(tf, 3), fmt(tm, 3),
                  fmt_speedup(tf, tm), fmt(ratio, 3), fmt_count(stats.scratch_allocs),
                  fmt_count(stats.scratch_reuses)});
    }
  }
  std::cout << "\n-- request mix vs full-SSSP-only batches --\n";
  t1.print(std::cout, opt.csv);
  board.print(std::cout, opt.csv, "mix ladder: latency percentiles by request kind");

  // ------------------------------------------- scene 2: queue policies
  Table t2({"density", "indexed (s)", "lazy (s)", "indexed vs lazy"});
  {
    parallel::TaskPool pool(opt.threads > 0 ? opt.threads : hw);
    for (const double density : {0.02, 0.1, 0.3}) {
      const auto el = graph::random_digraph<int>(n, density, opt.seed);
      const graph::AdjacencyArray<int> rep(el);
      const std::string dlabel = fmt(density, 2);
      const auto mix = make_mix(n, batch, opt.seed + 2);
      const Params params{{"n", std::to_string(n)}, {"density", dlabel}};

      query::QueryEngine<graph::AdjacencyArray<int>> indexed(rep);
      const double ti = h.time_s("query_indexed", params, opt.reps, [&] {
        (void)indexed.run(std::span<const query::Request<int>>(mix), pool);
      });
      query::QueryEngine<graph::AdjacencyArray<int>, query::LazyQueue<int>> lazy(rep);
      const double tl = h.time_s("query_lazy", params, opt.reps, [&] {
        (void)lazy.run(std::span<const query::Request<int>>(mix), pool);
      });
      t2.add_row({dlabel, fmt(ti, 3), fmt(tl, 3), fmt_speedup(tl, ti)});
    }
  }
  std::cout << "\n-- queue policy under the same mix --\n";
  t2.print(std::cout, opt.csv);
  board.mark();  // keep scene 2's records out of the flap-scene table

  // -------------------------------------- scene 3: incremental serving
  // Block-structured graph: flaps stay inside one block so the cache
  // keeps serving every other component without recompute.
  Table t3({"flaps/round", "hit rate", "invalidations", "ensure (s)", "cold (s)", "saved"});
  {
    const vertex_t blocks = 16;
    const vertex_t bn = n / blocks;
    graph::EdgeListGraph<int> el(n);
    Rng gen(opt.seed);
    for (vertex_t b = 0; b < blocks; ++b) {
      const vertex_t lo = b * bn;
      for (vertex_t i = 0; i < bn; ++i) {
        for (int d = 0; d < 6; ++d) {  // ~6 out-edges per vertex, in-block
          const auto to = static_cast<vertex_t>(lo + gen.uniform_int(0, bn - 1));
          el.add_edge(lo + i, to, static_cast<int>(gen.uniform_int(1, 100)));
        }
      }
    }
    const graph::AdjacencyArray<int> base(el);
    parallel::TaskPool pool(opt.threads > 0 ? opt.threads : hw);
    std::vector<vertex_t> sources(static_cast<std::size_t>(n));
    std::iota(sources.begin(), sources.end(), vertex_t{0});

    for (const int flaps : {1, 4, 16}) {
      query::DynamicOverlay<int> overlay(base);
      query::ResultCache<int> cache(overlay);
      const Params params{{"n", std::to_string(n)}, {"flaps", std::to_string(flaps)}};

      (void)cache.ensure(sources, pool);  // warm: every tree cached
      const double cold = h.time_s("query_cache_cold", params, opt.reps, [&] {
        cache.clear();
        (void)cache.ensure(sources, pool);
      });

      Rng flap(opt.seed + static_cast<std::uint64_t>(flaps));
      std::uint64_t hits = 0, invals = 0, served = 0;
      const double warm = h.time_s("query_cache_ensure", params, opt.reps, [&] {
        for (int f = 0; f < flaps; ++f) {  // flap: remove + reinsert in one block
          const auto lo = static_cast<vertex_t>(bn * flap.uniform_int(0, blocks - 1));
          const auto u = static_cast<vertex_t>(lo + flap.uniform_int(0, bn - 1));
          const auto v = static_cast<vertex_t>(lo + flap.uniform_int(0, bn - 1));
          overlay.insert_edge(u, v, static_cast<int>(flap.uniform_int(1, 100)));
        }
        const auto report = cache.ensure(sources, pool);
        hits += report.hits;
        invals += report.invalidations;
        served += sources.size();
      });
      const double hit_rate =
          served == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(served);
      t3.add_row({std::to_string(flaps), fmt(hit_rate, 3), fmt_count(invals), fmt(warm, 3),
                  fmt(cold, 3), fmt_speedup(cold, warm)});
    }
  }
  std::cout << "\n-- link flaps: incremental ensure vs cold recompute --\n";
  t3.print(std::cout, opt.csv);
  board.print(std::cout, opt.csv, "flap scenes: latency percentiles by request kind");

  // ------------------------------------ scene 4: degraded-mode ladder
  // 4x oversubscription: the in-flight cap equals the pool width and
  // the batch is four times that. Each overload policy pays a
  // different bill — block in latency, reject in refusals, shed in
  // cancelled elders — and the reliability counters itemize it.
  Table t4({"policy", "time (s)", "ok", "overloaded", "cancelled", "blocked", "rejected",
            "shed"});
  {
    const auto el = graph::random_digraph<int>(n, 0.1, opt.seed);
    const graph::AdjacencyArray<int> rep(el);
    const int width = opt.threads > 0 ? opt.threads : hw;
    parallel::TaskPool pool(width);
    const std::size_t oversub = 4u * static_cast<std::size_t>(width);
    std::vector<query::Request<int>> heavy;
    Rng rng(opt.seed + 3);
    for (std::size_t i = 0; i < oversub; ++i) {
      heavy.push_back(query::FullSSSP{static_cast<vertex_t>(rng.uniform_int(0, n - 1))});
    }
    for (const auto policy : {query::OverloadPolicy::kBlock, query::OverloadPolicy::kReject,
                              query::OverloadPolicy::kShed}) {
      query::QueryEngine<graph::AdjacencyArray<int>> engine(rep);
      engine.set_admission({.max_in_flight = static_cast<std::size_t>(width), .policy = policy});
      const Params params{{"n", std::to_string(n)},
                          {"policy", std::string(query::to_string(policy))},
                          {"oversub", std::to_string(oversub)}};
      std::uint64_t ok = 0, overloaded = 0, cancelled = 0;
      const double ts = h.time_s("query_degraded", params, opt.reps, [&] {
        ok = overloaded = cancelled = 0;
        const auto out = engine.try_run(std::span<const query::Request<int>>(heavy), pool);
        for (const auto& r : out) {
          switch (r.status.code()) {
            case reliability::StatusCode::kOk: ++ok; break;
            case reliability::StatusCode::kOverloaded: ++overloaded; break;
            case reliability::StatusCode::kCancelled: ++cancelled; break;
            default: break;
          }
        }
      });
      const auto stats = engine.stats();
      t4.add_row({std::string(query::to_string(policy)), fmt(ts, 3), fmt_count(ok),
                  fmt_count(overloaded), fmt_count(cancelled), fmt_count(stats.blocked),
                  fmt_count(stats.rejected), fmt_count(stats.shed)});
    }
  }
  std::cout << "\n-- degraded mode: overload policies at 4x oversubscription --\n";
  t4.print(std::cout, opt.csv);
  board.print(std::cout, opt.csv, "overload ladder: latency percentiles by request kind");

  // ------------------------------------ scene 5: analytics request mix
  // The frontier kinds through the same hardened surface as the search
  // shapes: one batch mixing PageRank (both push modes), WCC, BFS-from-
  // set, and triangle counting, so their per-kind latency histograms
  // land in the scoreboard next to the search kinds'.
  Table t6({"threads", "time (s)", "ok", "pagerank", "wcc", "bfs", "triangles"});
  {
    const auto el = graph::random_digraph<int>(n, 0.02, opt.seed);
    const graph::AdjacencyArray<int> rep(el);
    const std::vector<vertex_t> seeds{0, n / 2, n - 1};
    std::vector<double> ranks_a(static_cast<std::size_t>(n));
    std::vector<double> ranks_b(static_cast<std::size_t>(n));
    std::vector<vertex_t> labels(static_cast<std::size_t>(n));
    std::vector<vertex_t> depths(static_cast<std::size_t>(n));
    std::vector<query::Request<int>> reqs;
    reqs.push_back(query::PageRank{
        .damping = 0.85, .max_iters = 10, .tol = 0.0, .binned = false, .out = ranks_a});
    reqs.push_back(query::PageRank{
        .damping = 0.85, .max_iters = 10, .tol = 0.0, .binned = true, .out = ranks_b});
    reqs.push_back(query::Wcc{.binned = false, .out = labels});
    reqs.push_back(query::BfsFromSet{.sources = seeds, .binned = true, .out = depths});
    reqs.push_back(query::TriangleCount{});

    for (const int threads : ladder) {
      parallel::TaskPool pool(threads);
      query::QueryEngine<graph::AdjacencyArray<int>> engine(rep);
      const Params params{{"n", std::to_string(n)}, {"threads", std::to_string(threads)}};
      std::uint64_t ok = 0;
      std::array<std::uint64_t, 4> aux{};
      const double ta = h.time_s("query_analytics_mix", params, opt.reps, [&] {
        ok = 0;
        const auto out = engine.try_run(std::span<const query::Request<int>>(reqs), pool);
        for (const auto& r : out) ok += r.status.is_ok() ? 1u : 0u;
        aux = {out[0].aux, out[2].aux, out[3].aux, out[4].aux};
      });
      t6.add_row({std::to_string(threads), fmt(ta, 3), fmt_count(ok), fmt_count(aux[0]),
                  fmt_count(aux[1]), fmt_count(aux[2]), fmt_count(aux[3])});
    }
  }
  std::cout << "\n-- analytics mix: frontier kinds through the hardened batch surface --\n";
  t6.print(std::cout, opt.csv);
  board.print(std::cout, opt.csv, "analytics mix: latency percentiles by request kind");

  // --------------------------- scene 6: cancellation-check overhead
  // The poll is two atomic-ish loads every K settled vertices; this
  // prices it against the poll-free legacy path on a full SSSP sweep
  // (feeds the EXPERIMENTS.md overhead table).
  Table t5({"check_every", "serve (s)", "overhead vs no-poll"});
  {
    const auto el = graph::random_digraph<int>(n, 0.1, opt.seed);
    const graph::AdjacencyArray<int> rep(el);
    query::QueryEngine<graph::AdjacencyArray<int>> engine(rep);
    const query::Request<int> sweep{query::FullSSSP{0}};
    const Params base_params{{"n", std::to_string(n)}, {"check_every", "off"}};
    const double t_off = h.time_s("query_poll_off", base_params, opt.reps, [&] {
      engine.serve(sweep, [](const auto&, const auto&) {});
    });
    t5.add_row({"off", fmt(t_off, 3), "1.00x"});
    reliability::CancelToken never;  // armed but never fired: worst-case honest poll
    for (const vertex_t k : {vertex_t{64}, vertex_t{256}, vertex_t{1024}}) {
      typename query::QueryEngine<graph::AdjacencyArray<int>>::ServeOptions opts;
      opts.cancel = &never;
      opts.check_every = k;
      const Params params{{"n", std::to_string(n)}, {"check_every", std::to_string(k)}};
      const double tk = h.time_s("query_poll", params, opt.reps, [&] {
        (void)engine.try_serve(sweep, opts);
      });
      t5.add_row({std::to_string(k), fmt(tk, 3), fmt_speedup(tk, t_off)});
    }
  }
  std::cout << "\n-- cancellation-check overhead (armed token, never fired) --\n";
  t5.print(std::cout, opt.csv);

  // ------------------------------- scene 7: open-loop traffic (sharded)
  // The serving front-end under replayable Poisson traffic: a
  // latency-sensitive tenant (point-to-point heavy, per-request
  // deadlines) sharing a 4-shard router with a batch tenant (full-SSSP
  // heavy, quota-capped). Latency here is completion minus *scheduled*
  // arrival — the open loop keeps queueing delay in the number, which
  // a closed rep loop structurally cannot (coordinated omission). Rows
  // land in the JSON as "traffic_percentiles" records; CI asserts
  // their presence and p50 <= p99 <= p99.9 per tenant per kind.
  Table t7({"tenant", "kind", "count", "ok", "p50 (us)", "p99 (us)", "p99.9 (us)", "shed/over"});
  {
    const auto el = graph::random_digraph<int>(n, 0.05, opt.seed + 7);
    const graph::AdjacencyArray<int> rep(el);
    serving::Router<int> router(rep, {.shards = 4});
    serving::TrafficConfig<int> cfg;
    cfg.seed = opt.seed + 7;
    cfg.duration = std::chrono::milliseconds(opt.full ? 400 : 150);
    cfg.tenants.push_back({.name = "latency",
                           .rate_hz = 400.0,
                           .zipf_skew = 1.1,
                           .weight_p2p = 3.0,
                           .weight_k_nearest = 1.0,
                           .deadline = std::chrono::milliseconds(50)});
    cfg.tenants.push_back({.name = "batch",
                           .rate_hz = 120.0,
                           .zipf_skew = 0.8,
                           .weight_p2p = 0.0,
                           .weight_bounded = 1.0,
                           .weight_full_sssp = 2.0});
    const auto schedule = serving::build_schedule(cfg, rep.num_vertices());
    const std::vector<serving::Router<int>::TenantQuota> quotas{
        {.max_in_flight = 0},
        {.max_in_flight = 2, .policy = query::OverloadPolicy::kReject}};
    const auto report = serving::TrafficDriver<int>::run(router, cfg, schedule,
                                                         std::max(2, hw), quotas);
    for (const auto& row : report.rows) {
      t7.add_row({row.tenant_name, serving::to_string(row.kind), fmt_count(row.count),
                  fmt_count(row.ok), fmt(static_cast<double>(row.p50_ns) / 1e3, 1),
                  fmt(static_cast<double>(row.p99_ns) / 1e3, 1),
                  fmt(static_cast<double>(row.p999_ns) / 1e3, 1),
                  fmt_count(row.overloaded)});
      h.note("traffic_percentiles",
             {{"tenant", row.tenant_name},
              {"kind", serving::to_string(row.kind)},
              {"count", std::to_string(row.count)},
              {"ok", std::to_string(row.ok)},
              {"overloaded", std::to_string(row.overloaded)},
              {"deadline_exceeded", std::to_string(row.deadline_exceeded)},
              {"p50_ns", std::to_string(row.p50_ns)},
              {"p99_ns", std::to_string(row.p99_ns)},
              {"p999_ns", std::to_string(row.p999_ns)}});
    }
    const auto cs = router.coalescer().stats();
    h.note("traffic_summary", {{"requests", std::to_string(report.total_requests)},
                               {"ok", std::to_string(report.total_ok)},
                               {"shards", "4"},
                               {"coalesce_computes", std::to_string(cs.computes)},
                               {"coalesce_joined", std::to_string(cs.joined)}});
    std::cout << "\n-- open-loop traffic: per-tenant latency through the sharded router --\n";
    t7.print(std::cout, opt.csv);
    std::cout << "(schedule: " << report.total_requests << " arrivals from seed " << cfg.seed
              << "; coalescer ran " << cs.computes << " computes for "
              << cs.computes + cs.joined << " full-SSSP asks)\n";
  }

  // --------------- scene 8: replicated serving under media corruption
  // The failure-domain story end to end: a 2-shard router with 2
  // bit-identical replicas per shard serving out of blocked files,
  // with shard 0's replica 0 corrupted on disk before traffic. A
  // warm-up sweep of direct point-to-point calls trips the corrupt
  // replica's circuit breaker deterministically before the open loop
  // starts, and a scrub pass afterwards repairs the file from its
  // sibling; the percentiles land in "replica_traffic_percentiles", the
  // counters in "replica_summary", and CI's metrics smoke asserts both
  // record kinds.
  [&] {
    const auto el = graph::random_digraph<int>(n, 0.05, opt.seed + 8);
    const graph::AdjacencyArray<int> rep(el);
    serving::Router<int>::Config rcfg;
    rcfg.shards = 2;
    rcfg.replicas = 2;
    rcfg.cache_portals = false;  // probes must touch the blocked files
    serving::Router<int> router(rep, rcfg);
    const auto dir = std::filesystem::temp_directory_path() / "cachegraph_bench_replica";
    std::filesystem::remove_all(dir);
    if (const auto st = router.enable_out_of_core(dir, 4096, 64); !st.is_ok()) {
      std::cout << "\n(scene 8 skipped: " << st.to_string() << ")\n";
      return;
    }
    for (const auto& t : router.scrub_targets()) {
      if (t.path.string().find("/s0/r0/") == std::string::npos) continue;
      std::fstream f(t.path, std::ios::binary | std::ios::in | std::ios::out);
      for (std::uint32_t b = 0; b < t.num_blocks; ++b) {
        const auto off = static_cast<std::streamoff>(t.data_offset +
                                                     std::uint64_t{b} * t.block_bytes + 17);
        f.seekg(off);
        char c = 0;
        f.read(&c, 1);
        c = static_cast<char>(c ^ 0x5a);
        f.seekp(off);
        f.write(&c, 1);
      }
    }
    // Deterministic quarantine before the open loop: a serial sweep
    // hits the corrupt replica, fails over, and trips its breaker.
    for (vertex_t v = 0; v < 32 && v < n; ++v) {
      (void)router.point_to_point(0, (v * 7) % n);
    }

    serving::TrafficConfig<int> cfg;
    cfg.seed = opt.seed + 8;
    cfg.duration = std::chrono::milliseconds(opt.full ? 300 : 120);
    cfg.tenants.push_back({.name = "latency",
                           .rate_hz = 80.0,
                           .zipf_skew = 1.1,
                           .weight_p2p = 3.0,
                           .weight_k_nearest = 1.0,
                           .deadline = std::chrono::milliseconds(250)});
    const auto schedule = serving::build_schedule(cfg, rep.num_vertices());
    const auto report =
        serving::TrafficDriver<int>::run(router, cfg, schedule, std::max(2, hw));
    Table t8({"tenant", "kind", "count", "ok", "p50 (us)", "p99 (us)", "p99.9 (us)"});
    for (const auto& row : report.rows) {
      t8.add_row({row.tenant_name, serving::to_string(row.kind), fmt_count(row.count),
                  fmt_count(row.ok), fmt(static_cast<double>(row.p50_ns) / 1e3, 1),
                  fmt(static_cast<double>(row.p99_ns) / 1e3, 1),
                  fmt(static_cast<double>(row.p999_ns) / 1e3, 1)});
      h.note("replica_traffic_percentiles",
             {{"tenant", row.tenant_name},
              {"kind", serving::to_string(row.kind)},
              {"count", std::to_string(row.count)},
              {"ok", std::to_string(row.ok)},
              {"overloaded", std::to_string(row.overloaded)},
              {"p50_ns", std::to_string(row.p50_ns)},
              {"p99_ns", std::to_string(row.p99_ns)},
              {"p999_ns", std::to_string(row.p999_ns)}});
    }
    // Repair the corrupted replica from its sibling and export the
    // full failure-domain counter set.
    serving::BlockScrubber scrubber;
    for (auto t : router.scrub_targets()) scrubber.add_target(std::move(t));
    scrubber.scrub_all();
    const auto ss = scrubber.stats();
    const auto rs = router.stats();
    h.note("replica_summary", {{"requests", std::to_string(report.total_requests)},
                               {"ok", std::to_string(report.total_ok)},
                               {"failovers", std::to_string(rs.failovers)},
                               {"unavailable", std::to_string(rs.unavailable)},
                               {"quarantines", std::to_string(rs.quarantines)},
                               {"recoveries", std::to_string(rs.recoveries)},
                               {"scrub_scanned", std::to_string(ss.scanned)},
                               {"scrub_corrupt", std::to_string(ss.corrupt)},
                               {"scrub_repaired", std::to_string(ss.repaired)},
                               {"scrub_repair_failed", std::to_string(ss.repair_failed)}});
    std::filesystem::remove_all(dir);
    std::cout << "\n-- replicated serving: corrupt replica --\n";
    t8.print(std::cout, opt.csv);
    std::cout << "(replica 0 of shard 0 corrupt on disk; " << rs.failovers
              << " failovers; scrubber repaired the file from its sibling)\n";
  }();

  std::cout << "\n(host reports " << hw << " hardware thread(s); n=" << n << ", batch="
            << batch << ")\n";
  return 0;
}
