// batch_apsp: the paper's kernels as a closed-loop batch service.
//
// One job at a time on `cores` threads. Dense Floyd-Warshall jobs
// (recursive/BDL, n=1024, density 0.1) alternate with sparse Johnson
// jobs (n=2048, out-degree 8). Every job gets a fresh seeded input made
// before its timing starts, so no answer can be reused. apsp, layout,
// sssp, pq and parallel do all the work; serving and store do none.
#include <optional>
#include <string>

#include "bench.hpp"
#include "cachegraph/apsp/johnson.hpp"
#include "cachegraph/apsp/run.hpp"
#include "cachegraph/memsim/hierarchy.hpp"
#include "cachegraph/memsim/machine_configs.hpp"
#include "cachegraph/memsim/mem_policy.hpp"
#include "cachegraph/layout/block_size.hpp"
#include "cachegraph/sssp/batch_engine.hpp"
#include "oracle.hpp"

namespace pb {
namespace {

namespace cg = cachegraph;
using W = std::int32_t;

constexpr std::size_t kDenseN = 1024;
constexpr double kDensity = 0.1;
constexpr std::size_t kBlock = 64;  // BDL tile side
constexpr std::int32_t kSparseN = 2048;
constexpr int kDegree = 8;
constexpr std::size_t kSimN = 256;  // memsim pass size
constexpr int kSetupReps = 5;
constexpr double kDeadlineMs = 10'000;
constexpr int kRowsChecked = 2;  // oracle rows per job
constexpr auto kFwVariant = cg::apsp::FwVariant::kRecursiveBdl;

struct Dense {
  std::vector<W> w;
  Mirror mirror;
};

Dense make_dense(std::size_t n, std::uint64_t seed) {
  Rng r(seed);
  Dense d{std::vector<W>(n * n, cg::inf<W>()), Mirror(static_cast<std::int32_t>(n))};
  for (std::size_t i = 0; i < n; ++i) {
    d.w[i * n + i] = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j || r.uniform() >= kDensity) continue;
      const auto w = static_cast<W>(r.range(1, 100));
      d.w[i * n + j] = w;
      d.mirror.add(static_cast<std::int32_t>(i), static_cast<std::int32_t>(j), w);
    }
  }
  return d;
}

struct Sparse {
  cg::graph::EdgeListGraph<W> g;
  Mirror mirror;
};

Sparse make_sparse(std::int32_t n, std::uint64_t seed) {
  Rng r(seed);
  Sparse s{cg::graph::EdgeListGraph<W>(n), Mirror(n)};
  for (std::int32_t u = 0; u < n; ++u) {
    for (int k = 0; k < kDegree;) {
      const auto v = static_cast<std::int32_t>(r.below(static_cast<std::uint64_t>(n)));
      if (v == u || s.mirror.count(u, v) != 0) continue;
      const auto w = static_cast<W>(r.range(1, 100));
      s.g.add_edge(u, v, w);
      s.mirror.add(u, v, w);
      ++k;
    }
  }
  return s;
}

/// Checks `rows` seeded rows of a row-major n×n answer against Dijkstra.
void check_rows(const std::vector<W>& dist, const Mirror& m, std::uint64_t seed, int rows,
                const std::string& what) {
  const auto n = static_cast<std::size_t>(m.n());
  expect(dist.size() == n * n, what + ": wrong matrix size");
  Rng r(seed);
  for (int k = 0; k < rows; ++k) {
    const auto s = static_cast<std::int32_t>(r.below(n));
    const auto d = dijkstra(m, s);
    for (std::size_t v = 0; v < n; ++v) {
      const W got = dist[static_cast<std::size_t>(s) * n + v];
      expect((cg::is_inf(got) ? kUnreached : got) == d[v],
             what + ": row " + std::to_string(s) + " wrong at column " + std::to_string(v));
    }
  }
}

struct Job {
  bool dense = false;
  double ms = 0;
};

}  // namespace

void run_batch_apsp(Context& ctx) {
  const std::uint64_t seed = ctx.args.seed;
  const int threads = ctx.cores;
  Report& rep = ctx.report;
  Tracer& tr = ctx.tracer;

  // One job as the timed runs make it: a run_fw call or a Johnson
  // call, each on a TaskPool of `threads` slots that lives only for the
  // job, so at most `threads` threads exist at any moment.
  const auto dense_job = [&](const Dense& in) {
    return cg::apsp::run_fw(kFwVariant, in.w, kDenseN, kBlock, threads);
  };
  const auto sparse_job = [&](const Sparse& in) {
    auto res = cg::apsp::johnson(in.g, threads);
    expect(!res.negative_cycle, "johnson reported a negative cycle");
    return std::move(res.dist);
  };

  // Set-up: one untimed job of each kind, several times.
  std::vector<double> setup;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto d = make_dense(kDenseN, derive(seed, 700 + static_cast<std::uint64_t>(r)));
    const auto s = make_sparse(kSparseN, derive(seed, 800 + static_cast<std::uint64_t>(r)));
    const auto t0 = Clock::now();
    const auto root = tr.open(0, "driver.setup", t0, static_cast<std::uint64_t>(r));
    timed(tr, 0, "batch.warm_dense", 0, root, [&] { (void)dense_job(d); });
    timed(tr, 0, "batch.warm_sparse", 0, root, [&] { (void)sparse_job(s); });
    const auto t1 = Clock::now();
    tr.close(0, root, t1);
    setup.push_back(secs(t1 - t0));
    std::fprintf(stderr, "setup %d: %.3f s\n", r, setup.back());
  }

  // Traced jobs split the dense job into its layers.
  std::vector<double> load_ms, fwr_ms, store_ms, fanout_ms;
  std::uint64_t pq_ops = 0, sources = 0;
  const auto traced_dense = [&](const Dense& in, std::uint64_t id, std::int32_t parent) {
    cg::parallel::TaskPool pool(threads);
    const std::size_t nr = cg::layout::padded_size_recursive(kDenseN, kBlock);
    cg::matrix::SquareMatrix<W, cg::layout::BlockDataLayout> m(
        cg::layout::BlockDataLayout(nr, kBlock), kDenseN);
    std::vector<W> out(kDenseN * kDenseN);
    load_ms.push_back(timed(tr, 0, "layout.load", id, parent,
                            [&] { m.load_row_major(in.w.data(), kDenseN, pool); }));
    fwr_ms.push_back(timed(tr, 0, "apsp.fwr", id, parent, [&] {
      cg::apsp::fwr_parallel<cg::apsp::KernelMode::kFast>(m, pool);
    }));
    store_ms.push_back(timed(tr, 0, "layout.store", id, parent,
                             [&] { m.store_row_major(out.data(), kDenseN, pool); }));
    return out;
  };
  const auto traced_sparse = [&](const Sparse& in, std::uint64_t id, std::int32_t parent) {
    std::vector<W> out;
    const CounterScope pq;
    timed(tr, 0, "apsp.johnson", id, parent, [&] { out = sparse_job(in); });
    pq_ops += pq.delta_prefix("pq.");
    sources += static_cast<std::uint64_t>(kSparseN);
    // The bare fan-out on the job's own graph, beside the Johnson call.
    const cg::graph::AdjacencyArray<W> csr(in.g);
    cg::sssp::BatchEngine<W> engine(csr);
    std::vector<cg::vertex_t> all(static_cast<std::size_t>(kSparseN));
    for (std::int32_t v = 0; v < kSparseN; ++v) all[static_cast<std::size_t>(v)] = v;
    cg::parallel::TaskPool pool(threads);
    fanout_ms.push_back(timed(tr, 0, "sssp.fanout", id, parent, [&] {
      engine.run_batch(all, pool, [](std::size_t, cg::vertex_t, const auto&) {});
    }));
    return out;
  };

  // The closed loop: jobs back to back until the time is up.
  Tracer off(false, 0);
  const auto loop = [&](double seconds, std::uint64_t label, bool traced, std::vector<Job>& jobs) {
    Tracer& jt = traced ? tr : off;
    const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
    for (std::uint64_t k = 0; Clock::now() < end || jobs.size() < 2; ++k) {
      const std::uint64_t in_seed = derive(seed, label * 1'000'000 + k);
      Job job;
      job.dense = k % 2 == 0;
      std::optional<Dense> dense;
      std::optional<Sparse> sparse;
      if (job.dense) {
        dense = make_dense(kDenseN, in_seed);
      } else {
        sparse = make_sparse(kSparseN, in_seed);
      }
      const auto t0 = Clock::now();
      const auto root = jt.open(0, "batch.job", t0, k);
      const std::vector<W> out =
          job.dense ? (traced ? traced_dense(*dense, k, root) : dense_job(*dense))
                    : (traced ? traced_sparse(*sparse, k, root) : sparse_job(*sparse));
      const auto t1 = Clock::now();
      jt.close(0, root, t1);
      job.ms = msecs(t1 - t0);
      check_rows(out, job.dense ? dense->mirror : sparse->mirror, in_seed + 1, kRowsChecked,
                 (job.dense ? "dense job " : "sparse job ") + std::to_string(k));
      jobs.push_back(job);
    }
  };
  const auto kind_ms = [](const std::vector<Job>& jobs, bool dense) {
    std::vector<double> v;
    for (const auto& j : jobs) {
      if (j.dense == dense) v.push_back(j.ms);
    }
    return v;
  };

  const std::uint64_t steal0 = steal_ticks();
  if (!ctx.args.trace) {
    std::vector<Job> jobs;
    const auto t0 = Clock::now();
    loop(ctx.args.seconds, 10, false, jobs);
    const double wall = secs(Clock::now() - t0);
    std::uint64_t good = 0;
    for (const auto& j : jobs) good += j.ms <= kDeadlineMs;
    rep.attempted = jobs.size();
    rep.failed = jobs.size() - good;
    const auto dense = kind_ms(jobs, true);
    rep.metric("setup_s", median(setup), "s");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    rep.metric("good_frac", static_cast<double>(good) / static_cast<double>(jobs.size()), "ratio");
    rep.metric("p50_ms", median(dense), "ms");
    rep.metric("p90_ms", percentile(dense, 90), "ms");
    rep.metric("sat_rps", static_cast<double>(good) / wall, "req/s");
    rep.metric("second_p50_ms", median(kind_ms(jobs, false)), "ms");
    rep.note("dense_jobs", static_cast<double>(dense.size()));
    rep.note("p90_samples_beyond", static_cast<double>(beyond(dense.size(), 90)));
  } else {
    std::vector<Job> plain;
    loop(ctx.args.seconds / 2, 10, false, plain);
    std::vector<Job> jobs;
    const CounterScope par;
    loop(ctx.args.seconds / 2, 11, true, jobs);
    const auto n_jobs = static_cast<double>(jobs.size());
    rep.attempted = plain.size() + jobs.size();
    rep.metric("parallel.steals_per_job",
               static_cast<double>(par.delta("parallel.steals")) / n_jobs, "count");
    rep.metric("parallel.barrier_waits_per_job",
               static_cast<double>(par.delta("parallel.barrier_waits")) / n_jobs, "count");
#if defined(CACHEGRAPH_INSTRUMENT)
    rep.metric("pq.ops_per_request",
               static_cast<double>(pq_ops) / static_cast<double>(sources), "count");
#else
    rep.absent("pq.ops_per_request", "count", "pq.* counters compile out under INSTRUMENT=OFF");
#endif
    rep.metric("layout.load_ms", median(load_ms), "ms");
    rep.metric("apsp.fwr_ms", median(fwr_ms), "ms");
    rep.metric("layout.store_ms", median(store_ms), "ms");
    const double n3 = std::pow(static_cast<double>(kDenseN), 3);
    rep.metric("apsp.relax_per_ns", n3 / (median(fwr_ms) * 1e6), "1/ns");
    rep.metric("sssp.fanout_ms", median(fanout_ms), "ms");
    rep.metric("trace.overhead_frac",
               median(kind_ms(jobs, true)) / median(kind_ms(plain, true)) - 1.0, "ratio");

    // Scaling: one input each, 1 slot against `threads` slots.
    const auto d = make_dense(kDenseN, derive(seed, 900));
    const auto s = make_sparse(kSparseN, derive(seed, 901));
    const cg::graph::AdjacencyArray<W> csr(s.g);
    std::vector<cg::vertex_t> all(static_cast<std::size_t>(kSparseN));
    for (std::int32_t v = 0; v < kSparseN; ++v) all[static_cast<std::size_t>(v)] = v;
    const auto fw_at = [&](int t) {
      cg::parallel::TaskPool pool(t);
      const std::size_t nr = cg::layout::padded_size_recursive(kDenseN, kBlock);
      cg::matrix::SquareMatrix<W, cg::layout::BlockDataLayout> m(
          cg::layout::BlockDataLayout(nr, kBlock), kDenseN);
      m.load_row_major(d.w.data(), kDenseN, pool);
      const auto t0 = Clock::now();
      cg::apsp::fwr_parallel<cg::apsp::KernelMode::kFast>(m, pool);
      return secs(Clock::now() - t0);
    };
    const auto fan_at = [&](int t) {
      cg::parallel::TaskPool pool(t);
      cg::sssp::BatchEngine<W> engine(csr);
      const auto t0 = Clock::now();
      engine.run_batch(all, pool, [](std::size_t, cg::vertex_t, const auto&) {});
      return secs(Clock::now() - t0);
    };
    rep.metric("parallel.scaling_eff_fw", fw_at(1) / (threads * fw_at(threads)), "ratio");
    rep.metric("parallel.scaling_eff_fanout", fan_at(1) / (threads * fan_at(threads)), "ratio");

    // memsim: serial FWR/BDL at reduced n, exact simulated misses under
    // the SimpleScalar preset (the paper's Table 1/3 method).
    const auto machine = cg::memsim::simplescalar_default();
    const auto small = make_dense(kSimN, derive(seed, 902));
    cg::memsim::CacheHierarchy h(machine);
    cg::memsim::SimMem mem(h);
    const std::size_t block = cg::layout::pick_block_size(machine.l1, sizeof(W));
    const auto t0 = Clock::now();
    const auto sim_out = cg::apsp::run_fw(kFwVariant, small.w, kSimN, block, mem);
    tr.add(0, "memsim.fwr", t0, Clock::now(), 0);
    check_rows(sim_out, small.mirror, 903, kRowsChecked, "memsim FWR");
    const auto st = h.stats();
    rep.metric("memsim.fwr_l1_misses", static_cast<double>(st.l1.misses), "count");
    rep.metric("memsim.fwr_l2_misses", static_cast<double>(st.l2.misses), "count");
    rep.note("memsim.machine", machine.name);
    rep.note("memsim.block", static_cast<double>(block));
  }
  rep.note("driver.steal_ticks", static_cast<double>(steal_ticks() - steal0));

  // FW against Johnson on one shared dense input (outside timing).
  const auto shared = make_dense(kDenseN, derive(seed, 904));
  const auto fw = dense_job(shared);
  cg::graph::EdgeListGraph<W> g(static_cast<cg::vertex_t>(kDenseN));
  for (std::int32_t u = 0; u < shared.mirror.n(); ++u) {
    for (const auto& e : shared.mirror.adj[static_cast<std::size_t>(u)]) g.add_edge(u, e.to, e.w);
  }
  const auto jo = cg::apsp::johnson(g, threads);
  expect(!jo.negative_cycle && jo.dist == fw, "FW and Johnson disagree on the shared dense input");
}

}  // namespace pb
