// perfbench — the cachegraph benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload from a seed, checks every sampled answer against an
// oracle (a mismatch exits 3 with no result line) and prints one JSON
// result as the last stdout line: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1. See README.md beside this file.
#include <malloc.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace {

// Every metric the benchmark declares. A workload that cannot produce
// one reports it as 0 and names the reason in the report file.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},  {"peak_rss_mb", "MiB"}, {"good_frac", "ratio"},    {"p50_ms", "ms"},
    {"p90_ms", "ms"},  {"sat_rps", "req/s"},   {"second_p50_ms", "ms"},
};
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"driver.lag_p99_ms", "ms"},
    {"driver.host_spin_ms", "ms"},
    {"driver.steal_ticks", "count"},
    {"driver.queue_wait_p50_ms", "ms"},
    {"driver.queue_wait_p90_ms", "ms"},
    {"driver.drain_ms", "ms"},
    {"serving.p2p_call_ms", "ms"},
    {"serving.portal_pops_per_p2p", "count"},
    {"serving.portal_probes_per_p2p", "count"},
    {"serving.portal_tree_hit_ratio", "ratio"},
    {"serving.knn_call_ms", "ms"},
    {"serving.bounded_call_ms", "ms"},
    {"serving.full_call_ms", "ms"},
    {"serving.coalesce_join_ratio", "ratio"},
    {"serving.write_batch_ms", "ms"},
    {"serving.insert_call_us", "us"},
    {"serving.remove_call_us", "us"},
    {"serving.refused_frac", "ratio"},
    {"serving.failovers", "count"},
    {"serving.unavailable", "count"},
    {"serving.build_s", "s"},
    {"serving.warmup_s", "s"},
    {"query.settled_per_request", "count"},
    {"query.early_exit_frac", "ratio"},
    {"query.scratch_allocs", "count"},
    {"query.result_cache_hit_ratio", "ratio"},
    {"query.result_cache_recomputes", "count"},
    {"store.block_hit_ratio", "ratio"},
    {"store.faults_per_p2p", "count"},
    {"store.evictions_per_p2p", "count"},
    {"store.read_mb", "MiB"},
    {"store.write_s", "s"},
    {"store.pinned_high_water", "count"},
    {"pq.ops_per_request", "count"},
    {"sssp.fanout_ms", "ms"},
    {"parallel.scaling_eff_fanout", "ratio"},
    {"parallel.scaling_eff_fw", "ratio"},
    {"parallel.steals_per_job", "count"},
    {"parallel.barrier_waits_per_job", "count"},
    {"layout.load_ms", "ms"},
    {"apsp.fwr_ms", "ms"},
    {"layout.store_ms", "ms"},
    {"apsp.relax_per_ns", "1/ns"},
    {"memsim.fwr_l1_misses", "count"},
    {"memsim.fwr_l2_misses", "count"},
    {"trace.overhead_frac", "ratio"},
};

/// Leaves exactly the declared metrics of this mode in the result line.
void restrict(pb::Report& rep, const std::vector<std::pair<const char*, const char*>>& declared,
              const std::string& reason) {
  std::vector<std::string> names;
  for (const auto& [name, unit] : declared) {
    if (!rep.has(name)) rep.absent(name, unit, reason);
    names.emplace_back(name);
  }
  rep.restrict_to(names);
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <serve_ooc_grid|serve_mem_churn|"
               "batch_apsp> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n",
               why.c_str());
  std::exit(2);
}

pb::Args parse(int argc, char** argv) {
  pb::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      std::size_t used = 0;
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v, &used);
        if (used != v.size()) usage("bad --seed");
      } else if (k == "--seconds") {
        a.seconds = std::stod(v, &used);
        if (used != v.size() || !(a.seconds > 0)) usage("bad --seconds");
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--out") {
        a.out_dir = v;
      } else {
        usage("unknown flag " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

std::string read_first(const std::string& path) {
  std::ifstream f(path);
  std::string s;
  std::getline(f, s);
  return s;
}

void fingerprint(pb::Report& rep, const pb::Args& a, int cores) {
  rep.note("workload", a.workload);
  rep.note("seed", std::to_string(a.seed));
  rep.note("seconds", a.seconds);
  rep.note("trace", a.trace ? "1" : "0");
  rep.note("host.cores", cores);
  std::ifstream cpu("/proc/cpuinfo");
  for (std::string line; std::getline(cpu, line);) {
    if (line.rfind("model name", 0) == 0) {
      rep.note("host.cpu", line.substr(line.find(':') + 2));
      break;
    }
  }
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    if (!std::filesystem::exists(dir + "size")) break;
    const std::string type = read_first(dir + "type");
    if (type == "Instruction") continue;
    rep.note("host.cache.L" + read_first(dir + "level") + (type == "Data" ? "d" : ""),
             read_first(dir + "size"));
  }
#if defined(__clang__)
  rep.note("build.compiler", __VERSION__);  // names clang itself
#else
  rep.note("build.compiler", "g++ " __VERSION__);
#endif
  rep.note("build.type", PERFBENCH_BUILD_TYPE);
#if defined(CACHEGRAPH_INSTRUMENT)
  rep.note("build.INSTRUMENT", "ON");
#else
  rep.note("build.INSTRUMENT", "OFF");
#endif
#if defined(CACHEGRAPH_FAULT_INJECT)
  rep.note("build.FAULT_INJECT", "ON");
#else
  rep.note("build.FAULT_INJECT", "OFF");
#endif
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's adaptive one, under which
  // peak RSS of identical runs was bimodal (35 or 47 MiB on batch_apsp)
  // depending on which freed block raised the threshold first. Fixed,
  // it measures live memory.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);  const pb::Args args = parse(argc, argv);
  void (*run)(pb::Context&) = nullptr;
  if (args.workload == "serve_ooc_grid") run = pb::run_serve_ooc_grid;
  if (args.workload == "serve_mem_churn") run = pb::run_serve_mem_churn;
  if (args.workload == "batch_apsp") run = pb::run_batch_apsp;
  if (run == nullptr) usage("unknown workload " + args.workload);

  std::filesystem::create_directories(args.out_dir);
  const int cores = pb::host_cores();
  pb::Tracer tracer(args.trace, cores + 1);
  pb::Report report;
  fingerprint(report, args, cores);
  pb::Context ctx{args, tracer, report, cores};

  const std::uint64_t steal0 = pb::steal_ticks();
  const double spin_before = pb::host_spin_ms();
  try {
    run(ctx);
  } catch (const pb::Mismatch& e) {
    std::fprintf(stderr, "perfbench: ORACLE MISMATCH: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    return 4;
  }
  const double spin_after = pb::host_spin_ms();
  const double spin = std::min(spin_before, spin_after);
  const auto steals = static_cast<double>(pb::steal_ticks() - steal0);
  report.note("driver.host_spin_ms", spin);
  report.note("driver.steal_ticks_run", steals);

  const std::string stem = args.out_dir + "/" + args.workload + "-" + std::to_string(args.seed) +
                           (args.trace ? "-trace" : "");
  if (args.trace) {
    report.metric("driver.host_spin_ms", spin, "ms");
    report.metric("driver.steal_ticks", steals, "count");
    restrict(report, kPerLayer, "not exercised by " + args.workload);
    tracer.write(stem + ".trace.json");
    std::printf("self time per span (ms, count):\n");
    for (const auto& [name, v] : tracer.self_ms()) {
      std::printf("  %-24s %12.3f %8llu\n", name.c_str(), v.first,
                  static_cast<unsigned long long>(v.second));
      report.note("self_ms." + name, v.first);
    }
  } else {
    restrict(report, kEndToEnd, "not produced by " + args.workload);
  }
  report.emit(stem + ".report.json");
  return 0;
}
