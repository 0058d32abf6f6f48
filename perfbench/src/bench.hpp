// Shared pieces of the cachegraph benchmark: seeded randomness,
// percentiles, counter scoping, the span tracer, the host fingerprint
// and the result report. Nothing here calls into the library beyond
// obs::CounterRegistry, so library changes cannot alter the instrument.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cachegraph/obs/counters.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;
inline constexpr double kInf = std::numeric_limits<double>::infinity();

[[nodiscard]] inline double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
[[nodiscard]] inline double msecs(Clock::duration d) { return secs(d) * 1e3; }
[[nodiscard]] inline double since_ms(Clock::time_point t) { return msecs(Clock::now() - t); }

/// One step of a spin-wait. PAUSE leaves the core's shared resources to
/// the worker beside it: without it, churn p50 rose 12–22% in
/// interleaved runs.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// ------------------------------------------------------------- randomness

/// splitmix64: the benchmark's only generator, so a seed fixes every
/// input independently of the library's own Rng.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }
  /// Exponential gap with the given rate (Poisson arrivals).
  double exp_gap(double rate) { return -std::log(1.0 - uniform()) / rate; }

 private:
  std::uint64_t s_;
};

/// Derives an independent stream seed from a run seed and a label.
[[nodiscard]] inline std::uint64_t derive(std::uint64_t seed, std::uint64_t label) {
  Rng r(seed ^ (label * 0xd1342543de82ef95ULL));
  r.next();
  return r.next();
}

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  std::size_t sample(Rng& r) const {
    const double u = r.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// A seeded permutation of 0..n-1: Zipf ranks map through it, so hot
/// sources scatter over the graph instead of clustering at low ids.
[[nodiscard]] inline std::vector<std::int32_t> permutation(std::int32_t n, Rng& r) {
  std::vector<std::int32_t> p(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  for (std::size_t i = p.size(); i > 1; --i) std::swap(p[i - 1], p[r.below(i)]);
  return p;
}

// ------------------------------------------------------------ statistics

/// Nearest-rank percentile. Failed requests enter as +inf, so they sort
/// last and count against every percentile they reach.
[[nodiscard]] inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return kInf;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}
[[nodiscard]] inline double median(const std::vector<double>& v) { return percentile(v, 50); }

/// Samples strictly beyond the nearest-rank q-th percentile.
[[nodiscard]] inline std::size_t beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(n)));
  return n - std::min(n, std::max<std::size_t>(rank, 1));
}

// ------------------------------------------------------ counter scoping

/// Scopes CounterRegistry counters to a region by snapshot difference.
/// It never calls reset(): other code may hold the counters, and a
/// reset would hand one region's tallies to the next.
class CounterScope {
 public:
  CounterScope() : base_(take()) {}

  /// Increase of `name` since construction.
  [[nodiscard]] std::uint64_t delta(const std::string& name) const {
    return at(take(), name) - at(base_, name);
  }
  /// Summed increase of every counter whose name starts with `prefix`.
  [[nodiscard]] std::uint64_t delta_prefix(const std::string& prefix) const {
    std::uint64_t now = 0;
    std::uint64_t then = 0;
    for (const auto& [k, v] : take()) {
      if (k.rfind(prefix, 0) == 0) now += v;
    }
    for (const auto& [k, v] : base_) {
      if (k.rfind(prefix, 0) == 0) then += v;
    }
    return now - then;
  }

 private:
  using Snap = std::map<std::string, std::uint64_t>;
  static Snap take() {
    Snap s;
    for (auto& [k, v] : cachegraph::obs::CounterRegistry::instance().snapshot()) s[k] = v;
    return s;
  }
  static std::uint64_t at(const Snap& s, const std::string& k) {
    const auto it = s.find(k);
    return it == s.end() ? 0 : it->second;
  }
  Snap base_;
};

// ----------------------------------------------------------------- spans

/// In-memory span recorder. Each thread writes only its own slot, so
/// recording takes no lock; spans are written out once, at exit.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index in the same slot, -1 for a root
    std::uint64_t id;     ///< request or job id
  };

  Tracer(bool on, int slots) : on_(on), slots_(static_cast<std::size_t>(slots)) {
    for (auto& s : slots_) s.reserve(on ? 1 << 16 : 0);
  }

  [[nodiscard]] bool on() const noexcept { return on_; }

  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }

  /// Records a finished span; returns its index (parent handle) or -1.
  std::int32_t add(int slot, const char* name, Clock::time_point start, Clock::time_point end,
                   std::uint64_t id, std::int32_t parent = -1) {
    if (!on_) return -1;
    auto& v = slots_[static_cast<std::size_t>(slot)];
    v.push_back(Span{name, ns(start), ns(end), parent, id});
    return static_cast<std::int32_t>(v.size() - 1);
  }

  /// Reserves a span whose end is filled in later (a parent opened
  /// before its children close).
  std::int32_t open(int slot, const char* name, Clock::time_point start, std::uint64_t id,
                    std::int32_t parent = -1) {
    return add(slot, name, start, start, id, parent);
  }
  void close(int slot, std::int32_t idx, Clock::time_point end) {
    if (!on_ || idx < 0) return;
    slots_[static_cast<std::size_t>(slot)][static_cast<std::size_t>(idx)].end_ns = ns(end);
  }

  /// Self time per span name: a span's duration minus its children's.
  [[nodiscard]] std::map<std::string, std::pair<double, std::uint64_t>> self_ms() const {
    std::map<std::string, std::pair<double, std::uint64_t>> out;
    for (const auto& v : slots_) {
      std::vector<double> self(v.size());
      for (std::size_t i = 0; i < v.size(); ++i) {
        self[i] = static_cast<double>(v[i].end_ns - v[i].start_ns) / 1e6;
      }
      for (const auto& s : v) {
        if (s.parent >= 0) {
          self[static_cast<std::size_t>(s.parent)] -= static_cast<double>(s.end_ns - s.start_ns) / 1e6;
        }
      }
      for (std::size_t i = 0; i < v.size(); ++i) {
        auto& e = out[v[i].name];
        e.first += self[i];
        e.second += 1;
      }
    }
    return out;
  }

  [[nodiscard]] std::size_t count() const {
    std::size_t n = 0;
    for (const auto& v : slots_) n += v.size();
    return n;
  }

  /// Chrome trace-event JSON (one tid per slot; parent and id in args).
  void write(const std::string& path) const {
    std::ofstream f(path);
    f << "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
      for (std::size_t i = 0; i < slots_[slot].size(); ++i) {
        const Span& s = slots_[slot][i];
        f << (first ? "" : ",") << "\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << slot << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"idx\":" << i << ",\"parent\":" << s.parent << ",\"id\":" << s.id << "}}";
        first = false;
      }
    }
    f << "\n]}\n";
  }

 private:
  bool on_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<std::vector<Span>> slots_;
};

/// Times `fn` into a span (when tracing) and returns its duration in ms.
template <class Fn>
double timed(Tracer& tr, int slot, const char* name, std::uint64_t id, std::int32_t parent,
             Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  tr.add(slot, name, t0, t1, id, parent);
  return msecs(t1 - t0);
}

// ------------------------------------------------------------------ host

/// Threads of this process right now (/proc/self/status).
[[nodiscard]] inline int thread_count() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

[[nodiscard]] inline int host_cores() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

[[nodiscard]] inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Cumulative steal ticks of the whole host (/proc/stat, 8th field).
[[nodiscard]] inline std::uint64_t steal_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  f >> cpu;
  for (auto& x : v) f >> x;
  return v[7];
}

/// A fixed dependent busy loop; its time tracks how fast this core ran
/// during the run (host contention, frequency), not the program.
[[nodiscard]] inline double host_spin_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 1;
  for (int i = 0; i < 20'000'000; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  volatile std::uint64_t sink = x;
  (void)sink;
  return since_ms(t0);
}

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One run's result. The last stdout line is the JSON result object
/// (correct, attempted, failed, metrics); everything else goes to the
/// report file.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// A metric this workload cannot produce: reported as 0 and listed
  /// with the reason in the report file.
  void absent(const std::string& name, const std::string& unit, const std::string& reason) {
    metric(name, 0.0, unit);
    absent_.emplace_back(name, reason);
  }
  void note(const std::string& key, const std::string& value) { notes_[key] = value; }
  void note(const std::string& key, double value) {
    std::ostringstream o;
    o.precision(10);
    o << value;
    notes_[key] = o.str();
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return std::any_of(metrics_.begin(), metrics_.end(),
                       [&](const Metric& m) { return m.name == name; });
  }

  /// Keeps only the metrics named in `names` in the result line; the
  /// rest move to the report file's fingerprint section.
  void restrict_to(const std::vector<std::string>& names) {
    std::vector<Metric> kept;
    for (auto& m : metrics_) {
      if (std::find(names.begin(), names.end(), m.name) != names.end()) {
        kept.push_back(m);
      } else {
        note("extra." + m.name, m.value);
      }
    }
    metrics_ = std::move(kept);
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Writes the report file, prints a human summary, then the result line.
  void emit(const std::string& report_path) const {
    std::ofstream f(report_path);
    f << "{\n  \"fingerprint\": {";
    bool first = true;
    for (const auto& [k, v] : notes_) {
      f << (first ? "" : ",") << "\n    \"" << k << "\": \"" << escape(v) << "\"";
      first = false;
    }
    f << "\n  },\n  \"absent\": {";
    first = true;
    for (const auto& [k, v] : absent_) {
      f << (first ? "" : ",") << "\n    \"" << k << "\": \"" << escape(v) << "\"";
      first = false;
    }
    f << "\n  },\n  \"result\": " << line() << "\n}\n";
    for (const auto& [k, v] : notes_) std::printf("  # %-32s %s\n", k.c_str(), v.c_str());
    for (const auto& m : metrics_) {
      std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("report: %s\n%s\n", report_path.c_str(), line().c_str());
    std::fflush(stdout);
  }

 private:
  [[nodiscard]] std::string line() const {
    std::ostringstream o;
    o.precision(12);
    o << "{\"correct\": true, \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      // JSON has no infinity; a percentile that only failures reach is
      // reported as 1e12 (any bound rejects it).
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 1e12;
      o << (i ? ", " : "") << "\"" << metrics_[i].name << "\": {\"value\": " << v
        << ", \"unit\": \"" << metrics_[i].unit << "\"}";
    }
    o << "}}";
    return o.str();
  }
  static std::string escape(const std::string& s) {
    std::string o;
    for (const char c : s) {
      if (c == '"' || c == '\\') o += '\\';
      o += (c == '\n' ? ' ' : c);
    }
    return o;
  }

  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> absent_;
  std::map<std::string, std::string> notes_;
};

/// An oracle mismatch: the run fails with a non-zero exit and prints no
/// result line.
struct Mismatch : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void expect(bool ok, const std::string& what) {
  if (!ok) throw Mismatch(what);
}

// ------------------------------------------------------------- workloads

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

struct Context {
  Args args;
  Tracer& tracer;
  Report& report;
  int cores;
};

void run_serve_ooc_grid(Context& ctx);
void run_serve_mem_churn(Context& ctx);
void run_batch_apsp(Context& ctx);

}  // namespace pb
