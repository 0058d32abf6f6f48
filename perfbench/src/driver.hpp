// The benchmark's own load driver: seeded open-loop schedules, a
// dispatcher that busy-waits to each due time, polling workers, epoch
// drains, and a closed-loop capacity phase. It deliberately shares no
// code with serving::TrafficDriver, so edits to the serving layer cannot
// change the instrument that measures it.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace pb {

/// One scheduled request. `a` is the source, `b` a uniform second
/// vertex (the p2p target); what `kind` means is up to the workload.
struct Arrival {
  double at_s = 0;
  std::uint32_t stream = 0;
  std::uint32_t kind = 0;
  std::int32_t a = 0;
  std::int32_t b = 0;
};

/// A Poisson arrival stream: rate, Zipf exponent over sources, and the
/// relative weight of each request kind.
struct Stream {
  double rate_hz = 0;
  double zipf_s = 1.1;
  std::vector<double> kind_weights;
};

/// Requests per hot set: Zipf ranks map to vertices through a seeded
/// permutation that is redrawn this often, so popularity drifts and a
/// run averages over many hot sets instead of resting on the few
/// hottest sources of one seed.
inline constexpr std::size_t kHotSetRequests = 64;

/// Requests of one stream's mix: Poisson-timed up to `horizon_s`, or
/// `count` of them with times left at 0 (the closed-loop phase and
/// warm-ups draw from the same distribution as the open loop).
[[nodiscard]] inline std::vector<Arrival> draw_requests(const Stream& st, std::uint32_t stream,
                                                        std::int32_t n, std::size_t count,
                                                        double horizon_s, std::uint64_t seed) {
  Rng r(seed);
  std::vector<std::int32_t> perm;
  const Zipf zipf(static_cast<std::size_t>(n), st.zipf_s);
  double wsum = 0;
  for (const double w : st.kind_weights) wsum += w;
  std::vector<Arrival> out;
  double t = 0;
  while (count > 0 ? out.size() < count : true) {
    if (horizon_s > 0) {
      t += r.exp_gap(st.rate_hz);
      if (t >= horizon_s) break;
    }
    if (out.size() % kHotSetRequests == 0) perm = permutation(n, r);
    Arrival a;
    a.at_s = t;
    a.stream = stream;
    double u = r.uniform() * wsum;
    while (a.kind + 1 < st.kind_weights.size() && u >= st.kind_weights[a.kind]) {
      u -= st.kind_weights[a.kind];
      ++a.kind;
    }
    a.a = perm[zipf.sample(r)];
    a.b = static_cast<std::int32_t>(r.below(static_cast<std::uint64_t>(n)));
    out.push_back(a);
  }
  return out;
}

/// The merged open-loop schedule of every stream over `seconds`. The
/// same seed always yields the same schedule.
[[nodiscard]] inline std::vector<Arrival> make_schedule(const std::vector<Stream>& streams,
                                                        std::int32_t n, double seconds,
                                                        std::uint64_t seed) {
  std::vector<Arrival> all;
  for (std::uint32_t s = 0; s < streams.size(); ++s) {
    auto part = draw_requests(streams[s], s, n, 0, seconds, derive(seed, 100 + s));
    all.insert(all.end(), part.begin(), part.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Arrival& x, const Arrival& y) { return x.at_s < y.at_s; });
  return all;
}

/// Per-request timing, all from the scheduled arrival (`due`).
struct Rec {
  double lag_ms = 0;    ///< how late the dispatcher released it
  double queue_ms = 0;  ///< due → worker pickup
  double call_ms = 0;   ///< the serving call itself
  double lat_ms = kInf; ///< due → completion; +inf unless it resolved OK
  bool ok = false;
};

struct OpenLoopResult {
  std::vector<Rec> recs;          ///< indexed like the schedule
  std::vector<double> drain_ms;   ///< one per epoch
  double wall_s = 0;
  int max_threads = 0;
};

/// Runs `sched` open loop on `workers` polling threads while the
/// calling thread dispatches. `serve(i, worker_slot, due)` returns
/// whether request i resolved OK. Every `epoch_s` of schedule time the
/// dispatcher stops, waits for in-flight work to drain, and calls
/// `at_epoch(k)`; that returns the seconds it spent on work that must
/// not count (oracle sampling), which shifts every later arrival.
/// Arrivals otherwise keep their scheduled times, so the drain and the
/// writes land in read latency. Spans: driver.request (due → done)
/// with children driver.queue and `kind_span(i)` on slot worker+1.
template <class Serve, class AtEpoch, class KindSpan>
OpenLoopResult run_open_loop(const std::vector<Arrival>& sched, int workers, double epoch_s,
                             Tracer& tr, Serve&& serve, AtEpoch&& at_epoch,
                             KindSpan&& kind_span) {
  OpenLoopResult res;
  const std::size_t n = sched.size();
  res.recs.resize(n);
  std::vector<Clock::time_point> due(n);
  std::atomic<std::size_t> published{0};
  std::atomic<std::size_t> claimed{0};
  std::atomic<std::size_t> completed{0};

  auto work = [&](int w) {
    std::size_t spins = 0;
    for (;;) {
      std::size_t c = claimed.load(std::memory_order_relaxed);
      if (c >= n) return;
      if (c >= published.load(std::memory_order_acquire) ||
          !claimed.compare_exchange_weak(c, c + 1, std::memory_order_acq_rel)) {
        if (++spins % 64 == 0) std::this_thread::yield();
        cpu_relax();
        continue;
      }
      const auto pick = Clock::now();
      Rec& r = res.recs[c];
      r.queue_ms = msecs(pick - due[c]);
      const bool ok = serve(c, w + 1, due[c]);
      const auto end = Clock::now();
      r.call_ms = msecs(end - pick);
      r.ok = ok;
      r.lat_ms = ok ? msecs(end - due[c]) : kInf;
      if (tr.on()) {
        const auto root = tr.add(w + 1, "driver.request", due[c], end, c);
        tr.add(w + 1, "driver.queue", due[c], pick, c, root);
        tr.add(w + 1, kind_span(c), pick, end, c, root);
      }
      completed.fetch_add(1, std::memory_order_release);
    }
  };

  std::vector<std::thread> pool;
  for (int w = 0; w < workers; ++w) pool.emplace_back(work, w);
  res.max_threads = thread_count();

  const auto spin_until = [](Clock::time_point t) {
    while (Clock::now() < t) cpu_relax();
  };
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  Clock::duration offset{};
  double next_epoch = epoch_s > 0 ? epoch_s : kInf;
  int epoch = 0;
  const auto at = [&](double s) {
    return t0 + offset + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  for (std::size_t i = 0; i < n; ++i) {
    while (sched[i].at_s >= next_epoch) {
      spin_until(at(next_epoch));
      const auto d0 = Clock::now();
      while (completed.load(std::memory_order_acquire) < i) cpu_relax();
      const auto d1 = Clock::now();
      tr.add(0, "driver.drain", d0, d1, static_cast<std::uint64_t>(epoch));
      res.drain_ms.push_back(msecs(d1 - d0));
      const double excluded = at_epoch(epoch++);
      offset += std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(excluded));
      next_epoch += epoch_s;
    }
    due[i] = at(sched[i].at_s);
    spin_until(due[i]);
    res.recs[i].lag_ms = msecs(Clock::now() - due[i]);
    published.store(i + 1, std::memory_order_release);
  }
  for (auto& t : pool) t.join();
  res.wall_s = secs(Clock::now() - t0);
  return res;
}

struct ClosedLoopResult {
  std::uint64_t ok = 0;
  double wall_s = 0;
  int max_threads = 0;
};

/// `callers` threads serve requests 0..count-1 back to back, each
/// taking the next unserved one, until all are served or `seconds`
/// (when positive) have passed; capacity is OK completions per second.
template <class Serve>
ClosedLoopResult run_closed_loop(std::size_t count, int callers, double seconds, Serve&& serve) {
  ClosedLoopResult res;
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> ok{0};
  const auto t0 = Clock::now();
  const auto end = seconds > 0 ? t0 + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(seconds))
                               : Clock::time_point::max();
  std::vector<std::thread> pool;
  for (int w = 0; w < callers; ++w) {
    pool.emplace_back([&, w] {
      for (std::size_t i; Clock::now() < end && (i = next.fetch_add(1)) < count;) {
        if (serve(i, w + 1)) ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  res.max_threads = thread_count();
  for (auto& t : pool) t.join();
  res.wall_s = secs(Clock::now() - t0);
  res.ok = ok.load();
  return res;
}

}  // namespace pb
