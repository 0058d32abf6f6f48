// Self-tests of the benchmark's own machinery: schedule replay, the
// percentile rule with failures as +inf, counter scoping by snapshot
// difference, span self time, the open-loop driver, and the oracle
// checks. Run with `python3 perfbench/run.py --selftest`.
#include <cstdio>
#include <string>

#include "driver.hpp"
#include "serve_common.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

template <class Fn>
bool throws_mismatch(Fn&& fn) {
  try {
    fn();
  } catch (const pb::Mismatch&) {
    return true;
  }
  return false;
}

bool same(const std::vector<pb::Arrival>& x, const std::vector<pb::Arrival>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].at_s != y[i].at_s || x[i].stream != y[i].stream || x[i].kind != y[i].kind ||
        x[i].a != y[i].a || x[i].b != y[i].b) {
      return false;
    }
  }
  return true;
}

void schedule_replays() {
  const std::vector<pb::Stream> mix = {{200, 1.1, {3, 1}}, {5, 1.3, {1}}};
  const auto a = pb::make_schedule(mix, 1000, 5, 42);
  const auto b = pb::make_schedule(mix, 1000, 5, 42);
  const auto c = pb::make_schedule(mix, 1000, 5, 43);
  check(!a.empty() && same(a, b), "a seed replays the same schedule");
  check(!same(a, c), "another seed gives another schedule");
  bool sorted = true;
  for (std::size_t i = 1; i < a.size(); ++i) sorted = sorted && a[i - 1].at_s <= a[i].at_s;
  check(sorted, "the merged schedule is in arrival order");
  std::size_t bulk = 0;
  for (const auto& x : a) bulk += x.stream == 1;
  check(bulk > 5 && bulk < 60, "each stream keeps its own rate");
}

void percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 9; ++i) v.push_back(i);
  v.push_back(pb::kInf);  // one failed request in ten
  check(pb::percentile(v, 50) == 5, "p50 ignores one failure in ten");
  check(pb::percentile(v, 90) == 9, "p90 is the 9th of 10");
  check(pb::percentile(v, 99) == pb::kInf, "p99 of ten reaches the failure");
  v[0] = pb::kInf;  // two failures: p90 now lands on one
  check(pb::percentile(v, 90) == pb::kInf, "a failure counts as +inf latency");
  check(pb::beyond(100, 90) == 10 && pb::beyond(10, 90) == 1, "samples beyond a percentile");
}

void counters_scoped_by_snapshot() {
  auto& reg = cachegraph::obs::CounterRegistry::instance();
  auto& c = reg.counter("perfbench.selftest.events");
  c.fetch_add(5);
  const pb::CounterScope outer;
  c.fetch_add(2);
  const pb::CounterScope inner;
  c.fetch_add(3);
  check(inner.delta("perfbench.selftest.events") == 3, "a scope sees only its own region");
  check(outer.delta("perfbench.selftest.events") == 5, "an enclosing scope sees both regions");
  check(reg.value("perfbench.selftest.events") == 10, "scoping never resets the registry");
  check(inner.delta_prefix("perfbench.selftest.") == 3, "prefix deltas sum matching counters");
  check(inner.delta("perfbench.selftest.never") == 0, "an untouched counter has no delta");
}

void span_self_time() {
  pb::Tracer tr(true, 1);
  const auto t0 = pb::Clock::now();
  const auto ms = [&](int k) { return t0 + std::chrono::milliseconds(k); };
  const auto root = tr.add(0, "parent", ms(0), ms(10), 7);
  tr.add(0, "child", ms(2), ms(6), 7, root);
  const auto self = tr.self_ms();
  check(std::abs(self.at("parent").first - 6.0) < 1e-9, "self time subtracts children");
  check(std::abs(self.at("child").first - 4.0) < 1e-9, "a leaf's self time is its duration");
  pb::Tracer off(false, 1);
  check(off.add(0, "x", ms(0), ms(1), 0) == -1 && off.count() == 0, "a disabled tracer records nothing");
}

void open_loop_driver() {
  const auto sched = pb::make_schedule({{2000, 1.1, {1}}}, 100, 0.5, 7);
  int epochs = 0;
  pb::Tracer off(false, 3);
  const auto res = pb::run_open_loop(
      sched, 2, 0.1, off,
      [](std::size_t i, int, pb::Clock::time_point) { return i != 3; },
      [&](int) {
        ++epochs;
        return 0.0;
      },
      [](std::size_t) { return "x"; });
  check(res.recs.size() == sched.size(), "every scheduled request is served");
  check(res.recs[3].lat_ms == pb::kInf && !res.recs[3].ok, "a failed request has +inf latency");
  check(res.recs[4].ok && res.recs[4].lat_ms >= res.recs[4].call_ms, "latency counts from the due time");
  check(epochs >= 3 && res.drain_ms.size() == static_cast<std::size_t>(epochs),
        "epoch marks drain and call back");
  check(res.max_threads <= 3 && res.max_threads > 0, "the driver runs dispatcher plus workers");
}

void oracle_checks() {
  pb::Mirror m(4);
  m.add(0, 1, 5);
  m.add(1, 2, 5);
  m.add(0, 2, 20);
  const auto d = pb::dijkstra(m, 0);
  check(d[2] == 10 && d[3] == pb::kUnreached, "oracle distances");
  using Item = pb::RouterT::NearItem;
  const std::vector<Item> good = {{0, 0}, {1, 5}};
  check(!throws_mismatch([&] { pb::check_nearest(d, 2, good, "knn"); }), "a correct kNN passes");
  const std::vector<Item> skipped = {{0, 0}, {2, 10}};
  check(throws_mismatch([&] { pb::check_nearest(d, 2, skipped, "knn"); }),
        "a kNN that skips a closer vertex fails");
  const std::vector<Item> wrong = {{0, 0}, {1, 6}};
  check(throws_mismatch([&] { pb::check_nearest(d, 2, wrong, "knn"); }), "a wrong distance fails");
  check(!throws_mismatch([&] { pb::check_within(d, 5, good, "within"); }), "a correct bounded answer passes");
  check(throws_mismatch([&] { pb::check_within(d, 10, good, "within"); }),
        "a bounded answer missing a vertex fails");
}

}  // namespace

int main() {
  schedule_replays();
  percentile_rule();
  counters_scoped_by_snapshot();
  span_self_time();
  open_loop_driver();
  oracle_checks();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
