// QueryEngine — the concurrent shortest-path query service.
//
// Accepts typed requests (PointToPoint / KNearest / Bounded /
// FullSSSP), executes them as TaskPool tasks over one shared graph
// view, and early-exits each search the moment its request is
// answered (see search_core.hpp for the bounding proof sketch). The
// graph view is any GraphRep — the immutable AdjacencyArray for a
// static service, or a DynamicOverlay when edges churn.
//
// The analytics kinds (PageRank / Wcc / BfsFromSet / TriangleCount)
// ride the same surfaces: validated the same way, admitted the same
// way, resolved with the same Status set, recorded in the same
// per-kind histograms. They dispatch to cachegraph::analytics frontier
// kernels over a second leased-scratch pool; on the batch surfaces the
// kernel parallelizes on the same TaskPool that runs the request
// (nested TaskGroups are safe — wait() participates), while the serial
// surfaces run them single-threaded. set_llc_bytes/set_llc_machine
// size the propagation-blocking bins for the `binned` request toggle.
//
// Cache discipline (the reason this layer exists, per "Making Caches
// Work for Graph Analytics"): per-query scratch is leased per worker
// from a parallel::LeasePool and reset in O(touched), so a bounded
// query pays only for the region it explored, and the scratch a
// worker reuses is the one already resident in its cache. At most
// `pool.num_threads()` scratches are ever allocated (fewer when
// set_scratch_capacity caps the pool).
//
// One request path per surface:
//
//   try_serve / try_run — every request resolves to a Response
//   carrying a reliability::Status from the closed code set; nothing
//   escapes as an exception. ServeOptions adds a cooperative cancel
//   token, an absolute deadline, and the poll cadence; the engine
//   gives each batched request its own CancelToken parented on the
//   batch token so admission shedding can kill one victim while a
//   batch cancel kills everything. Admission control (set_admission)
//   bounds each try_run batch through one AdmissionGate
//   (admission.hpp); its kBlock wait step helps the pool until a slot
//   frees. Transient scratch-pool exhaustion is retried with
//   exponential backoff (reliability/retry.hpp) bounded by the request
//   deadline before it surfaces as RESOURCE_EXHAUSTED.
//
//   serve / run (and the distance / k_nearest / within / full helpers)
//   are thin throwing wrappers over the same paths: PreconditionError
//   on an invalid request before anything runs; sinks see only
//   answered requests; a failure rethrows the first exception a
//   request raised (so DATA_LOSS reaches the caller as the
//   DataLossError itself) or else throws std::runtime_error. run
//   admits without a cap.
//
// Status contract for sinks: a terminated search (CANCELLED /
// DEADLINE_EXCEEDED) still hands the sink the real scratch — every
// settled distance in it is exact, a correct prefix of the answer. A
// request that never searched (INVALID_ARGUMENT, OVERLOADED,
// RESOURCE_EXHAUSTED, or an aborted task) gets a zero-vertex empty
// scratch; check response.status before reading distances.
//
// The queue policy is a template parameter (indexed heap vs lazy
// deletion) so the query path can be ablated under realistic request
// mixes — bench_query_engine does exactly that.
//
// Observability: `query.*` counters (requests by kind, settled,
// relaxations, stale_pops, early_exits) plus `reliability.*` counters
// (admission blocked/rejected/shed, cancelled / deadline_exceeded /
// aborted / exhausted resolutions, retry attempts), a per-batch
// CG_TRACE_SPAN("query.run") and one span per request named after its
// kind, and a pool counter flush per batch.
//
// Serving telemetry (CACHEGRAPH_INSTRUMENT builds; compiled out
// otherwise): every resolved request emits an obs::RequestRecord —
// admission-wait / queue-wait / compute time splits, settled and
// relaxation counts, outcome + status, deadline slack — fanned out by
// obs::note_request to the per-kind latency histograms in the
// MetricsRegistry and the always-on FlightRecorder ring; traced runs
// additionally get a retrospective "queue_wait" child span ('X' event)
// per request. Batch boundaries sample the gauges (pool queue depth,
// in-flight requests, scratch-lease utilization) and poll the periodic
// metrics snapshot writer.
//
// Threading contract: the graph view must stay unmodified while
// requests run (mutate a DynamicOverlay only at quiescent points —
// the ResultCache's revalidation flow). run()/try_run() may be called
// from one thread at a time per engine; the serial helpers (distance /
// k_nearest / within / full / try_serve) are safe from any thread,
// including concurrently with each other.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "cachegraph/analytics/bfs.hpp"
#include "cachegraph/analytics/core.hpp"
#include "cachegraph/analytics/pagerank.hpp"
#include "cachegraph/analytics/triangles.hpp"
#include "cachegraph/analytics/wcc.hpp"
#include "cachegraph/analytics/workspace.hpp"
#include "cachegraph/common/check.hpp"
#include "cachegraph/graph/concepts.hpp"
#include "cachegraph/memsim/config.hpp"
#include "cachegraph/obs/counters.hpp"
#include "cachegraph/obs/metrics.hpp"
#include "cachegraph/obs/telemetry.hpp"
#include "cachegraph/obs/trace.hpp"
#include "cachegraph/parallel/lease_pool.hpp"
#include "cachegraph/parallel/task_pool.hpp"
#include "cachegraph/query/admission.hpp"
#include "cachegraph/query/request.hpp"
#include "cachegraph/query/search_core.hpp"
#include "cachegraph/reliability/cancel.hpp"
#include "cachegraph/reliability/fault_injector.hpp"
#include "cachegraph/reliability/retry.hpp"
#include "cachegraph/reliability/status.hpp"

namespace cachegraph::query {

// The analytics kinds' variant slots must land on their obs
// histogram slots (telemetry_test pins the label tables too).
static_assert(kind_index_of(Request<std::int32_t>{PageRank{}}) == obs::kKindPageRank);
static_assert(kind_index_of(Request<std::int32_t>{Wcc{}}) == obs::kKindWcc);
static_assert(kind_index_of(Request<std::int32_t>{BfsFromSet{}}) == obs::kKindBfsFromSet);
static_assert(kind_index_of(Request<std::int32_t>{TriangleCount{}}) == obs::kKindTriangleCount);
static_assert(kind_index_of(Request<std::int32_t>{MultiTarget{}}) == obs::kKindMultiTarget);
static_assert(!is_analytics(Request<std::int32_t>{MultiTarget{}}));

template <graph::GraphRep G, class Queue = IndexedQueue<typename G::weight_type>>
class QueryEngine {
 public:
  using weight_type = typename G::weight_type;
  using W = weight_type;
  using Scratch = SearchScratch<W, Queue>;

  /// Per-request summary handed to sinks alongside the scratch.
  struct Response {
    Outcome outcome = Outcome::exhausted;
    std::uint64_t settled = 0;     ///< vertices with exact final distances
    W target_dist = inf<W>();      ///< PointToPoint answer; inf otherwise
    reliability::Status status;    ///< definite resolution (OK = answered)
    /// Analytics scalar answer: PageRank iterations run, WCC component
    /// count, BFS vertices reached, or the triangle count. 0 for the
    /// search kinds.
    std::uint64_t aux = 0;
  };

  /// Time/cancellation bounds for the hardened surface. For try_run
  /// these are *batch-level*: the deadline bounds every request in the
  /// batch, and `cancel` is the parent of each request's own token.
  struct ServeOptions {
    reliability::Deadline deadline{};                  ///< absolute budget (none = unbounded)
    const reliability::CancelToken* cancel = nullptr;  ///< caller-owned; must outlive the call
    vertex_t check_every = kDefaultCheckEvery;         ///< poll cadence in settled vertices
  };

  /// Admission control for try_run: 0 = unbounded (the default).
  using Admission = AdmissionConfig;

  /// Engine-lifetime tallies (atomic; readable any time). The
  /// admission ones are folded in from each batch's gate as the batch
  /// ends.
  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t settled = 0;
    std::uint64_t early_exits = 0;     ///< answered before exhausting the component
    std::uint64_t scratch_allocs = 0;
    std::uint64_t scratch_reuses = 0;
    std::uint64_t blocked = 0;         ///< admissions that waited for a slot
    std::uint64_t rejected = 0;        ///< resolved OVERLOADED at admission
    std::uint64_t shed = 0;            ///< victims cancelled to admit newer work
    std::uint64_t aborted = 0;         ///< tasks that threw (resolved CANCELLED)
    std::uint64_t lease_failures = 0;  ///< RESOURCE_EXHAUSTED after retries
    std::uint64_t deadline_rejects = 0;  ///< kBlock shed: half the budget spent queueing
  };

  explicit QueryEngine(const G& g) : g_(g), n_(g.num_vertices()), ws_(g) {}

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  [[nodiscard]] Stats stats() const noexcept {
    const auto lp = scratch_pool_.stats();
    return Stats{requests_.load(std::memory_order_relaxed),
                 settled_.load(std::memory_order_relaxed),
                 early_exits_.load(std::memory_order_relaxed),
                 lp.allocs,
                 lp.reuses,
                 blocked_.load(std::memory_order_relaxed),
                 rejected_.load(std::memory_order_relaxed),
                 shed_.load(std::memory_order_relaxed),
                 aborted_.load(std::memory_order_relaxed),
                 lease_failures_.load(std::memory_order_relaxed),
                 deadline_rejects_.load(std::memory_order_relaxed)};
  }

  [[nodiscard]] const G& graph() const noexcept { return g_; }

  // -------------------------------------------------------- configuration

  /// Bounds concurrent requests in try_run. Configuration call — make
  /// it before traffic.
  void set_admission(Admission a) noexcept { admission_ = a; }
  [[nodiscard]] Admission admission() const noexcept { return admission_; }

  /// Caps the scratch pool (0 = unbounded). With a cap below the
  /// worker count, excess concurrent requests see transient
  /// RESOURCE_EXHAUSTED after the lease retries with backoff.
  void set_scratch_capacity(std::size_t cap) noexcept { scratch_pool_.set_capacity(cap); }

  /// Backoff schedule for transient scratch-lease failures (the
  /// per-request deadline overrides the policy's own).
  void set_lease_backoff(reliability::BackoffPolicy p) noexcept { lease_backoff_ = p; }

  /// LLC budget driving the analytics propagation-blocking bin layout
  /// (default 2 MiB). Configuration call — make it before traffic.
  void set_llc_bytes(std::size_t bytes) noexcept { llc_bytes_ = bytes; }

  /// Same, from a memsim machine model (L3 when present, else L2).
  void set_llc_machine(const memsim::MachineConfig& machine) noexcept {
    llc_bytes_ = machine.has_l3() ? machine.l3.size_bytes : machine.l2.size_bytes;
  }

  /// Drops the cached analytics views (degrees, symmetrized CSR,
  /// triangle orientation). Call after mutating a DynamicOverlay, at a
  /// quiescent point — the same contract as the graph view itself.
  void refresh_analytics() noexcept { ws_.invalidate(); }

  // ------------------------------------------------------ batch serving

  /// The non-throwing batch: every request resolves with a definite
  /// status exactly once, whatever happens — validation failure,
  /// deadline, cancellation, admission reject/shed, scratch
  /// exhaustion, or a task that throws (resolved CANCELLED "task
  /// aborted"). `sink(index, request, response, scratch)` fires on the
  /// worker that finished the request; the scratch reference
  /// (dist/parent/touched/settled_order for the explored region) is
  /// only valid inside the sink call. An exception a sink throws inside
  /// a task is swallowed once the group has drained (no leaked tasks),
  /// and the affected request is re-delivered once with a CANCELLED
  /// status through a swallow-all sink call.
  template <typename Sink>
  void try_run(std::span<const Request<W>> requests, parallel::TaskPool& pool,
               const ServeOptions& opts, Sink&& sink) {
    run_batch(requests, pool, opts, admission_, sink, nullptr);
  }

  /// Materialized form: one definite-status Response per request,
  /// index-aligned.
  [[nodiscard]] std::vector<Response> try_run(std::span<const Request<W>> requests,
                                              parallel::TaskPool& pool,
                                              const ServeOptions& opts = {}) {
    std::vector<Response> out(requests.size());
    try_run(requests, pool, opts,
            [&out](std::size_t i, const Request<W>&, const Response& r, const Scratch&) {
              out[i] = r;
            });
    return out;
  }

  /// The throwing form of try_run, without an admission cap: every
  /// request is validated before any runs (PreconditionError), only
  /// answered requests reach the sink, and once the batch has drained
  /// the first failure is rethrown (see the header comment).
  template <typename Sink>
  void run(std::span<const Request<W>> requests, parallel::TaskPool& pool, Sink&& sink) {
    for (const auto& req : requests) validate(req);
    FirstFailure failure;
    run_batch(
        requests, pool, ServeOptions{}, Admission{},
        [&](std::size_t i, const Request<W>& req, const Response& r, const Scratch& sc) {
          if (r.status.is_ok()) {
            sink(i, req, r, sc);
          } else {
            failure.note(r.status);
          }
        },
        &failure);
    failure.rethrow();
  }

  /// Materialized form: just the per-request summaries (the sink form
  /// is the zero-copy path for payload-carrying answers).
  [[nodiscard]] std::vector<Response> run(std::span<const Request<W>> requests,
                                          parallel::TaskPool& pool) {
    std::vector<Response> out(requests.size());
    run(requests, pool,
        [&out](std::size_t i, const Request<W>&, const Response& r, const Scratch&) {
          out[i] = r;
        });
    return out;
  }

  // ------------------------------------- serial helpers (caller thread)

  /// The non-throwing single request: always returns a Response with a
  /// definite status; `fn(response, scratch)` fires exactly once (with
  /// the empty scratch when no search ran — see the status contract in
  /// the header comment) before the scratch is returned to the lease
  /// pool. Thread-safe, no admission control (admission bounds
  /// batches; a serial caller is its own backpressure).
  template <typename Fn>
  Response try_serve(const Request<W>& req, const ServeOptions& opts, Fn&& fn) {
    return serve_one(req, opts, fn, nullptr);
  }

  Response try_serve(const Request<W>& req, const ServeOptions& opts = {}) {
    return try_serve(req, opts, [](const Response&, const Scratch&) {});
  }

  /// The throwing form of try_serve: PreconditionError on an invalid
  /// request, `fn` sees only an answered request, and a failure is
  /// rethrown (see the header comment). Thread-safe.
  template <typename Fn>
  void serve(const Request<W>& req, Fn&& fn) {
    validate(req);
    FirstFailure failure;
    const auto only_answers = [&](const Response& r, const Scratch& sc) {
      if (r.status.is_ok()) {
        fn(r, sc);
      } else {
        failure.note(r.status);
      }
    };
    serve_one(req, {}, only_answers, &failure);
    failure.rethrow();
  }

  /// Exact shortest distance source→target (inf when unreachable).
  [[nodiscard]] W distance(vertex_t source, vertex_t target) {
    W out = inf<W>();
    serve(Request<W>{PointToPoint{source, target}},
          [&](const Response& r, const Scratch&) { out = r.target_dist; });
    return out;
  }

  struct NearItem {
    vertex_t vertex;
    W dist;
    friend bool operator==(const NearItem&, const NearItem&) = default;
  };

  /// The (up to) k nearest vertices, nearest first (source included,
  /// distance 0). Fewer than k when the component is smaller.
  [[nodiscard]] std::vector<NearItem> k_nearest(vertex_t source, vertex_t k) {
    return near_items(Request<W>{KNearest{source, k}});
  }

  /// Every vertex within `radius` of source (inclusive), nearest first.
  [[nodiscard]] std::vector<NearItem> within(vertex_t source, W radius) {
    return near_items(Request<W>{Bounded<W>{source, radius}});
  }

  struct Tree {
    std::vector<W> dist;
    std::vector<vertex_t> parent;
  };

  /// The full single-source tree, materialized.
  [[nodiscard]] Tree full(vertex_t source) {
    Tree out;
    serve(Request<W>{FullSSSP{source}}, [&](const Response&, const Scratch& sc) {
      out.dist = sc.dist();
      out.parent = sc.parent();
    });
    return out;
  }

 private:
  /// What the throwing surfaces rethrow: the first exception a request
  /// raised (from execute or from a sink), else the first non-OK
  /// status as a std::runtime_error. A DataLossError therefore reaches
  /// serve's caller as itself (Router::fetch_tree maps it to DATA_LOSS).
  struct FirstFailure {
    std::mutex mu;
    std::exception_ptr cause;
    reliability::Status status;

    void note(const reliability::Status& st) {
      const std::lock_guard<std::mutex> lock(mu);
      if (status.is_ok()) status = st;
    }
    void note_exception() {
      const std::lock_guard<std::mutex> lock(mu);
      if (!cause) cause = std::current_exception();
    }
    void rethrow() const {
      if (cause) std::rethrow_exception(cause);
      if (!status.is_ok()) throw std::runtime_error(status.to_string());
    }
  };

  /// The one single-request path under serve and try_serve.
  template <typename Fn>
  Response serve_one(const Request<W>& req, const ServeOptions& opts, Fn& fn,
                     FirstFailure* failure) {
    tel_clock::time_point t_submit{}, e0{}, e1{};
    if constexpr (obs::kTelemetryEnabled) t_submit = tel_clock::now();
    Response resp;
    resp.status = validate_status(req);
    if (!resp.status.is_ok()) {
      CG_COUNTER_INC("reliability.requests.invalid");
      if constexpr (obs::kTelemetryEnabled) {
        finish_telemetry(req, resp, nullptr, opts, false, t_submit, {}, {}, {}, {});
      }
      fn(static_cast<const Response&>(resp), empty_);
      return resp;
    }
    reliability::Status lease_status;
    auto lease = acquire_scratch(opts.deadline, lease_status);
    if (!lease) {
      resp.status = lease_status;
      if constexpr (obs::kTelemetryEnabled) {
        finish_telemetry(req, resp, nullptr, opts, false, t_submit, {}, {}, {}, {});
      }
      fn(static_cast<const Response&>(resp), empty_);
      return resp;
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    if constexpr (obs::kTelemetryEnabled) e0 = tel_clock::now();
    bool searched = false;
    try {
      resp = execute(req, lease->get(), opts);
      searched = true;
      if constexpr (obs::kTelemetryEnabled) {
        e1 = tel_clock::now();
        // Serial surface: no queue, no admission — submit is admit is
        // start, so the record's waits are zero and compute dominates.
        finish_telemetry(req, resp, &lease->get(), opts, false, t_submit, t_submit, t_submit,
                         e0, e1);
      }
      fn(static_cast<const Response&>(resp), static_cast<const Scratch&>(lease->get()));
    } catch (...) {
      resp = Response{};
      resp.status = exception_status(failure);
      if constexpr (obs::kTelemetryEnabled) {
        // execute() itself threw (the search never resolved); the
        // success path above already recorded resolved requests.
        if (!searched) {
          finish_telemetry(req, resp, nullptr, opts,
                           resp.status.code() == reliability::StatusCode::kCancelled, t_submit,
                           t_submit, t_submit, e0, tel_clock::now());
        }
      } else {
        (void)searched;
      }
      fn(static_cast<const Response&>(resp), empty_);
    }
    return resp;
  }

  /// The one batch loop under run and try_run (see try_run); `adm`
  /// bounds the batch through one AdmissionGate.
  template <typename Sink>
  void run_batch(std::span<const Request<W>> requests, parallel::TaskPool& pool,
                 const ServeOptions& opts, const Admission& adm, Sink&& sink,
                 FirstFailure* failure) {
    CG_TRACE_SPAN("query.run");
    const std::size_t m = requests.size();
    // Stable-address per-request tokens, each parented on the batch
    // token: shed cancels one, the caller's token cancels all.
    std::vector<std::unique_ptr<reliability::CancelToken>> tokens;
    tokens.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
      tokens.push_back(std::make_unique<reliability::CancelToken>(opts.cancel));
    }
    std::vector<char> resolved(m, 0);  // distinct-index writes; read after wait()
    AdmissionGate gate(adm);
    // kBlock helps drain the pool rather than spin — on a 1-thread
    // pool this is the only way a slot ever frees.
    const auto help_pool = [&pool] {
      if (!pool.help_one()) std::this_thread::yield();
    };

    std::vector<tel_clock::time_point> t_submit, t_admit;
    if constexpr (obs::kTelemetryEnabled) {
      t_submit.resize(m);
      t_admit.resize(m);
    }
    {
      parallel::TaskGroup group(pool);
      for (std::size_t i = 0; i < m; ++i) {
        const Request<W>& req = requests[i];
        if constexpr (obs::kTelemetryEnabled) t_submit[i] = tel_clock::now();
        Response early;
        early.status = preflight(req, opts);
        if (early.status.is_ok()) {
          early.status = gate.enter(*tokens[i], opts.cancel, opts.deadline, help_pool);
        }
        if (!early.status.is_ok()) {
          resolved[i] = 1;
          if constexpr (obs::kTelemetryEnabled) {
            // Never ran: the whole life was spent (blocked) in
            // admission, which finish_telemetry books as admission wait.
            finish_telemetry(req, early, nullptr, opts, /*aborted=*/false, t_submit[i], {}, {},
                             {}, {});
          }
          sink(i, req, static_cast<const Response&>(early), empty_);
          continue;
        }
        if constexpr (obs::kTelemetryEnabled) {
          t_admit[i] = tel_clock::now();
          static obs::Gauge& g_in_flight = obs::MetricsRegistry::instance().gauge("query.in_flight");
          g_in_flight.set(static_cast<double>(gate.in_flight()));
        }
        group.run([this, i, &req, &sink, &opts, &tokens, &resolved, &gate, &t_submit, &t_admit,
                   &pool, failure] {
          Response resp;
          bool scratch_valid = false;
          tel_clock::time_point t_start{}, e0{}, e1{};
          if constexpr (obs::kTelemetryEnabled) t_start = tel_clock::now();
          reliability::Status lease_status;
          auto lease = acquire_scratch(opts.deadline, lease_status);
          if (!lease) {
            resp.status = lease_status;
          } else {
            ServeOptions per = opts;
            per.cancel = tokens[i].get();
            if constexpr (obs::kTelemetryEnabled) e0 = tel_clock::now();
            try {
              resp = execute(req, lease->get(), per, &pool);
              scratch_valid = true;
            } catch (...) {
              resp = Response{};
              resp.status = exception_status(failure);
            }
            if constexpr (obs::kTelemetryEnabled) e1 = tel_clock::now();
          }
          if constexpr (obs::kTelemetryEnabled) {
            const bool aborted =
                !scratch_valid && lease && resp.status.code() == reliability::StatusCode::kCancelled;
            finish_telemetry(req, resp, scratch_valid ? &lease->get() : nullptr, opts, aborted,
                             t_submit[i], t_admit[i], t_start, e0, e1);
          }
          // Bookkeeping before the sink: a throwing sink must not
          // leak its admission slot or its shed-victim entry.
          gate.leave(*tokens[i]);
          requests_.fetch_add(1, std::memory_order_relaxed);
          sink(i, req, static_cast<const Response&>(resp),
               scratch_valid ? static_cast<const Scratch&>(lease->get()) : empty_);
          resolved[i] = 1;
        });
      }
      try {
        group.wait();
      } catch (...) {
        // A sink threw. The group is already drained (wait rethrows
        // only after pending hits zero), so only re-delivery remains.
        note_abort();
        if (failure != nullptr) failure->note_exception();
      }
    }
    // Definite-status backfill: anything unresolved (a sink that threw
    // mid-delivery) gets exactly one more delivery, swallow-all.
    for (std::size_t i = 0; i < m; ++i) {
      if (resolved[i]) continue;
      Response resp;
      resp.status = reliability::cancelled("task aborted: sink threw during delivery");
      try {
        sink(i, requests[i], static_cast<const Response&>(resp), empty_);
      } catch (...) {  // NOLINT(bugprone-empty-catch) — backfill is best-effort
      }
    }
    const auto gs = gate.stats();
    blocked_.fetch_add(gs.blocked, std::memory_order_relaxed);
    rejected_.fetch_add(gs.rejected, std::memory_order_relaxed);
    shed_.fetch_add(gs.shed, std::memory_order_relaxed);
    deadline_rejects_.fetch_add(gs.deadline_rejects, std::memory_order_relaxed);
    CG_COUNTER_INC("query.runs");
    pool.flush_counters();
    if constexpr (obs::kTelemetryEnabled) sample_gauges(pool);
  }

  /// The status of the exception in flight (call from a catch block):
  /// a damaged block is DATA_LOSS, anything else aborts the request
  /// (CANCELLED "task aborted"). `failure`, when given, keeps it for
  /// the throwing surfaces to rethrow.
  reliability::Status exception_status(FirstFailure* failure) {
    if (failure != nullptr) failure->note_exception();
    try {
      throw;
    } catch (const reliability::DataLossError& e) {
      // An out-of-core graph hit a corrupt/unreadable block mid-scan:
      // the stored data is damaged, not the request.
      CG_COUNTER_INC("reliability.requests.data_loss");
      return reliability::data_loss(e.what());
    } catch (const std::exception& e) {
      note_abort();
      return reliability::cancelled(std::string("task aborted: ") + e.what());
    } catch (...) {
      note_abort();
      return reliability::cancelled("task aborted: unknown exception");
    }
  }

  /// The throwing surfaces' validation: validate_status as a
  /// PreconditionError.
  void validate(const Request<W>& req) const {
    if (auto st = validate_status(req); !st.is_ok()) throw PreconditionError(st.message());
  }

  /// k_nearest / within: the settled region, nearest first.
  [[nodiscard]] std::vector<NearItem> near_items(const Request<W>& req) {
    std::vector<NearItem> out;
    serve(req, [&](const Response&, const Scratch& sc) {
      out.reserve(sc.settled_order().size());
      for (const vertex_t v : sc.settled_order()) {
        out.push_back(NearItem{v, sc.dist()[static_cast<std::size_t>(v)]});
      }
    });
    return out;
  }

  /// The one validator: a malformed request is production traffic on
  /// the status surfaces, not a programmer error.
  [[nodiscard]] reliability::Status validate_status(const Request<W>& req) const {
    return std::visit(
        [this](const auto& r) -> reliability::Status {
          using R = std::decay_t<decltype(r)>;
          if constexpr (requires { r.source; }) {
            if (r.source < 0 || r.source >= n_) {
              return reliability::invalid_argument("query source out of range");
            }
          }
          if constexpr (std::is_same_v<R, PointToPoint>) {
            if (r.target < 0 || r.target >= n_) {
              return reliability::invalid_argument("query target out of range");
            }
          } else if constexpr (std::is_same_v<R, KNearest>) {
            if (r.k < 1) return reliability::invalid_argument("k_nearest needs k >= 1");
          } else if constexpr (std::is_same_v<R, Bounded<W>>) {
            if (r.radius < W{0}) {
              return reliability::invalid_argument("bounded query needs a non-negative radius");
            }
          } else if constexpr (std::is_same_v<R, PageRank>) {
            if (!(r.damping > 0.0 && r.damping < 1.0)) {
              return reliability::invalid_argument("pagerank damping must be in (0, 1)");
            }
            if (r.max_iters < 1) {
              return reliability::invalid_argument("pagerank needs max_iters >= 1");
            }
            if (!(r.tol >= 0.0)) {
              return reliability::invalid_argument("pagerank tol must be non-negative");
            }
            if (r.out.size() != static_cast<std::size_t>(n_)) {
              return reliability::invalid_argument(
                  "pagerank out span must have num_vertices entries");
            }
          } else if constexpr (std::is_same_v<R, Wcc>) {
            if (r.out.size() != static_cast<std::size_t>(n_)) {
              return reliability::invalid_argument("wcc out span must have num_vertices entries");
            }
          } else if constexpr (std::is_same_v<R, BfsFromSet>) {
            if (r.out.size() != static_cast<std::size_t>(n_)) {
              return reliability::invalid_argument(
                  "bfs_from_set out span must have num_vertices entries");
            }
            for (const vertex_t src : r.sources) {
              if (src < 0 || src >= n_) {
                return reliability::invalid_argument("bfs_from_set source out of range");
              }
            }
          } else if constexpr (std::is_same_v<R, MultiTarget>) {
            if (r.targets.empty()) {
              return reliability::invalid_argument("multi_target needs at least one target");
            }
            for (const vertex_t t : r.targets) {
              if (t < 0 || t >= n_) {
                return reliability::invalid_argument("multi_target target out of range");
              }
            }
          }
          return {};
        },
        req);
  }

  /// Submitting-thread checks for one batched request: validation,
  /// then the batch cancel/deadline. OK means "go to admission".
  reliability::Status preflight(const Request<W>& req, const ServeOptions& opts) {
    auto st = validate_status(req);
    if (!st.is_ok()) {
      CG_COUNTER_INC("reliability.requests.invalid");
      return st;
    }
    if (opts.cancel != nullptr && opts.cancel->cancelled()) {
      CG_COUNTER_INC("reliability.requests.cancelled");
      return reliability::cancelled("batch cancelled before start");
    }
    if (opts.deadline.expired()) {
      CG_COUNTER_INC("reliability.requests.deadline_exceeded");
      return reliability::deadline_exceeded("batch budget spent before start");
    }
    return {};
  }

  /// Scratch lease with transient-failure retry, bounded by the
  /// request deadline. Empty optional ⇒ `out` explains why
  /// (RESOURCE_EXHAUSTED, or DEADLINE_EXCEEDED when the budget ran
  /// out mid-retry).
  [[nodiscard]] std::optional<typename parallel::LeasePool<Scratch>::Lease> acquire_scratch(
      const reliability::Deadline& deadline, reliability::Status& out) {
    std::optional<typename parallel::LeasePool<Scratch>::Lease> lease;
    reliability::BackoffPolicy policy = lease_backoff_;
    if (deadline.armed()) policy.deadline = deadline;
    out = reliability::retry_status(
        [&]() -> reliability::Status {
          lease = scratch_pool_.try_acquire([this] { return std::make_unique<Scratch>(n_); });
          if (lease) return {};
          return reliability::resource_exhausted("scratch pool at capacity");
        },
        policy);
    if (!lease && out.code() == reliability::StatusCode::kResourceExhausted) {
      lease_failures_.fetch_add(1, std::memory_order_relaxed);
      CG_COUNTER_INC("reliability.requests.exhausted");
    }
    return lease;
  }

  void note_abort() noexcept {
    aborted_.fetch_add(1, std::memory_order_relaxed);
    CG_COUNTER_INC("reliability.requests.aborted");
  }

  using tel_clock = std::chrono::steady_clock;

  /// Builds one finished request's RequestRecord and fans it out
  /// (histograms + flight recorder via obs::note_request, plus a
  /// retrospective queue-wait child span when a trace session is
  /// installed). Zero time_points mean "that stage never happened":
  /// admit == {} books the whole submit→now interval as admission wait
  /// (the request died in preflight), e0 == e1 == {} means no search
  /// ran. Call sites are `if constexpr (obs::kTelemetryEnabled)`-gated.
  void finish_telemetry(const Request<W>& req, const Response& resp, const Scratch* sc,
                        const ServeOptions& opts, bool aborted, tel_clock::time_point submit,
                        tel_clock::time_point admit, tel_clock::time_point start,
                        tel_clock::time_point e0, tel_clock::time_point e1) {
    const auto now = tel_clock::now();
    const auto ns = [](tel_clock::duration d) -> std::uint64_t {
      const auto v = std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
      return v <= 0 ? 0 : static_cast<std::uint64_t>(v);
    };
    obs::RequestRecord rec;
    rec.kind = kind_index_of(req);
    rec.source = static_cast<std::int32_t>(source_of(req));
    if (const auto* p = std::get_if<PointToPoint>(&req)) {
      rec.target = static_cast<std::int32_t>(p->target);
    }
    rec.status_code = static_cast<std::uint8_t>(resp.status.code());
    rec.outcome = static_cast<std::uint8_t>(resp.outcome);
    rec.aborted = aborted;
    rec.settled = resp.settled;
    rec.relaxations = sc != nullptr ? sc->relaxations() : 0;
    rec.admission_wait_ns =
        admit == tel_clock::time_point{} ? ns(now - submit) : ns(admit - submit);
    if (start != tel_clock::time_point{} && admit != tel_clock::time_point{}) {
      rec.queue_wait_ns = ns(start - admit);
    }
    rec.compute_ns = ns(e1 - e0);
    rec.total_ns = ns(now - submit);
    if (opts.deadline.armed()) {
      rec.had_deadline = true;
      rec.deadline_slack_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(opts.deadline.when() - now)
              .count();
    }
    obs::note_request(rec);
    if (auto* session = obs::TraceSession::current()) {
      if (admit != tel_clock::time_point{} && start != tel_clock::time_point{} &&
          start > admit) {
        session->complete("queue_wait", admit, start);
      }
    }
  }

  /// Batch-boundary gauge sample + periodic-snapshot poll.
  void sample_gauges(parallel::TaskPool& pool) {
    auto& mr = obs::MetricsRegistry::instance();
    static obs::Gauge& g_depth = mr.gauge("parallel.pool.queue_depth");
    static obs::Gauge& g_out = mr.gauge("query.scratch.outstanding");
    static obs::Gauge& g_free = mr.gauge("query.scratch.available");
    g_depth.set(static_cast<double>(pool.queued()));
    g_out.set(static_cast<double>(scratch_pool_.outstanding()));
    g_free.set(static_cast<double>(scratch_pool_.available()));
    mr.poll_snapshot();
  }

  Response execute(const Request<W>& req, Scratch& sc, const ServeOptions& opts = {},
                   parallel::TaskPool* pool = nullptr) {
    if (CG_FAULT_FIRE(reliability::FaultSite::kTaskThrow)) {
      throw reliability::InjectedFault("query.execute");
    }
    if (is_analytics(req)) return execute_analytics(req, sc, opts, pool);
    Limits<W> lim;
    lim.cancel = opts.cancel;
    lim.deadline = opts.deadline;
    lim.check_every = opts.check_every;
    vertex_t target = kNoVertex;
    std::visit(
        [&](const auto& r) {
          using R = std::decay_t<decltype(r)>;
          if constexpr (std::is_same_v<R, PointToPoint>) {
            lim.target = target = r.target;
            CG_COUNTER_INC("query.requests.point_to_point");
          } else if constexpr (std::is_same_v<R, KNearest>) {
            lim.k = r.k;
            CG_COUNTER_INC("query.requests.k_nearest");
          } else if constexpr (std::is_same_v<R, Bounded<W>>) {
            lim.radius = r.radius;
            CG_COUNTER_INC("query.requests.bounded");
          } else if constexpr (std::is_same_v<R, FullSSSP>) {
            CG_COUNTER_INC("query.requests.full_sssp");
          } else if constexpr (std::is_same_v<R, MultiTarget>) {
            lim.targets = r.targets;
            CG_COUNTER_INC("query.requests.multi_target");
          }
        },
        req);

    const obs::TraceSpan span(kind_of(req));
    Response resp;
    resp.outcome = search<Queue>(g_, source_of(req), lim, sc);
    resp.settled = sc.settled_order().size();
    if (target != kNoVertex) {
      // Settled ⇒ exact; otherwise the search exhausted the component
      // without reaching it, and dist() already says inf.
      resp.target_dist = sc.dist()[static_cast<std::size_t>(target)];
    }
    if (resp.outcome == Outcome::cancelled) {
      resp.status = reliability::cancelled("cancel token fired");
      CG_COUNTER_INC("reliability.requests.cancelled");
    } else if (resp.outcome == Outcome::deadline_exceeded) {
      resp.status = reliability::deadline_exceeded("request budget spent");
      CG_COUNTER_INC("reliability.requests.deadline_exceeded");
    }
    settled_.fetch_add(resp.settled, std::memory_order_relaxed);
    if (resp.status.is_ok() && resp.outcome != Outcome::exhausted) {
      early_exits_.fetch_add(1, std::memory_order_relaxed);
      CG_COUNTER_INC("query.early_exits");
    }
    return resp;
  }

  /// The analytics kinds: frontier kernels over leased
  /// analytics::Scratch, parallel when the batch surface hands its
  /// pool through (serial on serve/try_serve — a serial caller is its
  /// own parallelism budget). The request's cancel/deadline are polled
  /// once per frontier round; `check_every` does not apply (rounds are
  /// the poll cadence). The search scratch is reset so sinks see no
  /// stale distances riding along with an analytics response.
  Response execute_analytics(const Request<W>& req, Scratch& sc, const ServeOptions& opts,
                             parallel::TaskPool* pool) {
    sc.reset();
    const obs::TraceSpan span(kind_of(req));
    const analytics::Budget budget{opts.cancel, opts.deadline};
    const auto lease =
        analytics_pool_.acquire([] { return std::make_unique<analytics::Scratch>(); });
    analytics::Scratch& asc = lease.get();
    asc.set_llc_bytes(llc_bytes_);

    Response resp;
    analytics::Stop stop = analytics::Stop::done;
    if (const auto* pr = std::get_if<PageRank>(&req)) {
      CG_COUNTER_INC("query.requests.pagerank");
      const analytics::PageRankParams params{pr->damping, pr->max_iters, pr->tol, pr->binned};
      const auto st = analytics::pagerank(g_, ws_, asc, params, pr->out, pool, budget);
      stop = st.stop;
      resp.aux = st.iterations;
      resp.settled = stop == analytics::Stop::done ? static_cast<std::uint64_t>(n_) : 0;
    } else if (const auto* wc = std::get_if<Wcc>(&req)) {
      CG_COUNTER_INC("query.requests.wcc");
      const analytics::WccParams params{wc->binned};
      const auto st = analytics::wcc(g_, ws_, asc, params, wc->out, pool, budget);
      stop = st.stop;
      resp.aux = static_cast<std::uint64_t>(st.components);
      resp.settled = stop == analytics::Stop::done ? static_cast<std::uint64_t>(n_) : 0;
    } else if (const auto* bf = std::get_if<BfsFromSet>(&req)) {
      CG_COUNTER_INC("query.requests.bfs_from_set");
      const analytics::BfsParams params{bf->binned};
      const auto st = analytics::bfs_from_set(g_, asc, params, bf->sources, bf->out, pool, budget);
      stop = st.stop;
      resp.aux = st.reached;
      resp.settled = stop == analytics::Stop::done ? st.reached : 0;
    } else {
      CG_COUNTER_INC("query.requests.triangle_count");
      const auto st = analytics::triangles(g_, ws_, asc, pool, budget);
      stop = st.stop;
      resp.aux = st.triangles;
      resp.settled = stop == analytics::Stop::done ? static_cast<std::uint64_t>(n_) : 0;
    }

    if (stop == analytics::Stop::cancelled) {
      resp.outcome = Outcome::cancelled;
      resp.status = reliability::cancelled("cancel token fired");
      CG_COUNTER_INC("reliability.requests.cancelled");
    } else if (stop == analytics::Stop::deadline) {
      resp.outcome = Outcome::deadline_exceeded;
      resp.status = reliability::deadline_exceeded("request budget spent");
      CG_COUNTER_INC("reliability.requests.deadline_exceeded");
    }
    settled_.fetch_add(resp.settled, std::memory_order_relaxed);
    return resp;
  }

  const G& g_;
  vertex_t n_;
  const Scratch empty_{0};  ///< zero-vertex scratch for failed requests
  parallel::LeasePool<Scratch> scratch_pool_;
  analytics::Workspace<G> ws_;
  parallel::LeasePool<analytics::Scratch> analytics_pool_;
  std::size_t llc_bytes_ = analytics::Scratch::kDefaultLlcBytes;
  Admission admission_{};
  reliability::BackoffPolicy lease_backoff_{};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> settled_{0};
  std::atomic<std::uint64_t> early_exits_{0};
  std::atomic<std::uint64_t> blocked_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> aborted_{0};
  std::atomic<std::uint64_t> lease_failures_{0};
  std::atomic<std::uint64_t> deadline_rejects_{0};
};

}  // namespace cachegraph::query
