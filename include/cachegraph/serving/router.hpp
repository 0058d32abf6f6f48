// serving::Router — the sharded multi-tenant front door.
//
// One Router owns S shards (see shard.hpp), a StitchedView over them,
// a QueryEngine over that view, a Coalescer, and a per-tenant
// admission layer. Requests dispatch by kind:
//
//   PointToPoint      → boundary-stitch portal search (below)
//   FullSSSP          → coalesced compute over the stitched view
//   everything else   → the stitched-view engine directly (k-nearest,
//                       bounded, multi-target, and the analytics kinds
//                       are whole-frontier shapes; sharding buys them
//                       locality, not a smaller algorithm)
//
// ## Boundary stitching (the point-to-point fast path)
//
// Every s→t walk decomposes uniquely into maximal intra-shard segments
// joined by cut edges. Each segment starts at s or at a cut-edge head
// ("entry") and ends at a cut-edge tail ("exit") or at t, and — being
// maximal — stays inside one shard, so its minimal cost is an
// *intra-shard* shortest distance, exactly what a shard-local search
// computes. Define the portal graph: nodes are {s, t} ∪ entries, with
// an arc x→y of weight dloc(x, e) + w(e→y) for every exit e reachable
// from x inside x's shard and every cut edge e→y, plus x→t of weight
// dloc(x, t) when t shares x's shard. By the decomposition, walks
// s⇝t in the original graph and in the portal graph have matching
// costs in both directions, so the portal shortest path *is* the
// global shortest path — serving_test pins this against the
// single-engine oracle across shard counts, including paths that
// re-cross the cut repeatedly.
//
// The portal search runs Dijkstra over portal nodes, computing each
// popped node's dloc row on demand: a MultiTarget probe to the shard's
// exits (stops the instant the set settles), or — for entry nodes when
// `cache_portals` is on — the shard ResultCache's full local tree
// (hot entries amortize to a lookup, and component stamps invalidate
// them across intra-shard mutations for free; cached computes are not
// deadline-interruptible, so latency-critical setups turn it off).
//
// ## Tenants
//
// add_tenant() registers a quota: max in-flight requests and an
// OverloadPolicy, enforced by the tenant's own query::AdmissionGate
// (admission.hpp — the same ladder QueryEngine::try_run uses). kReject
// resolves OVERLOADED immediately; kShed cancels the tenant's own
// oldest in-flight request (newest wins, blast radius confined to the
// offender); kBlock waits for a slot — but sheds to OVERLOADED once
// half the request's deadline budget has been spent queueing.
//
// ## Replication (cfg.replicas > 1)
//
// Each shard slot becomes a ReplicaSet of R bit-identical Shards with
// per-replica circuit breakers (see replica.hpp / health.hpp). Portal
// rows are served by a healthy replica; a replica-indicting failure
// (DATA_LOSS, phantom timeout, aborted task) fails over to a sibling
// *within the request's remaining deadline*, each failover charged to
// a token-bucket RetryBudget so a sick shard cannot double the fleet's
// offered load (retry.hpp's storm argument, applied to replicas).
// Failover is the router's only retry mechanism.
//
// Degraded mode: a shard whose replicas are all quarantined is pruned
// like a dead end; requests whose answer would then be uncertain (the
// pruned shard might have offered a shorter path) resolve OVERLOADED
// ("unavailable") immediately rather than hanging or guessing, while
// routes that settle before ever touching the dead shard still
// succeed exactly. Whole-graph kinds fail fast when any set is down.
//
// Threading contract: try_serve and the typed helpers are safe from
// any thread concurrently. insert_edge / remove_edge / add_tenant /
// enable_out_of_core require quiescence (no requests in flight).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "cachegraph/common/check.hpp"
#include "cachegraph/common/types.hpp"
#include "cachegraph/graph/adjacency_array.hpp"
#include "cachegraph/obs/counters.hpp"
#include "cachegraph/obs/histogram.hpp"
#include "cachegraph/obs/metrics.hpp"
#include "cachegraph/obs/telemetry.hpp"
#include "cachegraph/parallel/lease_pool.hpp"
#include "cachegraph/query/engine.hpp"
#include "cachegraph/query/request.hpp"
#include "cachegraph/reliability/cancel.hpp"
#include "cachegraph/reliability/retry_budget.hpp"
#include "cachegraph/reliability/status.hpp"
#include "cachegraph/serving/coalescer.hpp"
#include "cachegraph/serving/health.hpp"
#include "cachegraph/serving/partition.hpp"
#include "cachegraph/serving/replica.hpp"
#include "cachegraph/serving/scrubber.hpp"
#include "cachegraph/serving/shard.hpp"
#include "cachegraph/serving/stitched_view.hpp"

namespace cachegraph::serving {

template <Weight W, class Queue = query::IndexedQueue<W>>
class Router {
 public:
  using ShardT = Shard<W, Queue>;
  using SetT = ReplicaSet<W, Queue>;
  using View = StitchedView<W, Queue>;
  using StitchedEngine = query::QueryEngine<View, Queue>;
  using Tree = typename Coalescer<W>::Tree;
  using TreePtr = typename Coalescer<W>::TreePtr;

  struct Config {
    std::uint32_t shards = 1;
    int shard_pool_threads = 1;  ///< each shard's private TaskPool size
    bool cache_portals = true;   ///< entry rows via shard ResultCaches
    vertex_t check_every = query::kDefaultCheckEvery;

    // Replication + failure-domain hardening (see header).
    std::uint32_t replicas = 1;                 ///< replicas per shard
    HealthConfig health{};                      ///< per-replica circuit breaker
    reliability::RetryBudget::Config retry_budget{};  ///< failover token bucket
    std::uint64_t health_seed = 0x5eedULL;      ///< probation-jitter determinism
  };

  struct NearItem {
    vertex_t vertex;
    W dist;
    friend bool operator==(const NearItem&, const NearItem&) = default;
  };

  /// One request's resolution. `tree` is set for FullSSSP only (the
  /// coalesced shared answer); k-nearest/bounded payloads come from
  /// the typed helpers, analytics dense outputs land in the request's
  /// own out spans.
  struct RouteResult {
    reliability::Status status;
    query::Outcome outcome = query::Outcome::exhausted;
    W target_dist = inf<W>();  ///< PointToPoint answer
    std::uint64_t settled = 0;  ///< portal pops (p2p) or engine settled count
    std::uint64_t aux = 0;      ///< analytics scalar (see QueryEngine::Response)
    TreePtr tree;
  };

  using TenantQuota = query::AdmissionConfig;

  struct TenantStats {
    std::uint64_t requests = 0;
    std::uint64_t ok = 0;
    std::uint64_t overloaded = 0;         ///< quota rejections (incl. kBlock budget sheds)
    std::uint64_t blocked = 0;            ///< admissions that waited for a slot
    std::uint64_t shed_victims = 0;       ///< own requests cancelled by kShed
    std::uint64_t deadline_rejects = 0;   ///< kBlock sheds at the half-budget mark
  };

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t portal_pops = 0;       ///< boundary states settled across all p2p
    std::uint64_t portal_probes = 0;     ///< uncached MultiTarget rows computed
    std::uint64_t portal_tree_hits = 0;  ///< rows served from shard ResultCaches
    std::uint64_t failovers = 0;         ///< attempts retried on a sibling replica
    std::uint64_t unavailable = 0;       ///< requests failed fast on a dead shard
    std::uint64_t quarantines = 0;       ///< replica quarantine transitions (all sets)
    std::uint64_t recoveries = 0;        ///< probe recoveries (all sets)
  };

  Router(const graph::AdjacencyArray<W>& global, Config cfg = {})
      : cfg_(cfg),
        part_(global.num_vertices(), cfg.shards),
        retry_budget_(cfg.retry_budget) {
    replica_sets_.reserve(cfg.shards);
    for (std::uint32_t s = 0; s < cfg.shards; ++s) {
      replica_sets_.push_back(std::make_unique<SetT>(global, part_, s, cfg.replicas,
                                                     cfg.shard_pool_threads, cfg.health,
                                                     cfg.health_seed));
    }
    view_ = std::make_unique<View>(part_, replica_sets_);
    stitched_ = std::make_unique<StitchedEngine>(*view_);
  }

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  [[nodiscard]] const Partition& partition() const noexcept { return part_; }
  /// Replica 0 of shard `s` — the single-replica surface older callers
  /// (and geometry lookups) use; all replicas are bit-identical.
  [[nodiscard]] ShardT& shard(std::uint32_t s) noexcept { return replica_sets_[s]->replica(0); }
  [[nodiscard]] SetT& replica_set(std::uint32_t s) noexcept { return *replica_sets_[s]; }
  [[nodiscard]] reliability::RetryBudget& retry_budget() noexcept { return retry_budget_; }
  [[nodiscard]] StitchedEngine& stitched_engine() noexcept { return *stitched_; }
  [[nodiscard]] Coalescer<W>& coalescer() noexcept { return coalescer_; }

  /// Enables the out-of-core mirror on every replica of every shard,
  /// under `<dir>/s<shard>/r<replica>/`. Quiescent-point call.
  [[nodiscard]] reliability::Status enable_out_of_core(const std::filesystem::path& dir,
                                                       std::size_t block_bytes,
                                                       std::size_t budget_blocks) {
    for (auto& rs : replica_sets_) {
      // Two-step concat dodges GCC 12's -Wrestrict false positive on
      // operator+(const char*, string&&) under path::/.
      std::string leaf = "s";
      leaf += std::to_string(rs->shard_id());
      const auto sub = dir / leaf;
      if (auto st = rs->enable_out_of_core(sub, block_bytes, budget_blocks); !st.is_ok()) {
        return st;
      }
    }
    return {};
  }

  /// Scrub targets for every out-of-core replica file, siblings wired
  /// for repair — feed these to a BlockScrubber.
  [[nodiscard]] std::vector<BlockScrubber::Target> scrub_targets() const {
    std::vector<BlockScrubber::Target> out;
    for (const auto& rs : replica_sets_) {
      auto t = rs->scrub_targets();
      out.insert(out.end(), std::make_move_iterator(t.begin()),
                 std::make_move_iterator(t.end()));
    }
    return out;
  }

  [[nodiscard]] Stats stats() const {
    Stats st{requests_.load(std::memory_order_relaxed),
             portal_pops_.load(std::memory_order_relaxed),
             portal_probes_.load(std::memory_order_relaxed),
             portal_tree_hits_.load(std::memory_order_relaxed),
             failovers_.load(std::memory_order_relaxed),
             unavailable_.load(std::memory_order_relaxed),
             0,
             0};
    for (const auto& rs : replica_sets_) {
      const auto s = rs->stats();
      st.quarantines += s.quarantines;
      st.recoveries += s.recoveries;
    }
    return st;
  }

  // ----------------------------------------------------------- tenants

  /// Registers a tenant; the returned id is the `tenant` argument of
  /// try_serve. Configuration call — make it before traffic.
  std::uint32_t add_tenant(const std::string& name, TenantQuota quota) {
    const auto id = static_cast<std::uint32_t>(tenants_.size());
    auto ts = std::make_unique<TenantState>(quota, "tenant '" + name + "'");
    if constexpr (obs::kTelemetryEnabled) {
      // serving.latency_ns.t<id>.<kind>, resolved once per kind.
      const std::string prefix = "serving.latency_ns.t" + std::to_string(id) + ".";
      [&]<std::size_t... K>(std::index_sequence<K...>) {
        ((ts->latency[K] = &obs::MetricsRegistry::instance().histogram(
              prefix + query::kind_of(query::Request<W>(std::in_place_index<K>)))),
         ...);
      }(std::make_index_sequence<kNumKinds>{});
    }
    tenants_.push_back(std::move(ts));
    return id;
  }

  [[nodiscard]] std::size_t num_tenants() const noexcept { return tenants_.size(); }

  [[nodiscard]] TenantStats tenant_stats(std::uint32_t tenant) const {
    const TenantState& ts = *tenants_[tenant];
    const auto g = ts.gate.stats();
    return TenantStats{ts.requests.load(std::memory_order_relaxed),
                       ts.ok.load(std::memory_order_relaxed),
                       g.rejected + g.deadline_rejects,
                       g.blocked,
                       g.shed,
                       g.deadline_rejects};
  }

  // ------------------------------------------------------------ serving

  /// The multi-tenant front door: quota gate, then dispatch by kind.
  /// Every request resolves with a definite status; nothing throws.
  RouteResult try_serve(std::uint32_t tenant, const query::Request<W>& req,
                        const CallOptions& opts = {}) {
    [[maybe_unused]] std::chrono::steady_clock::time_point t0{};
    if constexpr (obs::kTelemetryEnabled) t0 = std::chrono::steady_clock::now();
    RouteResult out;
    if (tenant >= tenants_.size()) {
      out.status = reliability::invalid_argument("unknown tenant id " + std::to_string(tenant));
      return out;
    }
    TenantState& ts = *tenants_[tenant];
    ts.requests.fetch_add(1, std::memory_order_relaxed);
    CG_COUNTER_INC("serving.requests");
    reliability::CancelToken token(opts.cancel);  // what kShed cancels
    out.status = ts.gate.enter(token, opts.cancel, opts.deadline, [] { std::this_thread::yield(); });
    if (!out.status.is_ok()) {
      note_latency(ts, req, t0);
      return out;
    }
    CallOptions inner = opts;
    inner.cancel = &token;
    out = dispatch(req, inner);
    ts.gate.leave(token);
    if (out.status.is_ok()) ts.ok.fetch_add(1, std::memory_order_relaxed);
    note_latency(ts, req, t0);
    return out;
  }

  /// Kind dispatch without a tenant gate — the single-tenant / trusted
  /// surface (tests, tools, warmup).
  RouteResult dispatch(const query::Request<W>& req, const CallOptions& opts = {}) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (const auto* p = std::get_if<query::PointToPoint>(&req)) {
      return point_to_point(p->source, p->target, opts);
    }
    if (const auto* f = std::get_if<query::FullSSSP>(&req)) {
      return full_sssp(f->source, opts);
    }
    return serve_stitched(req, opts);
  }

  /// Exact global shortest distance source→target by boundary
  /// stitching (see the header proof sketch). OK with target_dist =
  /// inf means genuinely unreachable.
  RouteResult point_to_point(vertex_t source, vertex_t target, const CallOptions& opts = {}) {
    RouteResult out;
    const vertex_t n = part_.num_vertices();
    if (source < 0 || source >= n || target < 0 || target >= n) {
      out.status = reliability::invalid_argument("query endpoint out of range");
      return out;
    }
    if (opts.cancel != nullptr && opts.cancel->cancelled()) {
      out.outcome = query::Outcome::cancelled;
      out.status = reliability::cancelled("cancel token fired");
      return out;
    }
    if (opts.deadline.expired()) {
      out.outcome = query::Outcome::deadline_exceeded;
      out.status = reliability::deadline_exceeded("request budget spent");
      return out;
    }
    CG_COUNTER_INC("serving.requests.point_to_point");
    {
      // Degraded mode, fast path: a request whose endpoints live in a
      // dead shard can never resolve — fail it now, not after a walk.
      const auto now = std::chrono::steady_clock::now();
      for (const vertex_t v : {source, target}) {
        const std::uint32_t s = part_.shard_of(v);
        if (!replica_sets_[s]->reachable(now)) {
          out.status = shard_unavailable_status(s);
          unavailable_.fetch_add(1, std::memory_order_relaxed);
          CG_COUNTER_INC("serving.unavailable");
          return out;
        }
      }
    }

    auto lease = portal_pool_.acquire(
        [this] { return std::make_unique<PortalScratch>(part_.num_vertices()); });
    PortalScratch& ps = lease.get();
    ps.reset();
    ps.relax(source, W{0});
    std::uint64_t pops = 0;
    while (!ps.heap.empty()) {
      const auto top = ps.pop();
      const vertex_t x = top.vertex;
      if (ps.done[static_cast<std::size_t>(x)]) continue;  // stale lazy entry
      ps.done[static_cast<std::size_t>(x)] = 1;
      ++pops;
      if (x == target) {
        out.outcome = query::Outcome::target_settled;
        out.target_dist = top.key;
        break;
      }
      // Poll between portal pops: each pop is a whole shard-local
      // search, so per-pop is the natural (coarse) cadence.
      if (opts.cancel != nullptr && opts.cancel->cancelled()) {
        out.outcome = query::Outcome::cancelled;
        out.status = reliability::cancelled("cancel token fired");
        break;
      }
      if (opts.deadline.expired()) {
        out.outcome = query::Outcome::deadline_exceeded;
        out.status = reliability::deadline_exceeded("request budget spent");
        break;
      }
      if (auto st = expand_portal(x, top.key, source, target, opts, ps); !st.is_ok()) {
        out.status = st;
        out.outcome = st.code() == reliability::StatusCode::kCancelled
                          ? query::Outcome::cancelled
                      : st.code() == reliability::StatusCode::kDeadlineExceeded
                          ? query::Outcome::deadline_exceeded
                          : out.outcome;
        break;
      }
    }
    // Drained without settling the target ⇒ unreachable: an answer,
    // not an error (outcome stays exhausted, dist stays inf) — unless
    // the search pruned a dead shard along the way. Then nothing can
    // be certified (neither a settled distance's optimality nor
    // unreachability: the pruned shard might have offered a shorter /
    // the only path), so the honest resolution is "unavailable".
    if (out.status.is_ok() && ps.degraded) {
      out.outcome = query::Outcome::exhausted;
      out.target_dist = inf<W>();
      out.status = reliability::overloaded(
          "route unavailable: a required shard has all replicas quarantined");
      unavailable_.fetch_add(1, std::memory_order_relaxed);
      CG_COUNTER_INC("serving.unavailable");
    }
    out.settled = pops;
    portal_pops_.fetch_add(pops, std::memory_order_relaxed);
    CG_COUNTER_ADD("serving.portal.pops", pops);
    return out;
  }

  /// The coalesced full tree from `source` over the whole stitched
  /// graph. Concurrent identical sources share one compute.
  RouteResult full_sssp(vertex_t source, const CallOptions& opts = {}) {
    RouteResult out;
    CG_COUNTER_INC("serving.requests.full_sssp");
    if (auto st = whole_graph_guard(); !st.is_ok()) {
      out.status = st;
      return out;
    }
    auto res = coalescer_.get(source, opts, [&]() -> std::pair<reliability::Status, TreePtr> {
      auto tree = std::make_shared<Tree>();
      typename StitchedEngine::ServeOptions so = to_serve_options(opts);
      const auto resp = stitched_->try_serve(
          query::Request<W>{query::FullSSSP{source}}, so, [&](const auto& r, const auto& sc) {
            if (!r.status.is_ok()) return;
            tree->dist = sc.dist();
            tree->parent = sc.parent();
          });
      if (!resp.status.is_ok()) return {resp.status, nullptr};
      return {reliability::Status{}, TreePtr(std::move(tree))};
    });
    out.status = res.status;
    out.tree = res.tree;
    if (out.tree != nullptr) out.settled = out.tree->dist.size();
    if (!out.status.is_ok()) {
      out.outcome = out.status.code() == reliability::StatusCode::kCancelled
                        ? query::Outcome::cancelled
                    : out.status.code() == reliability::StatusCode::kDeadlineExceeded
                        ? query::Outcome::deadline_exceeded
                        : out.outcome;
    }
    return out;
  }

  /// Convenience: the exact distance (inf when unreachable; CG_CHECKs
  /// on a non-OK status — use point_to_point for fallible serving).
  [[nodiscard]] W distance(vertex_t source, vertex_t target) {
    const RouteResult r = point_to_point(source, target);
    CG_CHECK(r.status.is_ok(), "distance() on a failed route");
    return r.target_dist;
  }

  /// K-nearest over the stitched graph, (dist, vertex)-sorted so the
  /// answer is comparison-stable across shard layouts even at distance
  /// ties on the k-th place... (ties beyond k still depend on settle
  /// order, exactly as in the single-engine surface).
  reliability::Status k_nearest(vertex_t source, vertex_t k, std::vector<NearItem>& out,
                                const CallOptions& opts = {}) {
    return near_items(query::Request<W>{query::KNearest{source, k}}, out, opts);
  }

  /// Every vertex within `radius`, nearest first (same contract).
  reliability::Status within(vertex_t source, W radius, std::vector<NearItem>& out,
                             const CallOptions& opts = {}) {
    return near_items(query::Request<W>{query::Bounded<W>{source, radius}}, out, opts);
  }

  // --------------------------------------------------------- mutations

  /// Inserts a directed edge (intra- or cross-shard; the owning shard
  /// routes it to its overlay or its cut list). Quiescent-point call.
  /// Shard ResultCache stamps invalidate affected portal rows; the
  /// stitched engine's analytics views rebuild lazily.
  void insert_edge(vertex_t u, vertex_t v, W w) {
    const std::uint32_t s = part_.shard_of(u);
    replica_sets_[s]->insert_edge(u - replica_sets_[s]->replica(0).begin(), v, w, part_);
    stitched_->refresh_analytics();
  }

  /// Removes one live directed edge; false when absent. Quiescent.
  bool remove_edge(vertex_t u, vertex_t v) {
    const std::uint32_t s = part_.shard_of(u);
    const bool removed =
        replica_sets_[s]->remove_edge(u - replica_sets_[s]->replica(0).begin(), v, part_);
    if (removed) stitched_->refresh_analytics();
    return removed;
  }

 private:
  static constexpr std::size_t kNumKinds = std::variant_size_v<query::Request<W>>;

  struct TenantState {
    TenantState(TenantQuota quota, std::string name) : gate(quota, std::move(name)) {}

    query::AdmissionGate gate;  ///< quota, victims, and admission tallies
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> ok{0};
    /// Per-kind latency histograms by variant index (null when
    /// telemetry is compiled out).
    std::array<obs::LatencyHistogram*, kNumKinds> latency{};
  };

  /// Lazy-heap Dijkstra state over portal nodes, leased per request
  /// and reset in O(touched).
  struct PortalScratch {
    struct Entry {
      W key;
      vertex_t vertex;
    };
    struct Greater {
      bool operator()(const Entry& a, const Entry& b) const noexcept { return a.key > b.key; }
    };

    explicit PortalScratch(vertex_t n)
        : dist(static_cast<std::size_t>(n), inf<W>()), done(static_cast<std::size_t>(n), 0) {}

    void reset() noexcept {
      for (const vertex_t v : touched) {
        dist[static_cast<std::size_t>(v)] = inf<W>();
        done[static_cast<std::size_t>(v)] = 0;
      }
      touched.clear();
      heap.clear();
      degraded = false;
    }

    void relax(vertex_t v, W nd) {
      auto& dv = dist[static_cast<std::size_t>(v)];
      if (nd >= dv) return;
      if (is_inf(dv)) touched.push_back(v);
      dv = nd;
      heap.push_back(Entry{nd, v});
      std::push_heap(heap.begin(), heap.end(), Greater{});
    }

    Entry pop() {
      std::pop_heap(heap.begin(), heap.end(), Greater{});
      const Entry e = heap.back();
      heap.pop_back();
      return e;
    }

    std::vector<W> dist;
    std::vector<char> done;
    std::vector<vertex_t> touched;
    std::vector<Entry> heap;
    std::vector<vertex_t> targets_buf;  ///< exit probe target list
    std::vector<W> dists_buf;           ///< probe answer row
    bool degraded = false;  ///< a dead (all-quarantined) shard was pruned
  };

  [[nodiscard]] reliability::Status shard_unavailable_status(std::uint32_t s) const {
    return reliability::overloaded("shard " + std::to_string(s) +
                                   " unavailable: all replicas quarantined");
  }

  /// Did this status resolve by the *client's* intent (their cancel,
  /// their genuinely spent deadline, their bad argument)? Such
  /// resolutions end the request — they indict no replica and justify
  /// no failover.
  [[nodiscard]] static bool client_resolution(const reliability::Status& st,
                                              const CallOptions& opts) {
    switch (st.code()) {
      case reliability::StatusCode::kInvalidArgument:
        return true;
      case reliability::StatusCode::kCancelled:
        return opts.cancel != nullptr && opts.cancel->cancelled();
      case reliability::StatusCode::kDeadlineExceeded:
        return opts.deadline.expired();
      default:
        return false;
    }
  }

  void report_attempt(SetT& rs, std::uint32_t idx, bool probe, const reliability::Status& st,
                      const CallOptions& opts) {
    rs.report(idx, st.code(), probe, client_resolution(st, opts),
              std::chrono::steady_clock::now());
  }

  /// The cached-portal fetch is the one replica call that can *throw*
  /// (get_or_compute runs the compute inline; an injected fault or a
  /// store fault escapes as an exception) — fence it into a Status so
  /// the failover loop can treat it like any failed attempt.
  [[nodiscard]] reliability::Status fetch_tree(ShardT& sh, vertex_t lx,
                                               typename ShardT::Cache::TreePtr& out) {
    try {
      out = sh.local_tree(lx);
      return {};
    } catch (const reliability::DataLossError& e) {
      return reliability::data_loss(e.what());
    } catch (const std::exception& e) {
      return reliability::cancelled(std::string("portal tree compute aborted: ") + e.what());
    }
  }

  /// Settle portal node x at distance dx: compute its shard-local
  /// distance row on a healthy replica (failing over under the retry
  /// budget) and relax every cut edge (and the in-shard target).
  [[nodiscard]] reliability::Status expand_portal(vertex_t x, W dx, vertex_t source,
                                                  vertex_t target, const CallOptions& opts,
                                                  PortalScratch& ps) {
    const std::uint32_t s = part_.shard_of(x);
    SetT& rs = *replica_sets_[s];
    // Geometry (begin/exits/cut lists) is identical across replicas —
    // read it from replica 0; only distance rows route by health.
    ShardT& sh0 = rs.replica(0);
    const vertex_t lx = x - sh0.begin();
    const std::span<const vertex_t> exits = sh0.exits();
    const bool target_here = part_.shard_of(target) == s;
    const vertex_t lt = target_here ? target - sh0.begin() : kNoVertex;

    if (exits.empty() && !target_here) return {};  // dead-end shard

    const auto relax_row = [&](auto dist_of) {
      for (const vertex_t e : exits) {
        const W dloc = dist_of(e);
        if (is_inf(dloc)) continue;
        const W at_exit = sat_add(dx, dloc);
        for (const auto& nb : sh0.cut(e)) ps.relax(nb.to, sat_add(at_exit, nb.weight));
      }
      if (target_here) {
        const W dt = dist_of(lt);
        if (!is_inf(dt)) ps.relax(target, sat_add(dx, dt));
      }
    };

    const bool cached = cfg_.cache_portals && x != source;
    std::uint32_t tried = 0;
    reliability::Status last;
    for (;;) {
      const auto pick = rs.pick(tried, std::chrono::steady_clock::now());
      if (!pick) {
        if (tried == 0) {
          // Degraded mode: every replica quarantined — prune this
          // shard like a dead end; point_to_point resolves the
          // uncertainty at the end of the walk.
          ps.degraded = true;
          return {};
        }
        return last;  // every reachable replica was tried and failed
      }
      tried |= 1u << pick->index;

      reliability::Status st;
      if (cached) {
        // Entry nodes (every portal node except the query's own
        // source) are shared across queries — worth a cached full
        // local tree.
        typename ShardT::Cache::TreePtr tree;
        st = fetch_tree(rs.replica(pick->index), lx, tree);
        report_attempt(rs, pick->index, pick->probe, st, opts);
        if (st.is_ok()) {
          retry_budget_.on_success();
          portal_tree_hits_.fetch_add(1, std::memory_order_relaxed);
          CG_COUNTER_INC("serving.portal.tree_rows");
          relax_row([&](vertex_t lv) { return tree->dist[static_cast<std::size_t>(lv)]; });
          return {};
        }
      } else {
        // The source is query-private; probe it with a bounded
        // MultiTarget.
        st = probe_attempt(rs.replica(pick->index), lx, lt, target_here, exits, opts, ps);
        report_attempt(rs, pick->index, pick->probe, st, opts);
        if (st.is_ok()) {
          retry_budget_.on_success();
          relax_row([&](vertex_t lv) {
            // The probe row is exit-aligned; the (optional) target
            // rides at the back.
            if (lv == lt && target_here) return ps.dists_buf.back();
            const auto it = std::lower_bound(exits.begin(), exits.end(), lv);
            return ps.dists_buf[static_cast<std::size_t>(it - exits.begin())];
          });
          return {};
        }
      }
      last = st;
      if (client_resolution(st, opts)) return st;
      // Failing over costs a retry-budget token — when the bucket is
      // dry the request resolves with what it has (no retry storms).
      if (!retry_budget_.try_acquire()) return st;
      failovers_.fetch_add(1, std::memory_order_relaxed);
      CG_COUNTER_INC("serving.failovers");
    }
  }

  /// One probe attempt on `sh`: on OK, ps.dists_buf holds the row
  /// (exit-aligned, the in-shard target at the back).
  [[nodiscard]] reliability::Status probe_attempt(ShardT& sh, vertex_t lx, vertex_t lt,
                                                  bool target_here,
                                                  std::span<const vertex_t> exits,
                                                  const CallOptions& opts, PortalScratch& ps) {
    ps.targets_buf.assign(exits.begin(), exits.end());
    if (target_here) ps.targets_buf.push_back(lt);
    ps.dists_buf.assign(ps.targets_buf.size(), inf<W>());
    portal_probes_.fetch_add(1, std::memory_order_relaxed);
    CG_COUNTER_INC("serving.portal.probes");
    return sh.local_dists(lx, ps.targets_buf, opts, ps.dists_buf);
  }

  /// Whole-graph kinds (stitched serves, coalesced trees) need every
  /// shard: when any set is unreachable, fail fast — the answer would
  /// either be wrong (missing a subgraph) or hang on faults.
  [[nodiscard]] reliability::Status whole_graph_guard() {
    const auto now = std::chrono::steady_clock::now();
    for (const auto& rs : replica_sets_) {
      if (!rs->reachable(now)) {
        unavailable_.fetch_add(1, std::memory_order_relaxed);
        CG_COUNTER_INC("serving.unavailable");
        return shard_unavailable_status(rs->shard_id());
      }
    }
    return {};
  }

  RouteResult serve_stitched(const query::Request<W>& req, const CallOptions& opts) {
    if (auto st = whole_graph_guard(); !st.is_ok()) {
      RouteResult out;
      out.status = st;
      return out;
    }
    typename StitchedEngine::ServeOptions so = to_serve_options(opts);
    const auto resp = stitched_->try_serve(req, so);
    RouteResult out;
    out.status = resp.status;
    out.outcome = resp.outcome;
    out.target_dist = resp.target_dist;
    out.settled = resp.settled;
    out.aux = resp.aux;
    return out;
  }

  /// k_nearest / within: the stitched search's settled region,
  /// nearest first.
  reliability::Status near_items(const query::Request<W>& req, std::vector<NearItem>& out,
                                 const CallOptions& opts) {
    out.clear();
    if (auto st = whole_graph_guard(); !st.is_ok()) return st;
    const auto resp =
        stitched_->try_serve(req, to_serve_options(opts), [&](const auto& r, const auto& sc) {
          if (!r.status.is_ok()) return;
          out.reserve(sc.settled_order().size());
          for (const vertex_t v : sc.settled_order()) {
            out.push_back(NearItem{v, sc.dist()[static_cast<std::size_t>(v)]});
          }
        });
    return resp.status;
  }

  [[nodiscard]] typename StitchedEngine::ServeOptions to_serve_options(
      const CallOptions& opts) const {
    typename StitchedEngine::ServeOptions so;
    so.deadline = opts.deadline;
    so.cancel = opts.cancel;
    so.check_every = opts.check_every != 0 ? opts.check_every : cfg_.check_every;
    return so;
  }

  /// Per-tenant-per-kind latency histogram
  /// (serving.latency_ns.t<id>.<kind>). Compiled out when
  /// CACHEGRAPH_INSTRUMENT is off — the traffic driver keeps its own
  /// always-on histograms for the bench surface.
  static void note_latency([[maybe_unused]] TenantState& ts,
                           [[maybe_unused]] const query::Request<W>& req,
                           [[maybe_unused]] std::chrono::steady_clock::time_point t0) {
    if constexpr (obs::kTelemetryEnabled) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      ts.latency[req.index()]->record(ns <= 0 ? 0 : static_cast<std::uint64_t>(ns));
    }
  }

  Config cfg_;
  Partition part_;
  std::vector<std::unique_ptr<SetT>> replica_sets_;
  std::unique_ptr<View> view_;
  std::unique_ptr<StitchedEngine> stitched_;
  Coalescer<W> coalescer_;
  parallel::LeasePool<PortalScratch> portal_pool_;
  std::vector<std::unique_ptr<TenantState>> tenants_;
  reliability::RetryBudget retry_budget_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> portal_pops_{0};
  std::atomic<std::uint64_t> portal_probes_{0};
  std::atomic<std::uint64_t> portal_tree_hits_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> unavailable_{0};
};

}  // namespace cachegraph::serving
