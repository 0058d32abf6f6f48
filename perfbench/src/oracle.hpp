// The benchmark's oracle: a mirror edge list and a textbook binary-heap
// Dijkstra over it, independent of every library search path.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

namespace pb {

using Dist = std::int64_t;
inline constexpr Dist kUnreached = std::numeric_limits<Dist>::max();

struct MirrorEdge {
  std::int32_t to;
  std::int32_t w;
};

/// Adjacency mirror of the served graph; mutations replay into it.
struct Mirror {
  std::vector<std::vector<MirrorEdge>> adj;

  explicit Mirror(std::int32_t n = 0) : adj(static_cast<std::size_t>(n)) {}
  [[nodiscard]] std::int32_t n() const { return static_cast<std::int32_t>(adj.size()); }
  void add(std::int32_t u, std::int32_t v, std::int32_t w) {
    adj[static_cast<std::size_t>(u)].push_back({v, w});
  }
  /// Number of u→v edges (the churn driver only removes unique ones).
  [[nodiscard]] int count(std::int32_t u, std::int32_t v) const {
    int c = 0;
    for (const auto& e : adj[static_cast<std::size_t>(u)]) c += e.to == v;
    return c;
  }
  bool remove(std::int32_t u, std::int32_t v) {
    auto& row = adj[static_cast<std::size_t>(u)];
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i].to == v) {
        row.erase(row.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }
};

/// Exact single-source distances (kUnreached where unreachable).
[[nodiscard]] inline std::vector<Dist> dijkstra(const Mirror& g, std::int32_t s) {
  std::vector<Dist> d(static_cast<std::size_t>(g.n()), kUnreached);
  using Item = std::pair<Dist, std::int32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  d[static_cast<std::size_t>(s)] = 0;
  pq.push({0, s});
  while (!pq.empty()) {
    const auto [du, u] = pq.top();
    pq.pop();
    if (du != d[static_cast<std::size_t>(u)]) continue;
    for (const auto& e : g.adj[static_cast<std::size_t>(u)]) {
      const Dist nd = du + e.w;
      auto& dv = d[static_cast<std::size_t>(e.to)];
      if (nd < dv) {
        dv = nd;
        pq.push({nd, e.to});
      }
    }
  }
  return d;
}

}  // namespace pb
