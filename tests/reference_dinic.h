// Reference Dinic — the textbook forward-levelled search, kept as a
// differential oracle for src/baselines/dinic.cpp.
//
// Levels are distances from s, computed by a BFS over the whole residual
// graph each phase, and the DFS is recursive over arcs one level further
// from s. Arc ids are 2e + direction with antisymmetric flow, laid out in
// CSR row order by build_flat_arcs, so arcs are visited in the same
// order as the library's slot-based search.
//
// The contract the parity tests rely on: for any graph and terminals,
// the library's dinic_max_flow / dinic_min_cut return bitwise-identical
// value, edge_flow, cut capacity and source_side. Recursion depth is the
// s-t distance, so keep oracle inputs short-pathed.
#pragma once

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "baselines/dinic.h"
#include "baselines/residual_arcs.h"
#include "graph/csr_graph.h"

namespace dmf::reference {

class ForwardDinic {
 public:
  explicit ForwardDinic(const CsrGraph& g)
      : graph_(g), arcs_(build_flat_arcs(g)) {
    const auto n = static_cast<std::size_t>(g.num_nodes());
    flow_.assign(2 * static_cast<std::size_t>(g.num_edges()), 0.0);
    level_.assign(n, -1);
    iter_.assign(n, 0);
  }

  double run(NodeId s, NodeId t) {
    double total = 0.0;
    while (bfs(s, t)) {
      for (std::size_t v = 0; v < iter_.size(); ++v) {
        iter_[v] = arcs_.offsets[v];
      }
      while (true) {
        const double pushed =
            dfs(s, t, std::numeric_limits<double>::infinity());
        if (pushed <= kEps) break;
        total += pushed;
      }
    }
    return total;
  }

  [[nodiscard]] std::vector<double> undirected_flows() const {
    std::vector<double> out(flow_.size() / 2);
    for (std::size_t e = 0; e < out.size(); ++e) out[e] = flow_[2 * e];
    return out;
  }

  // Nodes reachable from s in the residual graph (call after run()).
  [[nodiscard]] std::vector<char> residual_reachable(NodeId s) const {
    std::vector<char> seen(level_.size(), 0);
    std::queue<NodeId> q;
    seen[static_cast<std::size_t>(s)] = 1;
    q.push(s);
    while (!q.empty()) {
      const auto v = static_cast<std::size_t>(q.front());
      q.pop();
      for (std::size_t i = arcs_.offsets[v]; i < arcs_.offsets[v + 1]; ++i) {
        const NodeId to = arcs_.targets[i];
        if (residual_cap(arcs_.arcs[i]) > kEps &&
            !seen[static_cast<std::size_t>(to)]) {
          seen[static_cast<std::size_t>(to)] = 1;
          q.push(to);
        }
      }
    }
    return seen;
  }

 private:
  static constexpr double kEps = 1e-12;

  [[nodiscard]] double residual_cap(EdgeId arc) const {
    return graph_.capacities_data()[static_cast<std::size_t>(arc / 2)] -
           flow_[static_cast<std::size_t>(arc)];
  }

  bool bfs(NodeId s, NodeId t) {
    std::fill(level_.begin(), level_.end(), -1);
    std::queue<NodeId> q;
    level_[static_cast<std::size_t>(s)] = 0;
    q.push(s);
    while (!q.empty()) {
      const auto v = static_cast<std::size_t>(q.front());
      q.pop();
      for (std::size_t i = arcs_.offsets[v]; i < arcs_.offsets[v + 1]; ++i) {
        const NodeId to = arcs_.targets[i];
        if (residual_cap(arcs_.arcs[i]) > kEps &&
            level_[static_cast<std::size_t>(to)] < 0) {
          level_[static_cast<std::size_t>(to)] = level_[v] + 1;
          q.push(to);
        }
      }
    }
    return level_[static_cast<std::size_t>(t)] >= 0;
  }

  double dfs(NodeId v, NodeId t, double limit) {
    if (v == t) return limit;
    const auto vi = static_cast<std::size_t>(v);
    for (auto& it = iter_[vi]; it < arcs_.offsets[vi + 1]; ++it) {
      const EdgeId arc = arcs_.arcs[it];
      const NodeId to = arcs_.targets[it];
      if (residual_cap(arc) > kEps &&
          level_[static_cast<std::size_t>(to)] == level_[vi] + 1) {
        const double pushed = dfs(to, t, std::min(limit, residual_cap(arc)));
        if (pushed > kEps) {
          flow_[static_cast<std::size_t>(arc)] += pushed;
          flow_[static_cast<std::size_t>(arc ^ 1)] -= pushed;
          return pushed;
        }
      }
    }
    return 0.0;
  }

  const CsrGraph& graph_;
  FlatArcs arcs_;
  std::vector<double> flow_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
};

inline MaxFlowResult forward_dinic_max_flow(const CsrGraph& g, NodeId s,
                                            NodeId t) {
  ForwardDinic dinic(g);
  MaxFlowResult result;
  result.value = dinic.run(s, t);
  result.edge_flow = dinic.undirected_flows();
  return result;
}

inline MinCutResult forward_dinic_min_cut(const CsrGraph& g, NodeId s,
                                          NodeId t) {
  ForwardDinic dinic(g);
  MinCutResult result;
  result.capacity = dinic.run(s, t);
  result.source_side = dinic.residual_reachable(s);
  return result;
}

}  // namespace dmf::reference
