#include "sparsify/spanner.h"

#include <algorithm>
#include <cmath>

namespace dmf {

namespace {

// (length, tag) lexicographic comparison for "lightest edge" with
// deterministic tie-breaking.
bool lighter(const MultiEdge& a, const MultiEdge& b) {
  if (a.length != b.length) return a.length < b.length;
  return a.tag < b.tag;
}

// Records, for every cluster adjacent to `v` (other than `own`; retired
// neighbors skipped), the lightest edge into it: the first edge in row
// order among equally light ones.
void collect_lightest(const Multigraph& g, const MultiAdjacency& adjacency,
                      NodeId v, NodeId own, SpannerWorkspace& ws) {
  for (const auto& [to, idx] : adjacency.row(v)) {
    const NodeId c = ws.cluster[static_cast<std::size_t>(to)];
    if (c == kInvalidNode || c == own) continue;
    std::size_t& slot = ws.light_edge[static_cast<std::size_t>(c)];
    if (slot == kNoMultiEdge) {
      slot = idx;
      ws.adjacent.push_back(c);
    } else if (lighter(g.edge(idx), g.edge(slot))) {
      slot = idx;
    }
  }
}

}  // namespace

SpannerResult baswana_sen_spanner(const Multigraph& g, int levels, Rng& rng) {
  const MultiAdjacency adjacency(g);
  SpannerWorkspace ws;
  return baswana_sen_spanner(g, adjacency, levels, rng, ws);
}

const SpannerResult& baswana_sen_spanner(const Multigraph& g,
                                         const MultiAdjacency& adjacency,
                                         int levels, Rng& rng,
                                         SpannerWorkspace& ws) {
  const NodeId n = g.num_nodes();
  const auto nn = static_cast<std::size_t>(n);
  SpannerResult& result = ws.result;
  result.edges.clear();
  result.rounds = 0.0;
  std::size_t selected_edges = 0;
  for (NodeId v = 0; v < n; ++v) selected_edges += adjacency.degree(v);
  if (n <= 1 || selected_edges == 0) return result;
  if (levels <= 0) {
    levels = std::max(
        1, static_cast<int>(std::ceil(std::log2(static_cast<double>(n)))));
  }

  // cluster[v]: current cluster id (== a node id acting as center), or
  // kInvalidNode once v has retired.
  std::vector<NodeId>& cluster = ws.cluster;
  cluster.resize(nn);
  for (NodeId v = 0; v < n; ++v) cluster[static_cast<std::size_t>(v)] = v;
  ws.in_spanner.assign(g.num_edges(), 0);
  ws.light_edge.assign(nn, kNoMultiEdge);
  ws.adjacent.clear();
  const auto keep = [&ws](std::size_t i) { ws.in_spanner[i] = 1; };
  const auto clear_lightest = [&ws] {
    for (const NodeId c : ws.adjacent) {
      ws.light_edge[static_cast<std::size_t>(c)] = kNoMultiEdge;
    }
    ws.adjacent.clear();
  };

  for (int level = 1; level <= levels; ++level) {
    result.rounds += 1.0;
    // Sample surviving clusters with probability 1/2, drawing in order of
    // each cluster's first member.
    std::vector<signed char>& sampled = ws.sampled;
    sampled.assign(nn, -1);
    for (NodeId v = 0; v < n; ++v) {
      const NodeId c = cluster[static_cast<std::size_t>(v)];
      if (c != kInvalidNode && sampled[static_cast<std::size_t>(c)] < 0) {
        sampled[static_cast<std::size_t>(c)] = rng.next_bool(0.5) ? 1 : 0;
      }
    }

    ws.next_cluster.assign(cluster.begin(), cluster.end());
    for (NodeId v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      const NodeId own = cluster[vi];
      if (own == kInvalidNode) continue;                   // retired
      if (sampled[static_cast<std::size_t>(own)]) continue;  // survives
      // v's cluster died: find the lightest edge to every adjacent
      // cluster, and the lightest edge into a *sampled* cluster (ties to
      // the smaller cluster id).
      collect_lightest(g, adjacency, v, own, ws);
      std::size_t best_edge = kNoMultiEdge;
      NodeId best_cluster = kInvalidNode;
      for (const NodeId c : ws.adjacent) {
        if (!sampled[static_cast<std::size_t>(c)]) continue;
        const std::size_t e = ws.light_edge[static_cast<std::size_t>(c)];
        const bool better = best_edge == kNoMultiEdge ||
                            lighter(g.edge(e), g.edge(best_edge)) ||
                            (!lighter(g.edge(best_edge), g.edge(e)) &&
                             c < best_cluster);
        if (better) {
          best_edge = e;
          best_cluster = c;
        }
      }
      if (best_edge == kNoMultiEdge) {
        // Keep the lightest edge to every adjacent cluster and retire.
        for (const NodeId c : ws.adjacent) {
          keep(ws.light_edge[static_cast<std::size_t>(c)]);
        }
        ws.next_cluster[vi] = kInvalidNode;
      } else {
        // Join the closest sampled cluster; keep strictly lighter edges.
        keep(best_edge);
        ws.next_cluster[vi] = best_cluster;
        for (const NodeId c : ws.adjacent) {
          const std::size_t e = ws.light_edge[static_cast<std::size_t>(c)];
          if (lighter(g.edge(e), g.edge(best_edge))) keep(e);
        }
      }
      clear_lightest();
    }
    cluster.swap(ws.next_cluster);
  }

  // Final step: every surviving node keeps the lightest edge to each
  // adjacent (distinct) cluster.
  result.rounds += 1.0;
  for (NodeId v = 0; v < n; ++v) {
    collect_lightest(g, adjacency, v, cluster[static_cast<std::size_t>(v)],
                     ws);
    for (const NodeId c : ws.adjacent) {
      keep(ws.light_edge[static_cast<std::size_t>(c)]);
    }
    clear_lightest();
  }
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    if (ws.in_spanner[i]) result.edges.push_back(i);
  }
  return result;
}

}  // namespace dmf
