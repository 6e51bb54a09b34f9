#include "lsst/akpw.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace dmf {

double akpw_default_z(NodeId num_nodes) {
  const double log_n =
      std::log2(static_cast<double>(std::max<NodeId>(4, num_nodes)));
  const double log_log_n = std::log2(std::max(2.0, log_n));
  const double z = std::pow(2.0, std::sqrt(6.0 * log_n * log_log_n));
  return std::clamp(z, 4.0, 65536.0);
}

namespace {

// Weight class of one edge: floor(log_z(ratio)) for ratio = length /
// min_length >= 1. A ratio below z * (1 - 1e-6) is class 0 without a
// logarithm: there log(ratio) / log(z) < 1 - 1e-6 / log(z) < 1 - 1e-9
// (log z < 710 for any finite z), far from the 1 - 1e-12 the formula
// needs to reach class 1.
int edge_class(double ratio, double z, double log_z) {
  if (ratio <= z * (1.0 - 1e-6)) return 0;
  return std::max(0, static_cast<int>(std::floor(std::log(ratio) / log_z +
                                                 1e-12)));
}

// Weight class of every current edge. Edges keep their input lengths
// through contraction, so while the minimum length is unchanged every
// surviving edge keeps its class; classes are recomputed only when the
// minimum moves.
int edge_classes(AkpwWorkspace& ws, double z, double* class_min_len) {
  const Multigraph& g = ws.current;
  double min_len = std::numeric_limits<double>::infinity();
  for (const MultiEdge& e : g.edges()) min_len = std::min(min_len, e.length);
  DMF_REQUIRE(min_len > 0.0 && std::isfinite(min_len),
              "akpw: lengths must be positive");
  ws.cls.resize(g.num_edges());
  int top = 0;
  if (min_len != *class_min_len) {
    const double log_z = std::log(z);
    for (std::size_t i = 0; i < g.num_edges(); ++i) {
      const int c = edge_class(g.edge(i).length / min_len, z, log_z);
      ws.cls[i] = c;
      ws.input_cls[static_cast<std::size_t>(g.edge(i).tag)] = c;
      top = std::max(top, c);
    }
    *class_min_len = min_len;
  } else {
    for (std::size_t i = 0; i < g.num_edges(); ++i) {
      const int c = ws.input_cls[static_cast<std::size_t>(g.edge(i).tag)];
      ws.cls[i] = c;
      top = std::max(top, c);
    }
  }
  return top + 1;
}

}  // namespace

LowStretchTreeResult akpw_low_stretch_tree(const Multigraph& g,
                                           const AkpwOptions& options,
                                           Rng& rng) {
  AkpwWorkspace ws;
  return akpw_low_stretch_tree(g, options, rng, ws);
}

const LowStretchTreeResult& akpw_low_stretch_tree(const Multigraph& g,
                                                  const AkpwOptions& options,
                                                  Rng& rng, AkpwWorkspace& ws) {
  LowStretchTreeResult& result = ws.result;
  result.tree_edges.clear();
  result.iterations = 0;
  result.partition_attempts = 0;
  result.bfs_rounds = 0.0;
  if (g.num_nodes() <= 1) return result;
  DMF_REQUIRE(g.is_connected(ws.connectivity),
              "akpw: input multigraph must be connected");

  const double z = options.z > 0.0 ? options.z : akpw_default_z(g.num_nodes());
  double rho = std::max(1.0, options.rho_factor * z);

  // Working copy with tags pointing at input edge indices (g's edges were
  // validated when they were added).
  Multigraph& current = ws.current;
  current = g;
  for (std::size_t i = 0; i < current.num_edges(); ++i) {
    current.edge_mutable(i).tag = static_cast<std::int64_t>(i);
  }
  ws.input_cls.resize(g.num_edges());
  double class_min_len = std::numeric_limits<double>::quiet_NaN();

  int num_classes = 1;
  int class_level = 1;  // iteration j admits classes 0 .. j-1
  int stagnation = 0;

  while (current.num_nodes() > 1) {
    DMF_REQUIRE(result.iterations < options.max_iterations,
                "akpw: iteration limit exceeded");
    ++result.iterations;

    num_classes = edge_classes(ws, z, &class_min_len);
    const std::vector<int>& cls = ws.cls;
    class_level = std::min(class_level, num_classes);
    std::vector<char>& allowed = ws.allowed;
    allowed.assign(current.num_edges(), 0);
    std::size_t allowed_count = 0;
    for (std::size_t i = 0; i < current.num_edges(); ++i) {
      if (cls[i] < class_level) {
        allowed[i] = 1;
        ++allowed_count;
      }
    }
    if (allowed_count == 0) {
      // Fast-forward to the first populated class.
      class_level = std::min(class_level + 1, num_classes);
      continue;
    }

    PartitionOptions popt = options.partition;
    popt.rho = rho;
    partition(current, allowed, cls, num_classes, popt, rng, ws.partition,
              ws.part);
    const PartitionResult& part = ws.part;
    result.partition_attempts += part.attempts;
    result.bfs_rounds += part.rounds;

    // Collect the clusters' BFS-tree edges.
    for (NodeId v = 0; v < current.num_nodes(); ++v) {
      const std::size_t pe =
          part.split.parent_edge[static_cast<std::size_t>(v)];
      if (pe != kNoMultiEdge) {
        result.tree_edges.push_back(
            static_cast<std::size_t>(current.edge(pe).tag));
      }
    }

    // Contract clusters.
    const NodeId new_n = static_cast<NodeId>(part.split.count);
    ws.mapping.resize(static_cast<std::size_t>(current.num_nodes()));
    for (NodeId v = 0; v < current.num_nodes(); ++v) {
      ws.mapping[static_cast<std::size_t>(v)] =
          static_cast<NodeId>(part.split.cluster[static_cast<std::size_t>(v)]);
    }
    const NodeId before = current.num_nodes();
    current.contract_in_place(ws.mapping, new_n);

    if (current.num_nodes() == before) {
      ++stagnation;
      if (class_level >= num_classes && stagnation >= 2) {
        rho *= 2.0;  // force progress once all classes are admitted
        stagnation = 0;
      }
    } else {
      stagnation = 0;
    }
    class_level = std::min(class_level + 1, num_classes);
  }

  DMF_REQUIRE(result.tree_edges.size() ==
                  static_cast<std::size_t>(g.num_nodes()) - 1,
              "akpw: did not produce a spanning tree");
  return result;
}

RootedTree tree_from_multigraph_edges(const Multigraph& g,
                                      const std::vector<std::size_t>& edges,
                                      NodeId root, TreeLinkId link_id) {
  RootedTree tree;
  MultiAdjacency adjacency;
  std::vector<NodeId> queue;
  tree_from_multigraph_edges(g, edges, root, link_id, tree, adjacency, queue);
  return tree;
}

void tree_from_multigraph_edges(const Multigraph& g,
                                const std::vector<std::size_t>& edges,
                                NodeId root, TreeLinkId link_id,
                                RootedTree& tree, MultiAdjacency& adjacency,
                                std::vector<NodeId>& queue) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  DMF_REQUIRE(root >= 0 && static_cast<std::size_t>(root) < n,
              "tree_from_multigraph_edges: bad root");
  adjacency.assign(g.num_nodes(), g, edges);
  tree.root = root;
  tree.parent.assign(n, kInvalidNode);
  tree.parent_cap.assign(n, 0.0);
  tree.parent_edge.assign(n, kInvalidEdge);
  // BFS from the root; a node is reached once it has a parent.
  queue.resize(n);
  std::size_t tail = 0;
  queue[tail++] = root;
  for (std::size_t head = 0; head < tail; ++head) {
    const NodeId v = queue[head];
    for (const auto& [to, idx] : adjacency.row(v)) {
      const auto ti = static_cast<std::size_t>(to);
      if (to == root || tree.parent[ti] != kInvalidNode) continue;
      tree.parent[ti] = v;
      tree.parent_cap[ti] = g.edge(idx).cap;
      tree.parent_edge[ti] = link_id == TreeLinkId::kBaseEdge
                                 ? g.edge(idx).base_edge
                                 : static_cast<EdgeId>(idx);
      queue[tail++] = to;
    }
  }
  DMF_REQUIRE(tail == n,
              "tree_from_multigraph_edges: edges do not span the graph");
}

double average_stretch(const Multigraph& g,
                       const std::vector<std::size_t>& tree_edges) {
  DMF_REQUIRE(g.num_edges() > 0, "average_stretch: empty graph");
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const RootedTree tree = tree_from_multigraph_edges(
      g, tree_edges, 0, TreeLinkId::kMultigraphEdge);
  // Prefix distance from root.
  const TreeOrder order = tree_order(tree);
  std::vector<double> pref(n, 0.0);
  for (const NodeId v : order.topdown) {
    const auto vi = static_cast<std::size_t>(v);
    const NodeId p = tree.parent[vi];
    if (p != kInvalidNode) {
      pref[vi] = pref[static_cast<std::size_t>(p)] +
                 g.edge(static_cast<std::size_t>(tree.parent_edge[vi])).length;
    }
  }
  const LcaIndex lca(tree, order);
  double total = 0.0;
  for (const MultiEdge& e : g.edges()) {
    const NodeId meet = lca.lca(e.u, e.v);
    const double dist = pref[static_cast<std::size_t>(e.u)] +
                        pref[static_cast<std::size_t>(e.v)] -
                        2.0 * pref[static_cast<std::size_t>(meet)];
    total += dist / e.length;
  }
  return total / static_cast<double>(g.num_edges());
}

}  // namespace dmf
