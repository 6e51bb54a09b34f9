#include "jtree/jtree.h"

#include <algorithm>
#include <cmath>

namespace dmf {

namespace {

// Tree loads over a precomputed order: +cap at both endpoints of every
// edge, -2 cap at their LCA, then subtree sums.
void edge_loads(const Multigraph& g, const RootedTree& tree,
                const TreeOrder& order, LcaIndex& lca,
                std::vector<double>& loads) {
  const auto n = static_cast<std::size_t>(tree.num_nodes());
  DMF_REQUIRE(static_cast<std::size_t>(g.num_nodes()) == n,
              "tree_edge_loads_mg: node count mismatch");
  lca.build(tree, order);
  loads.assign(n, 0.0);
  for (const MultiEdge& e : g.edges()) {
    loads[static_cast<std::size_t>(e.u)] += e.cap;
    loads[static_cast<std::size_t>(e.v)] += e.cap;
    loads[static_cast<std::size_t>(lca.lca(e.u, e.v))] -= 2.0 * e.cap;
  }
  accumulate_subtree_sums(tree, order, loads);
  loads[static_cast<std::size_t>(tree.root)] = 0.0;
  for (double& x : loads) {
    if (x < 0.0 && x > -1e-9) x = 0.0;
  }
}

// Dyadic class of a relative load: class i >= 1 iff
// rload in (R/2^i, R/2^(i-1)].
int rload_class(double rload, double max_rload) {
  DMF_REQUIRE(rload > 0.0 && max_rload >= rload,
              "rload_class: bad relative load");
  const double ratio = max_rload / rload;
  const int cls = 1 + static_cast<int>(std::floor(std::log2(ratio) - 1e-12));
  return std::max(1, cls);
}

}  // namespace

std::vector<double> tree_edge_loads_mg(const Multigraph& g,
                                       const RootedTree& tree) {
  const TreeOrder order = tree_order(tree);
  LcaIndex lca;
  std::vector<double> loads;
  edge_loads(g, tree, order, lca, loads);
  return loads;
}

JTree build_jtree(const Multigraph& g, const RootedTree& tree,
                  const std::vector<double>& cluster_size,
                  const JTreeOptions& options, Rng& rng) {
  JTreeShape shape;
  JTreeWorkspace ws;
  build_jtree_shape(g, tree, cluster_size, options, rng, shape, ws);
  JTree out;
  materialize_jtree(g, tree, shape, out, ws);
  return out;
}

void build_jtree_shape(const Multigraph& g, const RootedTree& tree,
                       const std::vector<double>& cluster_size,
                       const JTreeOptions& options, Rng& rng,
                       JTreeShape& shape, JTreeWorkspace& ws) {
  const NodeId n = g.num_nodes();
  const auto nn = static_cast<std::size_t>(n);
  DMF_REQUIRE(cluster_size.size() == nn, "build_jtree: cluster size mismatch");
  DMF_REQUIRE(options.j >= 1, "build_jtree: j must be >= 1");

  shape.f_prime_size = 0;
  shape.random_cut_size = 0;
  shape.d_size = 0;
  shape.any_cut = false;
  shape.max_rload = 0.0;
  if (n <= 1) {
    shape.is_portal.assign(nn, 1);
    shape.portal_count = 1;
    return;
  }
  const NodeId* parent = tree.parent.data();

  // --- Loads and relative loads of tree links. ---
  tree_order(tree, shape.order);
  edge_loads(g, tree, shape.order, ws.lca, shape.loads);
  const std::vector<double>& loads = shape.loads;
  std::vector<double>& rload = shape.rload;
  rload.assign(nn, 0.0);
  double max_rload = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    if (v == tree.root) continue;
    const auto vi = static_cast<std::size_t>(v);
    const auto link = static_cast<std::size_t>(tree.parent_edge[vi]);
    const double cap = g.edge(link).cap;
    DMF_REQUIRE(cap > 0.0, "build_jtree: tree link with zero capacity");
    // The link's own edge crosses its cut, so load >= cap and rload >= 1.
    rload[vi] = std::max(1.0, loads[vi] / cap);
    max_rload = std::max(max_rload, rload[vi]);
  }
  shape.max_rload = max_rload;

  // --- F': the <= j tree edges of top relative load (class rule). ---
  std::vector<int>& cls = ws.cls;
  cls.assign(nn, 0);
  int num_classes = 1;
  for (NodeId v = 0; v < n; ++v) {
    if (v == tree.root) continue;
    const auto vi = static_cast<std::size_t>(v);
    cls[vi] = rload_class(rload[vi], max_rload);
    num_classes = std::max(num_classes, cls[vi]);
  }
  std::vector<std::int64_t>& class_count = ws.class_count;
  class_count.assign(static_cast<std::size_t>(num_classes) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (v != tree.root) ++class_count[static_cast<std::size_t>(cls[
        static_cast<std::size_t>(v)])];
  }
  const double min_big =
      std::max(1.0, static_cast<double>(options.j) /
                        static_cast<double>(std::max(1, num_classes)));
  int i0 = -1;
  std::int64_t cum = 0;
  for (int i = 1; i <= num_classes; ++i) {
    if (cum <= options.j &&
        static_cast<double>(class_count[static_cast<std::size_t>(i)]) >=
            min_big) {
      i0 = i;
      break;
    }
    cum += class_count[static_cast<std::size_t>(i)];
    if (cum > options.j) break;
  }
  if (i0 == -1) {
    // Fallback: the largest prefix of classes with total size <= j.
    cum = 0;
    i0 = 1;
    for (int i = 1; i <= num_classes; ++i) {
      if (cum + class_count[static_cast<std::size_t>(i)] >
          static_cast<std::int64_t>(options.j)) {
        break;
      }
      cum += class_count[static_cast<std::size_t>(i)];
      i0 = i + 1;
    }
  }
  std::vector<char>& cut = shape.cut;  // F = F' u R, marked on the child
  cut.assign(nn, 0);
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (v != tree.root && cls[vi] < i0) {
      cut[vi] = 1;
      ++shape.f_prime_size;
    }
  }
  DMF_REQUIRE(shape.f_prime_size <= static_cast<std::size_t>(options.j),
              "build_jtree: |F'| exceeded j");

  // --- R: the Lemma 8.2 random cut set (shallow components). ---
  if (options.sqrt_target > 0.0) {
    for (NodeId v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (v == tree.root || cut[vi]) continue;
      const double p = std::min(1.0, cluster_size[vi] / options.sqrt_target);
      if (rng.next_bool(p)) {
        cut[vi] = 1;
        ++shape.random_cut_size;
      }
    }
  }

  std::vector<char>& is_portal = shape.is_portal;
  std::vector<char>& d_cut = shape.d_cut;
  d_cut.assign(nn, 0);
  shape.any_cut = shape.f_prime_size + shape.random_cut_size > 0;
  if (!shape.any_cut) {
    // F empty: J is the tree T itself; the root is the single portal.
    is_portal.assign(nn, 0);
    is_portal[static_cast<std::size_t>(tree.root)] = 1;
    shape.portal_count = 1;
    return;
  }

  // Primary portals: both endpoints of every F link.
  std::vector<char>& p1 = ws.p1;
  p1.assign(nn, 0);
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (v != tree.root && cut[vi]) {
      p1[vi] = 1;
      p1[static_cast<std::size_t>(parent[vi])] = 1;
    }
  }

  // The forest T \ F is read straight off the tree: v's forest neighbors
  // are its parent (when v's link is not cut) and its children whose
  // links are not cut.
  const std::vector<int>& child_offset = shape.order.child_offset;
  const std::vector<NodeId>& children = shape.order.children;
  std::vector<int>& deg = ws.deg;
  deg.assign(nn, 0);
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (v != tree.root && !cut[vi]) {
      ++deg[vi];
      ++deg[static_cast<std::size_t>(parent[vi])];
    }
  }

  // --- Skeleton: strip non-portal degree-1 nodes. ---
  // The stripped set and the surviving degrees are the unique fixpoint of
  // the rule, so any processing order gives the same skeleton; a node is
  // queued once, when its degree first drops to <= 1.
  std::vector<char>& stripped = ws.stripped;
  stripped.assign(nn, 0);
  std::vector<NodeId>& queue = ws.queue;
  queue.resize(nn);
  std::size_t tail = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (!p1[vi] && deg[vi] <= 1) queue[tail++] = v;
  }
  const auto unstrip_neighbor = [&](NodeId u) {
    const auto ui = static_cast<std::size_t>(u);
    if (stripped[ui]) return;
    if (--deg[ui] == 1 && !p1[ui]) queue[tail++] = u;
  };
  for (std::size_t head = 0; head < tail; ++head) {
    const NodeId v = queue[head];
    const auto vi = static_cast<std::size_t>(v);
    stripped[vi] = 1;
    if (v != tree.root && !cut[vi]) unstrip_neighbor(parent[vi]);
    for (int c = child_offset[vi]; c < child_offset[vi + 1]; ++c) {
      const NodeId child = children[static_cast<std::size_t>(c)];
      if (!cut[static_cast<std::size_t>(child)]) unstrip_neighbor(child);
    }
  }
  // Secondary portals: surviving junctions.
  is_portal.assign(p1.begin(), p1.end());
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (!stripped[vi] && !p1[vi] && deg[vi] > 2) is_portal[vi] = 1;
  }

  // --- D: cut the min-capacity edge of every portal-free skeleton path.
  // A link is identified by its child node in T. Each path is walked once,
  // from its lower-id portal end.
  std::vector<char>& link_visited = ws.link_visited;
  link_visited.assign(nn, 0);
  const auto link_cap = [&loads](NodeId link) {
    return std::max(loads[static_cast<std::size_t>(link)], 1e-12);
  };
  // Walks the portal-free path that leaves portal p through neighbor
  // `first` and moves its minimum-capacity link to D.
  const auto walk = [&](NodeId p, NodeId first) {
    const NodeId first_link =
        parent[static_cast<std::size_t>(first)] == p ? first : p;
    if (link_visited[static_cast<std::size_t>(first_link)]) return;
    NodeId prev = p;
    NodeId cur = first;
    NodeId best_link = first_link;
    double best_cap = link_cap(first_link);
    link_visited[static_cast<std::size_t>(first_link)] = 1;
    while (!is_portal[static_cast<std::size_t>(cur)]) {
      // The unique next skeleton neighbor != prev (cur has degree 2).
      const auto ci = static_cast<std::size_t>(cur);
      NodeId next = kInvalidNode;
      NodeId lk = kInvalidNode;
      const NodeId up = parent[ci];
      if (cur != tree.root && !cut[ci] && up != prev &&
          !stripped[static_cast<std::size_t>(up)]) {
        next = up;
        lk = cur;
      } else {
        for (int c = child_offset[ci]; c < child_offset[ci + 1]; ++c) {
          const NodeId child = children[static_cast<std::size_t>(c)];
          const auto chi = static_cast<std::size_t>(child);
          if (child != prev && !cut[chi] && !stripped[chi]) {
            next = child;
            lk = child;
            break;
          }
        }
      }
      DMF_REQUIRE(next != kInvalidNode,
                  "build_jtree: skeleton path ended without portal");
      link_visited[static_cast<std::size_t>(lk)] = 1;
      const double cap = link_cap(lk);
      if (cap < best_cap) {
        best_cap = cap;
        best_link = lk;
      }
      prev = cur;
      cur = next;
    }
    d_cut[static_cast<std::size_t>(best_link)] = 1;
    ++shape.d_size;
  };
  for (NodeId p = 0; p < n; ++p) {
    const auto pi = static_cast<std::size_t>(p);
    if (!is_portal[pi] || stripped[pi]) continue;
    const NodeId up = parent[pi];
    if (p != tree.root && !cut[pi] && !stripped[static_cast<std::size_t>(up)]) {
      walk(p, up);
    }
    for (int c = child_offset[pi]; c < child_offset[pi + 1]; ++c) {
      const NodeId child = children[static_cast<std::size_t>(c)];
      const auto chi = static_cast<std::size_t>(child);
      if (!cut[chi] && !stripped[chi]) walk(p, child);
    }
  }

  // One component of T \ (F u D) per root, F link and D link.
  shape.portal_count = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (parent[vi] == kInvalidNode || cut[vi] || d_cut[vi]) {
      ++shape.portal_count;
    }
  }
}

void materialize_jtree(const Multigraph& g, const RootedTree& tree,
                       const JTreeShape& shape, JTree& out,
                       JTreeWorkspace& ws) {
  const NodeId n = g.num_nodes();
  const auto nn = static_cast<std::size_t>(n);
  out.forest_parent.assign(nn, kInvalidNode);
  out.forest_cap.assign(nn, 0.0);
  out.forest_edge.assign(nn, kNoMultiEdge);
  out.portal.assign(nn, kInvalidNode);
  out.is_portal.assign(nn, 0);
  out.portal_count = 0;
  out.core.reset(n);
  out.f_prime_size = shape.f_prime_size;
  out.random_cut_size = shape.random_cut_size;
  out.d_size = shape.d_size;
  out.max_forest_depth = 0;
  out.tree_rload.assign(g.num_edges(), 0.0);

  if (n <= 1) {
    out.is_portal[0] = 1;
    out.portal[0] = 0;
    out.portal_count = 1;
    return;
  }
  const NodeId* parent = tree.parent.data();
  const std::vector<double>& loads = shape.loads;
  for (NodeId v = 0; v < n; ++v) {
    if (v == tree.root) continue;
    const auto vi = static_cast<std::size_t>(v);
    out.tree_rload[static_cast<std::size_t>(tree.parent_edge[vi])] =
        shape.rload[vi];
  }

  if (!shape.any_cut) {
    // F empty: J is the tree T itself; the root is the single portal.
    for (NodeId v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      out.portal[vi] = tree.root;
      if (v != tree.root) {
        out.forest_parent[vi] = parent[vi];
        out.forest_cap[vi] = std::max(loads[vi], 1e-12);
        out.forest_edge[vi] =
            static_cast<std::size_t>(tree.parent_edge[vi]);
      }
    }
    out.is_portal[static_cast<std::size_t>(tree.root)] = 1;
    out.portal_count = 1;
    out.max_forest_depth = shape.order.height;
    return;
  }

  // --- Components of T \ F and of T \ (F u D); one portal each. ---
  const std::vector<char>& cut = shape.cut;
  const std::vector<char>& d_cut = shape.d_cut;
  const std::vector<char>& is_portal = shape.is_portal;
  std::vector<int>& comp_tf = ws.comp_tf;
  std::vector<int>& comp_final = ws.comp_final;
  comp_tf.resize(nn);
  comp_final.resize(nn);
  int comp_tf_count = 0;
  int comp_final_count = 0;
  for (const NodeId v : shape.order.topdown) {
    const auto vi = static_cast<std::size_t>(v);
    const NodeId p = parent[vi];
    if (p == kInvalidNode || cut[vi]) {
      comp_tf[vi] = comp_tf_count++;
    } else {
      comp_tf[vi] = comp_tf[static_cast<std::size_t>(p)];
    }
    if (p == kInvalidNode || cut[vi] || d_cut[vi]) {
      comp_final[vi] = comp_final_count++;
    } else {
      comp_final[vi] = comp_final[static_cast<std::size_t>(p)];
    }
  }
  std::vector<NodeId>& comp_portal = ws.comp_portal;
  comp_portal.assign(static_cast<std::size_t>(comp_final_count),
                     kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (!is_portal[vi]) continue;
    auto& slot = comp_portal[static_cast<std::size_t>(comp_final[vi])];
    DMF_REQUIRE(slot == kInvalidNode,
                "build_jtree: component with two portals");
    slot = v;
  }
  for (int c = 0; c < comp_final_count; ++c) {
    DMF_REQUIRE(comp_portal[static_cast<std::size_t>(c)] != kInvalidNode,
                "build_jtree: component without portal");
  }
  out.portal_count = comp_final_count;
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    out.portal[vi] = comp_portal[static_cast<std::size_t>(comp_final[vi])];
    out.is_portal[vi] = is_portal[vi];
  }

  // --- Re-root every component at its portal. ---
  // Only the links on the path from the portal up to the component's top
  // node reverse; every other node keeps its tree parent. The depth below
  // the portal is the hop distance inside the component.
  const auto set_link = [&](NodeId child, NodeId new_parent, NodeId link) {
    const auto ci = static_cast<std::size_t>(child);
    const auto li = static_cast<std::size_t>(link);
    out.forest_parent[ci] = new_parent;
    out.forest_cap[ci] = std::max(loads[li], 1e-12);
    out.forest_edge[ci] = static_cast<std::size_t>(tree.parent_edge[li]);
  };
  std::vector<int>& fdepth = ws.fdepth;
  fdepth.assign(nn, -1);
  for (int c = 0; c < comp_final_count; ++c) {
    NodeId x = comp_portal[static_cast<std::size_t>(c)];
    int depth = 0;
    fdepth[static_cast<std::size_t>(x)] = 0;
    for (;;) {
      const auto xi = static_cast<std::size_t>(x);
      const NodeId up = parent[xi];
      if (up == kInvalidNode || cut[xi] || d_cut[xi]) break;  // top node
      set_link(up, x, x);
      fdepth[static_cast<std::size_t>(up)] = ++depth;
      x = up;
    }
  }
  int max_depth = 0;
  for (const NodeId v : shape.order.topdown) {
    const auto vi = static_cast<std::size_t>(v);
    if (fdepth[vi] == -1) {
      // Not on a portal path, so not a top node: the parent is in the
      // same component and already placed.
      const NodeId p = parent[vi];
      set_link(v, p, v);
      fdepth[vi] = fdepth[static_cast<std::size_t>(p)] + 1;
    }
    max_depth = std::max(max_depth, fdepth[vi]);
  }
  out.max_forest_depth = max_depth;

  // --- Core edges. ---
  // (a) every multigraph edge crossing distinct T \ F components keeps its
  //     own capacity (this includes the F links' underlying edges);
  std::vector<char>& is_forest_link = ws.is_forest_link;
  is_forest_link.assign(g.num_edges(), 0);
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (v != tree.root && !cut[vi]) {
      is_forest_link[static_cast<std::size_t>(tree.parent_edge[vi])] = 1;
    }
  }
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    const MultiEdge& e = g.edge(i);
    if (comp_tf[static_cast<std::size_t>(e.u)] ==
        comp_tf[static_cast<std::size_t>(e.v)]) {
      continue;
    }
    DMF_REQUIRE(!is_forest_link[i], "build_jtree: forest link crosses comps");
    MultiEdge ce = e;
    ce.u = out.portal[static_cast<std::size_t>(e.u)];
    ce.v = out.portal[static_cast<std::size_t>(e.v)];
    DMF_REQUIRE(ce.u != ce.v, "build_jtree: core self-loop (crossing edge)");
    ce.length = 1.0 / ce.cap;
    out.core.add_edge(ce);
  }
  // (b) one edge per D element with the load capacity, mapped to the
  //     deleted link's physical edge.
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (!d_cut[vi]) continue;
    const auto link_idx = static_cast<std::size_t>(tree.parent_edge[vi]);
    const MultiEdge& base = g.edge(link_idx);
    MultiEdge ce = base;
    ce.u = out.portal[vi];
    ce.v = out.portal[static_cast<std::size_t>(parent[vi])];
    DMF_REQUIRE(ce.u != ce.v, "build_jtree: core self-loop (D edge)");
    ce.cap = std::max(loads[vi], 1e-12);
    ce.length = 1.0 / ce.cap;
    out.core.add_edge(ce);
  }
}

}  // namespace dmf
