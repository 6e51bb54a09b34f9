// Madry's j-tree construction, adapted as in §4 / §8 of the paper.
//
// One invocation transforms a (cluster-)multigraph G together with a low
// average-stretch spanning tree T into a 4j-tree J:
//
//   1. capacities capT(e) for e in T are the tree loads |f'(e)| of the
//      canonical embedding of G into T (tree_edge_loads_mg);
//   2. rload(e) = capT(e)/cap(e); the edge set F' of at most j tree edges
//      with the largest relative loads is chosen via the dyadic class
//      argument (minimal i0 with |F_i0| = Omega(j / log n) classes);
//   3. the random set R (Lemma 8.2) is added to F = F' u R so that the
//      resulting forest components have depth ~sqrt(n) when cluster sizes
//      are accounted;
//   4. components of T \ F define primary portals P1 (endpoints of F
//      edges); iterative degree-1 stripping yields the skeleton, whose
//      junctions become secondary portals P2; the minimum-capacity edge
//      of every portal-free skeleton path is moved to D;
//   5. the result: a forest T \ (F u D) whose trees each contain exactly
//      one portal, plus a core multigraph on the portals containing (a)
//      every G-edge crossing distinct T \ F components (original
//      capacity) and (b) one edge per D element (capT capacity). Every
//      core edge still maps to a physical graph edge (paper invariant 4).
//
// Lemmas 8.6/8.7: J and H(T,F) are mutually O(1)-embeddable; the test
// suite and bench E10 verify the measured embedding congestion.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/multigraph.h"
#include "graph/tree.h"
#include "util/rng.h"

namespace dmf {

// Tree loads for a rooted spanning tree of a multigraph: for every
// non-root node v, the total capacity of multigraph edges with exactly
// one endpoint in subtree(v). (Multigraph counterpart of
// tree_edge_loads.)
std::vector<double> tree_edge_loads_mg(const Multigraph& g,
                                       const RootedTree& tree);

struct JTreeOptions {
  // Madry's j: |F'| <= j high-rload tree edges are promoted to the core.
  int j = 1;
  // Lemma 8.2 target: parent links are additionally cut with probability
  // min(1, cluster_size / sqrt_target). <= 0 disables the random cut set.
  double sqrt_target = 0.0;
};

struct JTree {
  // Forest over the input multigraph's node space.
  std::vector<NodeId> forest_parent;     // kInvalidNode at portals
  std::vector<double> forest_cap;        // capT (load) of the parent link
  std::vector<std::size_t> forest_edge;  // mg edge index of the link
  std::vector<NodeId> portal;            // the unique portal of v's tree
  std::vector<char> is_portal;
  int portal_count = 0;

  // Core multigraph on the same node space; edges connect portals only.
  Multigraph core;

  // Diagnostics for analysis / cost accounting.
  std::size_t f_prime_size = 0;  // |F'|
  std::size_t random_cut_size = 0;  // |R|
  std::size_t d_size = 0;        // |D|
  int max_forest_depth = 0;      // hop depth of the forest (node units)

  // rload of every input edge that was a tree edge (0 elsewhere); used by
  // the multiplicative-weights length update between trees.
  std::vector<double> tree_rload;
};

// `tree` must be a spanning tree of g whose parent_edge entries store
// *multigraph edge indices* of g (not base edges): build it with
// tree_from_multigraph_edges(..., TreeLinkId::kMultigraphEdge) from an
// akpw_low_stretch_tree result. cluster_size[v] is the number of
// base-graph nodes represented by v (all 1 at level 0).
JTree build_jtree(const Multigraph& g, const RootedTree& tree,
                  const std::vector<double>& cluster_size,
                  const JTreeOptions& options, Rng& rng);

// build_jtree in two phases. The shape phase makes every decision and
// every random draw: loads, F', the random cut set R, the skeleton, the
// portals and D. Materialization draws nothing; it re-roots the forest
// at the portals and emits the core edges. The hierarchy draws several
// candidate j-trees per level but keeps one, so it decides the pick (and
// the R-free fallback) on shapes and materializes only the kept one.
struct JTreeShape {
  TreeOrder order;            // of the input tree
  std::vector<double> loads;  // capT of each link, by child node; 0 at root
  std::vector<double> rload;  // relative load of each link, by child node
  double max_rload = 0.0;
  std::vector<char> cut;      // F = F' u R, by child node
  std::vector<char> d_cut;    // D, by child node
  std::vector<char> is_portal;
  bool any_cut = false;
  int portal_count = 0;
  std::size_t f_prime_size = 0;
  std::size_t random_cut_size = 0;
  std::size_t d_size = 0;
};

// Scratch shared by both phases; reused across calls.
struct JTreeWorkspace {
  LcaIndex lca;
  std::vector<int> cls;
  std::vector<std::int64_t> class_count;
  std::vector<char> p1;
  std::vector<char> stripped;
  std::vector<char> link_visited;
  std::vector<int> deg;
  std::vector<NodeId> queue;
  std::vector<int> comp_tf;
  std::vector<int> comp_final;
  std::vector<NodeId> comp_portal;
  std::vector<int> fdepth;
  std::vector<char> is_forest_link;
};

void build_jtree_shape(const Multigraph& g, const RootedTree& tree,
                       const std::vector<double>& cluster_size,
                       const JTreeOptions& options, Rng& rng,
                       JTreeShape& shape, JTreeWorkspace& ws);

// `out` is overwritten (its storage is reused).
void materialize_jtree(const Multigraph& g, const RootedTree& tree,
                       const JTreeShape& shape, JTree& out,
                       JTreeWorkspace& ws);

}  // namespace dmf
