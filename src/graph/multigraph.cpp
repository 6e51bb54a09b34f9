#include "graph/multigraph.h"

#include <algorithm>
#include <limits>

namespace dmf {

Multigraph Multigraph::from_graph(const Graph& g) {
  Multigraph mg(g.num_nodes());
  mg.edges_.reserve(static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeEndpoints ep = g.endpoints(e);
    const double cap = g.capacity(e);
    mg.add_edge({ep.u, ep.v, e, cap, 1.0 / cap, e});
  }
  return mg;
}

Multigraph Multigraph::contract(const std::vector<NodeId>& mapping,
                                NodeId new_num_nodes) const {
  Multigraph out = *this;
  out.contract_in_place(mapping, new_num_nodes);
  return out;
}

void Multigraph::contract_in_place(const std::vector<NodeId>& mapping,
                                   NodeId new_num_nodes) {
  DMF_REQUIRE(mapping.size() == static_cast<std::size_t>(num_nodes_),
              "Multigraph::contract: mapping size mismatch");
  DMF_REQUIRE(new_num_nodes >= 0, "Multigraph: negative node count");
  // Compaction: the write position never passes the read position.
  std::size_t kept = 0;
  for (const MultiEdge& e : edges_) {
    const NodeId nu = mapping[static_cast<std::size_t>(e.u)];
    const NodeId nv = mapping[static_cast<std::size_t>(e.v)];
    DMF_REQUIRE(nu >= 0 && nu < new_num_nodes && nv >= 0 && nv < new_num_nodes,
                "Multigraph::contract: mapped endpoint out of range");
    if (nu == nv) continue;  // drop self-loops
    MultiEdge& ne = edges_[kept++];
    ne = e;
    ne.u = nu;
    ne.v = nv;
  }
  edges_.resize(kept);
  num_nodes_ = new_num_nodes;
}

bool Multigraph::is_connected() const {
  std::vector<NodeId> scratch;
  return is_connected(scratch);
}

bool Multigraph::is_connected(std::vector<NodeId>& scratch) const {
  if (num_nodes_ <= 1) return true;
  // Union-find with path halving; connected iff every edge union leaves
  // a single component.
  std::vector<NodeId>& up = scratch;
  up.resize(static_cast<std::size_t>(num_nodes_));
  for (NodeId v = 0; v < num_nodes_; ++v) up[static_cast<std::size_t>(v)] = v;
  const auto find = [&up](NodeId v) {
    while (up[static_cast<std::size_t>(v)] != v) {
      const NodeId grand =
          up[static_cast<std::size_t>(up[static_cast<std::size_t>(v)])];
      up[static_cast<std::size_t>(v)] = grand;
      v = grand;
    }
    return v;
  };
  NodeId components = num_nodes_;
  for (const MultiEdge& e : edges_) {
    const NodeId a = find(e.u);
    const NodeId b = find(e.v);
    if (a == b) continue;
    up[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
    if (--components == 1) return true;
  }
  return false;
}

// --- MultiAdjacency ----------------------------------------------------------

// Two-pass counting build: `for_each(visit)` must call visit(i) for every
// selected edge index, in the same order both times — that order becomes
// the per-node entry order (u's half-edge placed before v's per edge,
// matching the push_back order of the old per-node vectors).
template <typename EdgeVisitor>
void MultiAdjacency::build(NodeId num_nodes, const Multigraph& g,
                           EdgeVisitor&& for_each) {
  const auto n = static_cast<std::size_t>(num_nodes);
  offsets_.assign(n + 1, 0);
  const std::vector<MultiEdge>& edges = g.edges();
  std::size_t selected = 0;
  for_each([&](std::size_t i) {
    const MultiEdge& e = edges[i];
    ++offsets_[static_cast<std::size_t>(e.u) + 1];
    ++offsets_[static_cast<std::size_t>(e.v) + 1];
    ++selected;
  });
  DMF_REQUIRE(edges.size() <= std::numeric_limits<std::uint32_t>::max(),
              "MultiAdjacency: edge index exceeds 32 bits");
  for (std::size_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
  entries_.resize(2 * selected);
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for_each([&](std::size_t i) {
    const MultiEdge& e = edges[i];
    const auto idx = static_cast<std::uint32_t>(i);
    entries_[cursor_[static_cast<std::size_t>(e.u)]++] = {e.v, idx};
    entries_[cursor_[static_cast<std::size_t>(e.v)]++] = {e.u, idx};
  });
}

MultiAdjacency::MultiAdjacency(const Multigraph& g) { assign(g); }

MultiAdjacency::MultiAdjacency(const Multigraph& g,
                               const std::vector<char>& allowed) {
  assign(g, allowed);
}

MultiAdjacency::MultiAdjacency(NodeId num_nodes, const Multigraph& g,
                               const std::vector<std::size_t>& edges) {
  assign(num_nodes, g, edges);
}

void MultiAdjacency::assign(const Multigraph& g) {
  build(g.num_nodes(), g, [&](auto&& visit) {
    for (std::size_t i = 0; i < g.num_edges(); ++i) visit(i);
  });
}

void MultiAdjacency::assign(const Multigraph& g,
                            const std::vector<char>& allowed) {
  DMF_REQUIRE(allowed.size() == g.num_edges(),
              "MultiAdjacency: allowed mask size mismatch");
  build(g.num_nodes(), g, [&](auto&& visit) {
    for (std::size_t i = 0; i < g.num_edges(); ++i) {
      if (allowed[i]) visit(i);
    }
  });
}

void MultiAdjacency::assign(NodeId num_nodes, const Multigraph& g,
                            const std::vector<std::size_t>& edges) {
  build(num_nodes, g, [&](auto&& visit) {
    for (const std::size_t i : edges) visit(i);
  });
}

}  // namespace dmf
