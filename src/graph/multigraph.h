// Capacitated multigraph with edge lengths and contraction support.
//
// The AKPW low-stretch spanning-tree algorithm (Section 7) and Madry's
// j-tree construction (Section 8) operate on multigraphs obtained from a
// base graph by assigning lengths and performing sequences of contractions.
// Every multigraph edge remembers the base-graph edge it descends from, so
// spanning trees computed on contracted graphs map back to real edges —
// which is exactly the invariant the paper maintains ("every core edge is
// also a graph edge").
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace dmf {

// Sentinel for "no multigraph edge" (e.g. absent parent links).
inline constexpr std::size_t kNoMultiEdge = static_cast<std::size_t>(-1);

struct MultiEdge {
  NodeId u = kInvalidNode;   // endpoints in the *current* node space
  NodeId v = kInvalidNode;
  EdgeId base_edge = kInvalidEdge;  // originating edge of the base graph
  double cap = 1.0;
  double length = 1.0;
  // Caller-owned identity that survives contractions (from_graph sets it
  // to the edge index). Lets algorithms on contracted copies report
  // results in terms of the input multigraph's edges.
  std::int64_t tag = -1;
};

class Multigraph {
 public:
  Multigraph() = default;
  explicit Multigraph(NodeId num_nodes) : num_nodes_(num_nodes) {
    DMF_REQUIRE(num_nodes >= 0, "Multigraph: negative node count");
  }

  // Lift a base graph: one multi-edge per graph edge, lengths = 1/cap
  // (the canonical starting lengths of the Räcke/Madry constructions).
  static Multigraph from_graph(const Graph& g);

  [[nodiscard]] NodeId num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }

  // Empties the edge list and sets the node count, keeping the edge
  // storage for reuse.
  void reset(NodeId num_nodes) {
    DMF_REQUIRE(num_nodes >= 0, "Multigraph: negative node count");
    num_nodes_ = num_nodes;
    edges_.clear();
  }

  std::size_t add_edge(MultiEdge e) {
    check_edge(e);
    edges_.push_back(e);
    return edges_.size() - 1;
  }

  // Overwrites edge i, checked like add_edge. With truncate() this
  // compacts an edge list in place.
  void set_edge(std::size_t i, const MultiEdge& e) {
    DMF_REQUIRE(i < edges_.size(), "Multigraph::set_edge: bad index");
    check_edge(e);
    edges_[i] = e;
  }
  // Keeps the first `count` edges.
  void truncate(std::size_t count) {
    DMF_REQUIRE(count <= edges_.size(), "Multigraph::truncate: bad count");
    edges_.resize(count);
  }

  [[nodiscard]] const MultiEdge& edge(std::size_t i) const {
    DMF_ASSERT(i < edges_.size(), "Multigraph::edge: bad index");
    return edges_[i];
  }
  MultiEdge& edge_mutable(std::size_t i) {
    DMF_ASSERT(i < edges_.size(), "Multigraph::edge_mutable: bad index");
    return edges_[i];
  }
  [[nodiscard]] const std::vector<MultiEdge>& edges() const { return edges_; }

  // Contract according to `mapping` (old node -> new node in
  // [0, new_num_nodes)). Self-loops are dropped; parallel edges are kept.
  [[nodiscard]] Multigraph contract(const std::vector<NodeId>& mapping,
                                    NodeId new_num_nodes) const;
  // Same, in place: surviving edges keep their relative order.
  void contract_in_place(const std::vector<NodeId>& mapping,
                         NodeId new_num_nodes);

  [[nodiscard]] bool is_connected() const;
  // Same, with caller-owned scratch (a union-find over the nodes).
  bool is_connected(std::vector<NodeId>& scratch) const;

 private:
  void check_edge(const MultiEdge& e) const {
    DMF_REQUIRE(e.u >= 0 && e.u < num_nodes_ && e.v >= 0 && e.v < num_nodes_,
                "Multigraph::add_edge: endpoint out of range");
    DMF_REQUIRE(e.u != e.v, "Multigraph::add_edge: self-loop");
    DMF_REQUIRE(e.cap > 0.0 && e.length > 0.0,
                "Multigraph::add_edge: cap and length must be positive");
  }

  NodeId num_nodes_ = 0;
  std::vector<MultiEdge> edges_;
};

// Flat CSR adjacency over (a subset of) a Multigraph's edges — the
// traversal structure of the LSST / sparsifier / j-tree construction
// loops. One contiguous half-edge array replaces the per-node vectors
// the callers used to build, with identical per-node entry order (edge
// iteration order, u before v), so every traversal — and therefore every
// seeded sample — is unchanged.
//
// A MultiAdjacency is a snapshot of the edge list it was built from;
// rebuild after mutating or contracting the multigraph.
class MultiAdjacency {
 public:
  // 8 bytes: edge indices are stored in 32 bits (build() checks the
  // multigraph fits).
  struct Entry {
    NodeId to = kInvalidNode;
    std::uint32_t edge = 0;
  };

  class Row {
   public:
    Row(const Entry* begin, const Entry* end) : begin_(begin), end_(end) {}
    [[nodiscard]] const Entry* begin() const { return begin_; }
    [[nodiscard]] const Entry* end() const { return end_; }
    [[nodiscard]] std::size_t size() const {
      return static_cast<std::size_t>(end_ - begin_);
    }

   private:
    const Entry* begin_;
    const Entry* end_;
  };

  MultiAdjacency() = default;

  // All edges of g, in edge-index order.
  explicit MultiAdjacency(const Multigraph& g);

  // Only edges with allowed[i] != 0, in edge-index order.
  MultiAdjacency(const Multigraph& g, const std::vector<char>& allowed);

  // An explicit edge-index list (e.g. a spanning tree), in list order.
  MultiAdjacency(NodeId num_nodes, const Multigraph& g,
                 const std::vector<std::size_t>& edges);

  // Rebuild in place, one per constructor above; the storage is reused,
  // so a workspace-held adjacency stops allocating once it has grown.
  void assign(const Multigraph& g);
  void assign(const Multigraph& g, const std::vector<char>& allowed);
  void assign(NodeId num_nodes, const Multigraph& g,
              const std::vector<std::size_t>& edges);

  [[nodiscard]] Row row(NodeId v) const {
    DMF_ASSERT(v >= 0 && static_cast<std::size_t>(v) + 1 < offsets_.size(),
               "MultiAdjacency::row: bad node");
    const auto vi = static_cast<std::size_t>(v);
    return Row(entries_.data() + offsets_[vi],
               entries_.data() + offsets_[vi + 1]);
  }

  [[nodiscard]] std::size_t degree(NodeId v) const { return row(v).size(); }

 private:
  template <typename EdgeVisitor>
  void build(NodeId num_nodes, const Multigraph& g, EdgeVisitor&& for_each);

  std::vector<std::size_t> offsets_;  // n + 1
  std::vector<Entry> entries_;        // one per half-edge
  std::vector<std::size_t> cursor_;   // fill position per node (build only)
};

}  // namespace dmf
