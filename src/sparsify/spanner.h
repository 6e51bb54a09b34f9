// Baswana–Sen randomized O(log N)-spanner (Figure 3 of the paper).
//
// Works on weighted (multi)graphs; the weight minimized along spanner
// paths is the MultiEdge::length field (callers sparsifying a capacitated
// graph set length = 1/cap so that heavy edges look short). The expected
// spanner size is O(N log N) edges with stretch O(log N).
//
// Level i = 1..levels: clusters are sampled with probability 1/2; a node
// whose cluster dies either connects to its lightest neighbor in a
// sampled cluster (joining it, and keeping all strictly lighter
// inter-cluster edges) or, if none is adjacent, keeps the lightest edge
// to every adjacent cluster and retires. After the last level every
// surviving node keeps the lightest edge to each adjacent cluster.
#pragma once

#include <vector>

#include "graph/multigraph.h"
#include "util/rng.h"

namespace dmf {

struct SpannerResult {
  std::vector<std::size_t> edges;  // indices into the input multigraph
  // Simulated CONGEST rounds (the BS algorithm runs in O(levels) cluster-
  // graph steps; Lemma 6.1 charges O((D + sqrt(n)) polylog) per step).
  double rounds = 0.0;
};

// levels <= 0 selects ceil(log2 N).
SpannerResult baswana_sen_spanner(const Multigraph& g, int levels, Rng& rng);

// Scratch for the workspace form below; reused across calls and levels.
struct SpannerWorkspace {
  std::vector<NodeId> cluster;
  std::vector<NodeId> next_cluster;
  std::vector<signed char> sampled;  // per cluster id: -1 undrawn, 0, 1
  // Lightest edge from the current node into each adjacent cluster.
  std::vector<std::size_t> light_edge;  // kNoMultiEdge when none yet
  std::vector<NodeId> adjacent;         // clusters with a light_edge set
  std::vector<char> in_spanner;         // per edge of g
  SpannerResult result;
};

// Workspace form over the edges `adjacency` lists (all of g's edges, or a
// subset of them): the spanner of that subgraph, reported as indices into
// g, in increasing order. Same draws and result as baswana_sen_spanner on
// the subgraph; the result lives in ws.result until the next call.
const SpannerResult& baswana_sen_spanner(const Multigraph& g,
                                         const MultiAdjacency& adjacency,
                                         int levels, Rng& rng,
                                         SpannerWorkspace& ws);

}  // namespace dmf
