// Dinic's exact maximum-flow algorithm on undirected graphs.
//
// This is the correctness reference for the approximate distributed
// algorithm (Theorem 1.1 promises value >= (1-eps) * OPT) and the exact
// oracle used to measure congestion-approximator quality: for an s-t
// demand of value F, the optimal congestion is F / maxflow(s,t).
#pragma once

#include <vector>

#include "graph/csr_graph.h"
#include "graph/graph.h"

namespace dmf {

struct MaxFlowResult {
  double value = 0.0;
  // Signed flow per undirected edge, positive in the endpoints(e).u ->
  // endpoints(e).v direction. Satisfies conservation and capacities.
  std::vector<double> edge_flow;
};

// Exact max flow. An undirected edge of capacity c admits net flow at most
// c in either direction (standard antisymmetric residual model).
//
// The residual state lives on the CSR slots: per slot the edge's
// capacity and the net flow out along it (the edge's other slot holds the
// negation). Each phase labels nodes with their residual distance to t,
// by a BFS from t that stops once s is labelled, then augments from s
// over arcs one step closer to t with an iterative DFS, so a long s-t
// path never grows the call stack. Results are bitwise those of textbook
// forward-levelled Dinic over the same arc order (dinic.cpp gives the
// argument; tests/reference_dinic.h is the oracle). The Graph overloads
// pack a transient CSR view first, so both forms return identical flows.
MaxFlowResult dinic_max_flow(const CsrGraph& g, NodeId s, NodeId t);
MaxFlowResult dinic_max_flow(const Graph& g, NodeId s, NodeId t);

// The value only (no flow extraction); bitwise equal to
// dinic_max_flow(...).value.
double dinic_max_flow_value(const CsrGraph& g, NodeId s, NodeId t);
double dinic_max_flow_value(const Graph& g, NodeId s, NodeId t);

// Minimum s-t cut capacity and the source-side node set, from the final
// Dinic residual graph (max-flow = min-cut).
struct MinCutResult {
  double capacity = 0.0;
  std::vector<char> source_side;  // 1 if node is on s's side
};

MinCutResult dinic_min_cut(const CsrGraph& g, NodeId s, NodeId t);
MinCutResult dinic_min_cut(const Graph& g, NodeId s, NodeId t);

}  // namespace dmf
