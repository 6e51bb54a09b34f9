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
// by a BFS from t that stops after the row in which s is labelled, then
// augments from s over arcs one step closer to t with an iterative DFS,
// so a long s-t path never grows the call stack. Results are bitwise
// those of textbook forward-levelled Dinic over the same arc order
// (dinic.cpp gives the argument; tests/reference_dinic.h is the oracle).
//
// A run splits into what depends only on the graph (ResidualSlots, O(m)
// to build) and per-query scratch (DinicWorkspace). The workspace forms
// take both, so a caller answering many queries on one graph pays only
// for the search; the fresh forms build the tables and a local workspace
// and call the workspace form, and the Graph overloads pack a transient
// CSR view first. All forms return identical results.

// The graph-only residual tables of a CsrGraph, indexed by slot (a
// global index into its packed neighbor arrays) or by edge. Read-only
// once built, so one instance serves any number of threads. Capacities
// are copied, not borrowed: snapshots related by a capacity-only batch
// share the CSR structure arrays, and tables built from one of them
// answer for that one only.
struct ResidualSlots {
  explicit ResidualSlots(const CsrGraph& g);

  std::vector<std::size_t> reverse;  // 2m: the edge's slot in the other row
  std::vector<double> capacity;      // 2m: capacity of the slot's edge
  std::vector<std::size_t> u_slot;   // m: edge e's slot in endpoints(e).u's row
};

// Per-query scratch of the workspace forms, reused across calls and
// across graphs (each call resizes it to the graph at hand; it keeps
// the capacity of the largest graph it has seen).
struct DinicWorkspace {
  std::vector<double> flow;       // 2m: net flow out along each slot
  std::vector<int> dist;          // n: residual distance to t
  std::vector<std::size_t> iter;  // n: current arc (slot index)
  std::vector<NodeId> queue;      // n + 1: BFS queue (see dinic.cpp)
  std::vector<std::size_t> path;  // slots of the current descent
};

// Workspace forms: `slots` must have been built from `g` (or from a
// graph with the same CSR layout and capacities).
MaxFlowResult dinic_max_flow(const CsrGraph& g, const ResidualSlots& slots,
                             NodeId s, NodeId t, DinicWorkspace& ws);
double dinic_max_flow_value(const CsrGraph& g, const ResidualSlots& slots,
                            NodeId s, NodeId t, DinicWorkspace& ws);

// Fresh forms.
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
