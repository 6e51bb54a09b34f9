// Adapters that present the exact baselines (Dinic, push-relabel) through
// the approximate solver's result type, so the FlowEngine's registry can
// dispatch a query to either family and hand back one uniform result.
//
// An exact answer is reported with alpha = 1, num_trees = 0 and
// converged = true; `rounds` carries the trivial CONGEST accounting for
// centrally collecting the graph and broadcasting the flow (O(m) words
// pipelined over a BFS tree), which is exactly the naive baseline the
// paper's algorithm is measured against.
#pragma once

#include "engine/registry.h"
#include "graph/csr_graph.h"
#include "graph/graph.h"
#include "maxflow/sherman.h"

namespace dmf {

// Solve s-t max flow exactly with the requested baseline
// (SolverKind::kSherman and kCongestSim are rejected — the engine routes
// those itself).
// The engine passes the snapshot's CSR view together with `bfs_height`,
// the height of the BFS tree from node 0 that the snapshot's
// ShermanHierarchy computed once (ShermanHierarchy::bfs_height()), so an
// exact query never rebuilds that tree just to price its rounds. The
// Graph overload packs a transient CSR view and computes the height
// itself; both report identical results.
MaxFlowApproxResult exact_max_flow_adapter(SolverKind kind, const CsrGraph& g,
                                           NodeId s, NodeId t, int bfs_height);
MaxFlowApproxResult exact_max_flow_adapter(SolverKind kind, const Graph& g,
                                           NodeId s, NodeId t);

}  // namespace dmf
