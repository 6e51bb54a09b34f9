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

#include "baselines/dinic.h"
#include "engine/registry.h"
#include "graph/csr_graph.h"
#include "graph/graph.h"
#include "maxflow/sherman.h"

namespace dmf {

// Solve s-t max flow exactly with the requested baseline
// (SolverKind::kSherman and kCongestSim are rejected — the engine routes
// those itself).
// The engine passes the snapshot's CSR view together with what it keeps
// per snapshot: the Dinic slot tables (ResidualSlots, built once when
// the snapshot starts serving) and `bfs_height`, the height of the BFS
// tree from node 0 that the snapshot's ShermanHierarchy computed once
// (ShermanHierarchy::bfs_height()). `workspace` is the calling worker's
// reused Dinic scratch. An exact read thus pays only for its search,
// never for O(m) set-up or a BFS tree to price its rounds. Push-relabel
// ignores the tables and the workspace. The Graph overload packs a
// transient CSR view, builds the tables, a local workspace and the
// height itself; both report identical results.
MaxFlowApproxResult exact_max_flow_adapter(SolverKind kind, const CsrGraph& g,
                                           const ResidualSlots& slots,
                                           DinicWorkspace& workspace, NodeId s,
                                           NodeId t, int bfs_height);
MaxFlowApproxResult exact_max_flow_adapter(SolverKind kind, const Graph& g,
                                           NodeId s, NodeId t);

}  // namespace dmf
