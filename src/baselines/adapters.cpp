#include "baselines/adapters.h"

#include "baselines/push_relabel.h"
#include "congest/ledger.h"
#include "graph/algorithms.h"

namespace dmf {

MaxFlowApproxResult exact_max_flow_adapter(SolverKind kind, const CsrGraph& g,
                                           const ResidualSlots& slots,
                                           DinicWorkspace& workspace, NodeId s,
                                           NodeId t, int bfs_height) {
  DMF_REQUIRE(kind != SolverKind::kSherman && kind != SolverKind::kCongestSim,
              "exact_max_flow_adapter: not an exact baseline");
  MaxFlowResult exact;
  switch (kind) {
    case SolverKind::kDinic:
      exact = dinic_max_flow(g, slots, s, t, workspace);
      break;
    case SolverKind::kPushRelabel:
      exact = push_relabel_max_flow(g, s, t);
      break;
    case SolverKind::kSherman:
    case SolverKind::kCongestSim:
      break;  // unreachable, rejected above
  }
  MaxFlowApproxResult out;
  out.value = exact.value;
  out.flow = std::move(exact.edge_flow);
  out.alpha = 1.0;
  out.num_trees = 0;
  out.converged = true;
  // Naive CONGEST accounting: collect the m edges at a leader over a BFS
  // tree, solve locally, broadcast the m flow values back.
  const congest::CostModel cost{.n = static_cast<int>(g.num_nodes()),
                                .diameter = bfs_height};
  out.rounds = 2.0 * cost.pipelined(static_cast<double>(g.num_edges()));
  return out;
}

MaxFlowApproxResult exact_max_flow_adapter(SolverKind kind, const Graph& g,
                                           NodeId s, NodeId t) {
  const CsrGraph csr(g);
  DinicWorkspace workspace;
  return exact_max_flow_adapter(kind, csr, ResidualSlots(csr), workspace, s, t,
                                build_bfs_tree(csr, 0).height);
}

}  // namespace dmf
