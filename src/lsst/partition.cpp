#include "lsst/partition.h"

#include <cmath>
#include <utility>

namespace dmf {

namespace {

// Number of allowed cut edges per class under `split`, into `cut`.
void cut_edges_per_class(const Multigraph& g,
                         const std::vector<char>& edge_allowed,
                         const std::vector<int>& edge_class, int num_classes,
                         const SplitResult& split,
                         std::vector<std::int64_t>& cut) {
  cut.assign(static_cast<std::size_t>(num_classes), 0);
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    if (!edge_allowed[i]) continue;
    const MultiEdge& e = g.edge(i);
    if (split.cluster[static_cast<std::size_t>(e.u)] !=
        split.cluster[static_cast<std::size_t>(e.v)]) {
      const int c = edge_class[i];
      DMF_REQUIRE(c >= 0 && c < num_classes, "partition: bad edge class");
      ++cut[static_cast<std::size_t>(c)];
    }
  }
}

}  // namespace

PartitionResult partition(const Multigraph& g,
                          const std::vector<char>& edge_allowed,
                          const std::vector<int>& edge_class, int num_classes,
                          const PartitionOptions& options, Rng& rng) {
  PartitionWorkspace ws;
  PartitionResult out;
  partition(g, edge_allowed, edge_class, num_classes, options, rng, ws, out);
  return out;
}

void partition(const Multigraph& g, const std::vector<char>& edge_allowed,
               const std::vector<int>& edge_class, int num_classes,
               const PartitionOptions& options, Rng& rng,
               PartitionWorkspace& ws, PartitionResult& best) {
  DMF_REQUIRE(num_classes >= 1, "partition: need at least one class");
  DMF_REQUIRE(edge_class.size() == g.num_edges(),
              "partition: class array size mismatch");
  DMF_REQUIRE(edge_allowed.size() == g.num_edges(),
              "partition: allowed mask size mismatch");
  const double log_n =
      std::log2(static_cast<double>(std::max<NodeId>(2, g.num_nodes())));

  // Per-class allowed edge counts for the budget.
  std::vector<std::int64_t>& total = ws.total;
  total.assign(static_cast<std::size_t>(num_classes), 0);
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    if (edge_allowed[i]) ++total[static_cast<std::size_t>(edge_class[i])];
  }
  // The allowed edges do not change between attempts.
  ws.allowed_adjacency.assign(g, edge_allowed);

  best.split.cluster.clear();  // the result when max_retries < 1
  best.split.parent.clear();
  best.split.parent_edge.clear();
  best.split.count = 0;
  best.split.rounds = 0.0;
  best.attempts = 1;
  best.within_budget = false;
  double best_violation = -1.0;
  double total_rounds = 0.0;
  for (int attempt = 1; attempt <= options.max_retries; ++attempt) {
    SplitResult& split = ws.attempt;
    split_graph(g.num_nodes(), ws.allowed_adjacency, options.rho, rng,
                ws.split, split);
    total_rounds += split.rounds;
    cut_edges_per_class(g, edge_allowed, edge_class, num_classes, split,
                        ws.cut);
    bool ok = true;
    double violation = 0.0;
    for (int c = 0; c < num_classes; ++c) {
      const double limit =
          options.slack *
              static_cast<double>(total[static_cast<std::size_t>(c)]) * log_n /
              options.rho +
          options.slack * log_n;
      const double over =
          static_cast<double>(ws.cut[static_cast<std::size_t>(c)]) - limit;
      if (over > 0.0) {
        ok = false;
        violation += over;
      }
    }
    if (ok) {
      std::swap(best.split, split);
      best.attempts = attempt;
      best.within_budget = true;
      best.rounds = total_rounds;
      return;
    }
    if (best_violation < 0.0 || violation < best_violation) {
      best_violation = violation;
      std::swap(best.split, split);
      best.attempts = attempt;
    }
  }
  best.within_budget = false;
  best.rounds = total_rounds;
}

}  // namespace dmf
