// Algorithm Partition (§7, from Blelloch et al.): wraps SplitGraph with a
// per-weight-class quality check.
//
// Partition receives the edges grouped into K classes and a target radius
// rho. It runs SplitGraph on all allowed edges; if some class has too many
// edges split between clusters (more than O(|E_i| log N / rho)), the
// decomposition is re-drawn. W.h.p. O(log N) restarts suffice; we keep the
// best attempt as a deterministic fallback.
#pragma once

#include <cstdint>
#include <vector>

#include "lsst/split_graph.h"

namespace dmf {

struct PartitionOptions {
  double rho = 4.0;
  int max_retries = 40;
  // A class may have up to slack * |E_i| * log(N) / rho + slack * log(N)
  // cut edges before triggering a restart.
  double slack = 4.0;
};

struct PartitionResult {
  SplitResult split;
  int attempts = 1;
  bool within_budget = false;
  // Total CONGEST rounds across attempts (restarts re-run SplitGraph).
  double rounds = 0.0;
};

// edge_class[i] in [0, num_classes) for allowed edges (values for
// disallowed edges are ignored).
PartitionResult partition(const Multigraph& g,
                          const std::vector<char>& edge_allowed,
                          const std::vector<int>& edge_class, int num_classes,
                          const PartitionOptions& options, Rng& rng);

// Scratch for the workspace form below; reused across calls.
struct PartitionWorkspace {
  MultiAdjacency allowed_adjacency;  // built once per call, shared by retries
  SplitWorkspace split;
  SplitResult attempt;
  std::vector<std::int64_t> total;
  std::vector<std::int64_t> cut;
};

// Workspace form: same draws and result as partition(); `out` is
// overwritten.
void partition(const Multigraph& g, const std::vector<char>& edge_allowed,
               const std::vector<int>& edge_class, int num_classes,
               const PartitionOptions& options, Rng& rng,
               PartitionWorkspace& ws, PartitionResult& out);

}  // namespace dmf
