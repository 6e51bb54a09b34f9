#include "capprox/hierarchy.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <numeric>

#ifdef DMF_HAVE_OPENMP
#include <omp.h>
#endif

#include "congest/ledger.h"
#include "graph/algorithms.h"
#include "jtree/jtree.h"

namespace dmf {

double paper_beta(NodeId n) {
  const double log_n = std::log2(static_cast<double>(std::max<NodeId>(2, n)));
  return std::pow(2.0, std::pow(log_n, 0.75));
}

double tree_capacity_dither(std::uint64_t seed) {
  Rng rng(seed);
  return rng.next_double();
}

int structural_bucket(double capacity, double octaves, double dither) {
  DMF_ASSERT(capacity > 0.0 && octaves > 0.0, "structural_bucket: bad input");
  return static_cast<int>(
      std::floor(std::log2(capacity) / octaves - dither));
}

double structural_capacity(double capacity, double octaves, double dither) {
  if (octaves <= 0.0) return capacity;
  const int bucket = structural_bucket(capacity, octaves, dither);
  // Lower bucket boundary; clamped away from zero so downstream
  // cap > 0 requirements hold even for extreme inputs.
  return std::max(std::exp2(octaves * (static_cast<double>(bucket) + dither)),
                  1e-300);
}

namespace {

// One BFS from node 0 both checks connectivity and measures the height.
template <typename Traversed>
int connected_bfs_height(const Graph& g, const Traversed& view) {
  DMF_REQUIRE(g.num_nodes() >= 1, "sample_virtual_tree: empty graph");
  const BfsTree bfs = build_bfs_tree(view, 0);
  DMF_REQUIRE(std::find(bfs.depth.begin(), bfs.depth.end(), kUnreached) ==
                  bfs.depth.end(),
              "sample_virtual_tree: graph must be connected");
  return bfs.height;
}

// One j-tree candidate of a level: its AKPW tree (links are core edge
// indices) and the shape build_jtree_shape decided on it.
struct Candidate {
  RootedTree tree;
  JTreeShape shape;
};

// Everything one tree's construction allocates, kept across levels, MWU
// rounds and trees so that a worker stops allocating once it has grown.
struct SamplingWorkspace {
  Multigraph core;
  Multigraph next_core;
  std::vector<NodeId> rep;
  std::vector<NodeId> new_rep;
  std::vector<NodeId> old_to_new;
  std::vector<double> cluster_size;
  std::vector<double> new_size;
  std::vector<double> weight;
  std::vector<double> lambda;
  std::vector<Candidate> candidates;
  JTree pick;
  AkpwWorkspace akpw;
  SparsifyWorkspace sparsify;
  JTreeWorkspace jtree;
  MultiAdjacency tree_adjacency;
  std::vector<NodeId> queue;
};

VirtualTreeSample sample_tree(const TreeSamplingBase& base,
                              const HierarchyOptions& options, Rng& rng,
                              SamplingWorkspace& ws) {
  const Graph& g = base.graph();
  const NodeId n = g.num_nodes();
  const auto nn = static_cast<std::size_t>(n);
  // The capacity-bucket dither is ALWAYS the stream's first draw (even
  // with quantization off), so a tree's dither — and hence its dirty
  // predicate under repair — is recomputable from its seed alone, and
  // the stream layout does not depend on the quantization width.
  const double dither = rng.next_double();
  DMF_REQUIRE(options.beta >= 2.0, "sample_virtual_tree: beta must be >= 2");

  VirtualTreeSample out;
  out.tree.parent.assign(nn, kInvalidNode);
  out.tree.parent_cap.assign(nn, 0.0);
  out.tree.parent_edge.assign(nn, kInvalidEdge);

  const double sqrt_n = std::sqrt(static_cast<double>(n));
  const int finish_threshold =
      options.finish_threshold > 0
          ? options.finish_threshold
          : std::max(8, static_cast<int>(std::ceil(2.0 * sqrt_n)));
  const int trees_per_level =
      options.trees_per_level > 0
          ? options.trees_per_level
          : std::max(3, static_cast<int>(std::lround(options.beta)));
  if (ws.candidates.size() < static_cast<std::size_t>(trees_per_level)) {
    ws.candidates.resize(static_cast<std::size_t>(trees_per_level));
  }

  // Measured diameter bound for the round accounting.
  const congest::CostModel cost{.n = static_cast<int>(n),
                                .diameter = base.bfs_height()};
  const double log_n = cost.log_n();

  // Level state. With quantization on, the structural phase sees every
  // capacity rounded down to this tree's dithered bucket boundary; the
  // exact capacities return in the final recapacitation below. All
  // deeper levels derive from this core, so one pass here quantizes the
  // whole construction.
  Multigraph& core = ws.core;
  core = base.multigraph();
  if (options.capacity_bucket_octaves > 0.0) {
    for (std::size_t i = 0; i < core.num_edges(); ++i) {
      MultiEdge& e = core.edge_mutable(i);
      e.cap = structural_capacity(e.cap, options.capacity_bucket_octaves,
                                  dither);
      e.length = 1.0 / e.cap;
    }
  }
  std::vector<NodeId>& rep = ws.rep;
  rep.resize(nn);
  std::iota(rep.begin(), rep.end(), 0);
  std::vector<double>& cluster_size = ws.cluster_size;  // one per core node
  cluster_size.assign(nn, 1.0);
  double cluster_depth = 0.0;  // depth bound shared across the level

  bool went_local = false;
  while (core.num_nodes() > 1) {
    const NodeId level_n = core.num_nodes();
    out.level_sizes.push_back(static_cast<int>(level_n));
    ++out.levels;
    DMF_REQUIRE(out.levels <= 64, "sample_virtual_tree: level runaway");
    const bool local = level_n <= finish_threshold;
    if (local && !went_local) {
      went_local = true;
      // Make the (small) core globally known: pipelined broadcast of
      // O(level_n * polylog) words over a BFS tree.
      out.rounds += cost.pipelined(static_cast<double>(level_n) * log_n);
    }
    const double large_clusters = std::min(
        static_cast<double>(level_n),
        static_cast<double>(std::count_if(
            cluster_size.begin(), cluster_size.end(),
            [sqrt_n](double s) { return s > sqrt_n; })));
    const double step =
        local ? 0.0 : cost.cluster_step(cluster_depth, large_clusters);

    // --- (1) Sparsify a dense core. ---
    if (static_cast<double>(core.num_edges()) >
        options.sparsify_degree * static_cast<double>(level_n)) {
      SparsifyResult& sp = sparsify(core, options.sparsifier, rng, ws.sparsify);
      for (std::size_t i = 0; i < sp.graph.num_edges(); ++i) {
        MultiEdge& e = sp.graph.edge_mutable(i);
        e.cap *= options.sparsifier_upscale;
        e.length = 1.0 / e.cap;
      }
      std::swap(core, sp.graph);
      if (!local) out.rounds += sp.rounds * std::max(1.0, step);
    }

    // --- (2) Build the per-level j-tree distribution via MWU. ---
    // Each candidate stops at its shape (every random draw happens
    // there); only the sampled one is materialized, in step (3).
    const int j =
        std::max(1, static_cast<int>(static_cast<double>(level_n) /
                                     (4.0 * options.beta)));
    JTreeOptions jopt;
    jopt.j = j;
    jopt.sqrt_target = local ? 0.0 : sqrt_n;

    std::vector<double>& weight = ws.weight;
    weight.assign(core.num_edges(), 1.0);
    std::vector<double>& lambda = ws.lambda;  // sampling weight per tree
    lambda.clear();
    for (int t = 0; t < trees_per_level; ++t) {
      for (std::size_t i = 0; i < core.num_edges(); ++i) {
        MultiEdge& e = core.edge_mutable(i);
        e.length = weight[i] / e.cap;
      }
      const LowStretchTreeResult& lsst =
          akpw_low_stretch_tree(core, options.akpw, rng, ws.akpw);
      Candidate& cand = ws.candidates[static_cast<std::size_t>(t)];
      tree_from_multigraph_edges(core, lsst.tree_edges, 0,
                                 TreeLinkId::kMultigraphEdge, cand.tree,
                                 ws.tree_adjacency, ws.queue);
      build_jtree_shape(core, cand.tree, cluster_size, jopt, rng, cand.shape,
                        ws.jtree);
      if (cand.shape.portal_count >= level_n && level_n > 1) {
        // The random cut set R was too aggressive (possible when cluster
        // sizes approach sqrt(n) before the local threshold): rebuild
        // without it; Lemma 8.5 then guarantees < 4j portals.
        JTreeOptions fallback = jopt;
        fallback.sqrt_target = 0.0;
        build_jtree_shape(core, cand.tree, cluster_size, fallback, rng,
                          cand.shape, ws.jtree);
      }
      // MWU: lengthen heavily loaded tree edges (every tree link has
      // relative load >= 1).
      const double max_rload = cand.shape.max_rload;
      if (max_rload > 0.0) {
        for (NodeId v = 0; v < level_n; ++v) {
          if (v == cand.tree.root) continue;
          const auto vi = static_cast<std::size_t>(v);
          weight[static_cast<std::size_t>(cand.tree.parent_edge[vi])] *=
              1.0 + options.mwu_eta * cand.shape.rload[vi] / max_rload;
        }
      }
      lambda.push_back(1.0 / std::max(1.0, max_rload));
      if (!local) {
        // LSST construction simulated on the cluster graph + the load
        // aggregation of Lemma 8.3.
        out.rounds += lsst.bfs_rounds * std::max(1.0, step);
        out.rounds += (cost.diameter + 2.0 * sqrt_n + cluster_depth) * log_n;
      }
    }

    // --- (3) Sample one j-tree (O(log n) random bits broadcast). ---
    // lambda-weighted sampling: trees whose maximum relative load is
    // smaller approximate cuts better and get proportionally more mass —
    // the small-scale stand-in for the lambda weights Madry's analysis
    // assigns across the MWU sequence.
    if (!local) out.rounds += cost.bfs();
    double lambda_total = 0.0;
    for (const double l : lambda) lambda_total += l;
    double draw = rng.next_double() * lambda_total;
    std::size_t pick_index = lambda.size() - 1;
    for (std::size_t i = 0; i < lambda.size(); ++i) {
      draw -= lambda[i];
      if (draw <= 0.0) {
        pick_index = i;
        break;
      }
    }
    const Candidate& chosen = ws.candidates[pick_index];
    materialize_jtree(core, chosen.tree, chosen.shape, ws.pick, ws.jtree);
    const JTree& pick = ws.pick;

    // --- (4) Materialize forest links into the virtual tree. ---
    for (NodeId c = 0; c < level_n; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      const NodeId fp = pick.forest_parent[ci];
      if (fp == kInvalidNode) continue;  // portal: survives to next level
      const auto child_rep = static_cast<std::size_t>(rep[ci]);
      DMF_REQUIRE(out.tree.parent[child_rep] == kInvalidNode,
                  "sample_virtual_tree: representative reused");
      out.tree.parent[child_rep] = rep[static_cast<std::size_t>(fp)];
      out.tree.parent_cap[child_rep] = pick.forest_cap[ci];
      const std::size_t fe = pick.forest_edge[ci];
      out.tree.parent_edge[child_rep] =
          fe == kNoMultiEdge ? kInvalidEdge : core.edge(fe).base_edge;
    }

    // --- (5) Build the next level on the portal core. ---
    const NodeId next_n = static_cast<NodeId>(pick.portal_count);
    DMF_REQUIRE(next_n >= 1 && next_n < level_n,
                "sample_virtual_tree: no progress at this level");
    std::vector<NodeId>& old_to_new = ws.old_to_new;
    old_to_new.assign(static_cast<std::size_t>(level_n), kInvalidNode);
    std::vector<NodeId>& new_rep = ws.new_rep;
    new_rep.resize(static_cast<std::size_t>(next_n));
    std::vector<double>& new_size = ws.new_size;
    new_size.assign(static_cast<std::size_t>(next_n), 0.0);
    NodeId next_id = 0;
    for (NodeId c = 0; c < level_n; ++c) {
      if (pick.is_portal[static_cast<std::size_t>(c)]) {
        old_to_new[static_cast<std::size_t>(c)] = next_id;
        new_rep[static_cast<std::size_t>(next_id)] =
            rep[static_cast<std::size_t>(c)];
        ++next_id;
      }
    }
    DMF_REQUIRE(next_id == next_n, "sample_virtual_tree: portal miscount");
    for (NodeId c = 0; c < level_n; ++c) {
      const NodeId p = pick.portal[static_cast<std::size_t>(c)];
      new_size[static_cast<std::size_t>(
          old_to_new[static_cast<std::size_t>(p)])] +=
          cluster_size[static_cast<std::size_t>(c)];
    }
    Multigraph& next_core = ws.next_core;
    next_core.reset(next_n);
    for (std::size_t i = 0; i < pick.core.num_edges(); ++i) {
      MultiEdge e = pick.core.edge(i);
      e.u = old_to_new[static_cast<std::size_t>(e.u)];
      e.v = old_to_new[static_cast<std::size_t>(e.v)];
      next_core.add_edge(e);
    }
    // New cluster-tree depth bound: old trees plus forest paths
    // (Lemma 8.2 keeps pick.max_forest_depth at Õ(sqrt n)). A cluster
    // tree is a subtree of G, so n is a hard cap.
    cluster_depth = std::min(
        static_cast<double>(n),
        cluster_depth +
            static_cast<double>(pick.max_forest_depth) *
                (2.0 * cluster_depth + 1.0) +
            1.0);
    out.max_cluster_depth =
        std::max(out.max_cluster_depth,
                 static_cast<int>(std::min(cluster_depth,
                                           static_cast<double>(n))));
    std::swap(core, next_core);
    rep.swap(new_rep);
    cluster_size.swap(new_size);
  }

  // Root the virtual tree at the last surviving representative.
  DMF_REQUIRE(core.num_nodes() == 1, "sample_virtual_tree: bad final core");
  out.tree.root = rep[0];
  out.tree.validate();

  // Recapacitate every link with the exact load of the canonical
  // embedding of G into the tree (the |f'| of §8.1, computed on the final
  // tree by the Lemma 8.3 aggregation in Õ(sqrt n + D) rounds). The
  // level-wise capacities drift by the compounded sparsifier slack; the
  // exact loads restore the Räcke property precisely: every tree cut has
  // capacity >= the corresponding G cut, so ||Rb|| never overestimates
  // congestion.
  const std::vector<double> exact_loads = tree_edge_loads(g, out.tree);
  for (NodeId v = 0; v < n; ++v) {
    if (v == out.tree.root) continue;
    out.tree.parent_cap[static_cast<std::size_t>(v)] =
        std::max(exact_loads[static_cast<std::size_t>(v)], 1e-12);
  }
  out.rounds += (cost.diameter + 2.0 * sqrt_n) * log_n;
  return out;
}

}  // namespace

TreeSamplingBase::TreeSamplingBase(const Graph& g)
    : graph_(&g),
      bfs_height_(connected_bfs_height(g, g)),
      base_(Multigraph::from_graph(g)) {}

TreeSamplingBase::TreeSamplingBase(const Graph& g, const CsrGraph& csr)
    : graph_(&g),
      bfs_height_(connected_bfs_height(g, csr)),
      base_(Multigraph::from_graph(g)) {}

VirtualTreeSample sample_virtual_tree(const Graph& g,
                                      const HierarchyOptions& options,
                                      Rng& rng) {
  const TreeSamplingBase base(g);
  SamplingWorkspace ws;
  return sample_tree(base, options, rng, ws);
}

int default_virtual_tree_count(NodeId n) {
  return static_cast<int>(std::ceil(
      2.0 * std::log2(static_cast<double>(std::max<NodeId>(2, n)))));
}

void sample_trees_from_seeds(const TreeSamplingBase& base,
                             const HierarchyOptions& options,
                             const std::vector<std::uint64_t>& seeds,
                             const std::vector<int>& indices,
                             std::vector<VirtualTreeSample>& samples) {
  const auto sample_one = [&](int i, SamplingWorkspace& ws) {
    Rng tree_rng(seeds[static_cast<std::size_t>(i)]);
    samples[static_cast<std::size_t>(i)] =
        sample_tree(base, options, tree_rng, ws);
  };
  const int count = static_cast<int>(indices.size());
  int threads = options.threads;
#ifdef DMF_HAVE_OPENMP
  if (threads <= 0) threads = omp_get_max_threads();
  if (threads > 1 && count > 1) {
    // Sampling may throw (DMF_REQUIRE); OpenMP must not let an exception
    // escape a parallel region, so capture the first one and rethrow.
    std::exception_ptr error;
#pragma omp parallel num_threads(threads)
    {
      SamplingWorkspace ws;
#pragma omp for schedule(dynamic)
      for (int k = 0; k < count; ++k) {
        try {
          sample_one(indices[static_cast<std::size_t>(k)], ws);
        } catch (...) {
#pragma omp critical
          if (!error) error = std::current_exception();
        }
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
#else
  (void)threads;
#endif
  SamplingWorkspace ws;
  for (const int i : indices) sample_one(i, ws);
}

std::vector<VirtualTreeSample> sample_virtual_trees(
    const Graph& g, int count, const HierarchyOptions& options, Rng& rng,
    std::vector<std::uint64_t>* seeds_out) {
  return sample_virtual_trees(TreeSamplingBase(g), count, options, rng,
                              seeds_out);
}

std::vector<VirtualTreeSample> sample_virtual_trees(
    const TreeSamplingBase& base, int count, const HierarchyOptions& options,
    Rng& rng, std::vector<std::uint64_t>* seeds_out) {
  if (count <= 0) count = default_virtual_tree_count(base.graph().num_nodes());
  // Derive one independent RNG stream per tree from the caller's
  // generator BEFORE any sampling happens. The samples are then a pure
  // function of the seed list, so the loop may run on any number of
  // threads and still produce bit-identical trees in the same order.
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(count));
  for (std::uint64_t& s : seeds) s = rng() ^ 0x9e3779b97f4a7c15ULL;
  if (seeds_out != nullptr) *seeds_out = seeds;

  std::vector<VirtualTreeSample> samples(static_cast<std::size_t>(count));
  std::vector<int> indices(static_cast<std::size_t>(count));
  std::iota(indices.begin(), indices.end(), 0);
  sample_trees_from_seeds(base, options, seeds, indices, samples);
  return samples;
}

}  // namespace dmf
