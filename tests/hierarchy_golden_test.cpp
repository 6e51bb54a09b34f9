// Bitwise parity gate for virtual-tree sampling. Each case hashes every
// sampled tree (root, parent, the bit patterns of parent_cap, parent_edge,
// level_sizes, levels, max_cluster_depth and rounds) and compares the
// digest with a golden value recorded from the reference implementation.
// Any change to the sampling kernels that moves a single RNG draw, a
// traversal order or a floating-point association shows up here as a
// different digest. The thread count must not matter, so every case runs
// at 1 and 4 threads against the same golden.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "capprox/hierarchy.h"
#include "graph/generators.h"
#include "maxflow/sherman.h"
#include "util/rng.h"

namespace dmf {
namespace {

// FNV-1a over raw bytes.
class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void value(const T& x) {
    bytes(&x, sizeof(T));
  }
  template <typename T>
  void values(const std::vector<T>& xs) {
    value(xs.size());
    if (!xs.empty()) bytes(xs.data(), xs.size() * sizeof(T));
  }
  [[nodiscard]] std::uint64_t get() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void hash_tree(Digest& d, const RootedTree& t) {
  d.value(t.root);
  d.values(t.parent);
  d.values(t.parent_cap);  // doubles hashed by bit pattern
  d.values(t.parent_edge);
}

Graph family_graph(int family, std::uint64_t seed) {
  Rng rng(seed);
  switch (family) {
    case 0:
      return make_gnp_connected(400, 5.0 / 400.0, {1, 20}, rng);
    case 1:
      return make_grid(20, 15, {1, 20}, rng);
    default:
      // Dense cliques: the level-0 core exceeds the sparsify threshold.
      return make_barbell(40, {1, 20}, 3.0, rng);
  }
}

constexpr const char* kFamilyName[] = {"gnp", "grid", "barbell"};
constexpr std::uint64_t kSeeds[] = {11, 29};
constexpr double kOctaves[] = {0.0, 1.0};

std::uint64_t sample_digest(const Graph& g, HierarchyOptions options,
                            double octaves, int threads, std::uint64_t seed) {
  options.capacity_bucket_octaves = octaves;
  options.threads = threads;
  Rng rng(seed);
  std::vector<std::uint64_t> seeds;
  const std::vector<VirtualTreeSample> samples =
      sample_virtual_trees(g, 4, options, rng, &seeds);
  Digest d;
  d.values(seeds);
  for (const VirtualTreeSample& s : samples) {
    hash_tree(d, s.tree);
    d.value(s.levels);
    d.value(s.rounds);
    d.values(s.level_sizes);
    d.value(s.max_cluster_depth);
  }
  d.value(rng());  // the caller's stream position after sampling
  return d.get();
}

// Indexed [family][seed][octaves], recorded from the reference sampler.
constexpr std::uint64_t kSampleGolden[3][2][2] = {
    {{0xf26e87fc6e6af5e1ULL, 0x97f8ed5f4c4db8c1ULL},
     {0xd553b28a22dd9fb6ULL, 0xc8c66c2397c67100ULL}},  // gnp
    {{0x05ac8707eee59e3cULL, 0xadd9b02585460c0bULL},
     {0xa0502a67dfe941abULL, 0xaae47a521b9dd395ULL}},  // grid
    {{0x0ca7a4cae0f9da5fULL, 0xe5c205f40dc08b28ULL},
     {0xdd4ad24cbf8ed927ULL, 0xd3615ee731cd39f8ULL}},  // barbell
};

TEST(HierarchyGolden, SampledTreesMatchReferenceBitwise) {
  for (int f = 0; f < 3; ++f) {
    for (int s = 0; s < 2; ++s) {
      const Graph g = family_graph(f, kSeeds[s]);
      for (int o = 0; o < 2; ++o) {
        for (const int threads : {1, 4}) {
          const std::uint64_t got = sample_digest(
              g, HierarchyOptions{}, kOctaves[o], threads, 1000 + kSeeds[s]);
          EXPECT_EQ(got, kSampleGolden[f][s][o])
              << kFamilyName[f] << " seed " << kSeeds[s] << " octaves "
              << kOctaves[o] << " threads " << threads << ": got 0x"
              << std::hex << got;
        }
      }
    }
  }
}

// A finish threshold far below 2*sqrt(n) keeps the Lemma 8.2 random cut
// set on while cluster sizes approach sqrt(n), which drives some levels
// into the j-tree rebuild without it. Indexed [family].
constexpr std::uint64_t kFallbackGolden[3] = {
    0x6c39eabe4ec48c37ULL, 0x9c6d1d426a505ca9ULL, 0xc0af95bb4f937c52ULL};

TEST(HierarchyGolden, RandomCutFallbackMatchesReferenceBitwise) {
  HierarchyOptions options;
  options.finish_threshold = 4;
  for (int f = 0; f < 3; ++f) {
    const Graph g = family_graph(f, kSeeds[0]);
    for (const int threads : {1, 4}) {
      const std::uint64_t got = sample_digest(g, options, 1.0, threads, 5);
      EXPECT_EQ(got, kFallbackGolden[f])
          << kFamilyName[f] << " threads " << threads << ": got 0x"
          << std::hex << got;
    }
  }
}

std::uint64_t hierarchy_digest(const ShermanHierarchy& h) {
  Digest d;
  for (int t = 0; t < h.approximator().num_trees(); ++t) {
    hash_tree(d, h.approximator().tree(t));
  }
  d.value(h.alpha());
  d.value(h.build_rounds());
  d.value(h.bfs_height());
  for (const TreeBuildRecord& r : h.tree_records()) {
    d.value(r.seed);
    d.value(r.dither);
    d.value(r.rounds);
  }
  return d.get();
}

constexpr std::uint64_t kRepairGolden = 0xcc3b2ae915800d96ULL;

// A capacity batch that dirties some trees and leaves others clean, so
// the repair both resamples and splices.
TEST(HierarchyGolden, RepairAfterCapacityBatchMatchesReferenceBitwise) {
  for (const int threads : {1, 4}) {
    Rng graph_rng(77);
    const auto graph = std::make_shared<Graph>(
        make_gnp_connected(300, 6.0 / 300.0, {1, 20}, graph_rng));
    ShermanOptions options;
    options.num_trees = 6;
    options.hierarchy.capacity_bucket_octaves = 1.0;
    options.hierarchy.threads = threads;
    Rng build_rng(555);
    const ShermanHierarchy prev(graph, options, build_rng, 0);

    auto next = std::make_shared<Graph>(*graph);
    for (EdgeId e = 0; e < next->num_edges(); e += 37) {
      next->set_capacity(e, next->capacity(e) * 1.05);
    }
    next->set_capacity(5, next->capacity(5) * 1.5);
    Rng repair_rng(555);
    HierarchyRepairReport report;
    const auto repaired = ShermanHierarchy::repair(
        prev, next, options, repair_rng, 1, nullptr, &report);
    ASSERT_NE(repaired, nullptr);
    EXPECT_GT(report.trees_repaired, 0);
    EXPECT_GT(report.trees_reused, 0);
    const std::uint64_t got = hierarchy_digest(*repaired);
    EXPECT_EQ(got, kRepairGolden)
        << "threads " << threads << ": got 0x" << std::hex << got;
  }
}

}  // namespace
}  // namespace dmf
