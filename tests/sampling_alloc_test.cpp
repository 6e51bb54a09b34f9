// Allocation ratchet for virtual-tree sampling. This binary replaces the
// global operator new with a counting one, then samples trees with the
// engine's hierarchy options (structural quantization at 1 octave) on the
// engine's mutate-sized graph (gnp n=2048, ~4 edges per node). Heap
// allocations per tree are a work counter that does not depend on the
// machine: a kernel that starts allocating per level, per MWU round or
// per AKPW iteration again pushes the count past the bound.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "capprox/hierarchy.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dmf {
namespace {

TEST(SamplingAllocations, PerTreeCountStaysUnderRatchet) {
  Rng graph_rng(1);
  const Graph g = make_gnp_connected(2048, 4.0 / 2048.0, {1, 8}, graph_rng);
  HierarchyOptions options;
  options.capacity_bucket_octaves = 1.0;  // the engine's default width
  options.threads = 1;

  constexpr int kTrees = 3;
  Rng rng(7);
  const std::uint64_t before = g_allocations.load();
  for (int t = 0; t < kTrees; ++t) {
    const VirtualTreeSample sample = sample_virtual_tree(g, options, rng);
    ASSERT_EQ(sample.tree.num_nodes(), g.num_nodes());
  }
  const std::uint64_t per_tree = (g_allocations.load() - before) / kTrees;
  RecordProperty("allocations_per_tree", static_cast<int>(per_tree));
  std::printf("heap allocations per tree: %llu\n",
              static_cast<unsigned long long>(per_tree));
  // Kernels that allocate their scratch per call make ~67,000
  // allocations per tree here. The workspace kernels make ~250: the
  // sampling base, the workspace growing once, and the returned tree.
  // The bound leaves headroom for standard-library growth policies, not
  // for a kernel that allocates per level, MWU round or AKPW iteration.
  EXPECT_LE(per_tree, 400u);
}

}  // namespace
}  // namespace dmf
