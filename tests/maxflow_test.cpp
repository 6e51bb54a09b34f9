// End-to-end tests for AlmostRoute and the Sherman max-flow driver:
// conservation, feasibility, and the (1-eps) value guarantee against the
// exact Dinic baseline (Theorem 1.1).
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "baselines/dinic.h"
#include "capprox/racke.h"
#include "graph/algorithms.h"
#include "graph/flow.h"
#include "graph/generators.h"
#include "maxflow/almost_route.h"
#include "maxflow/sherman.h"
#include "maxflow/softmax.h"
#include "util/rng.h"
#include "util/vector_clones.h"

// As in the library's cloned files: see the ISA wrappers below.
DMF_FP_CONTRACT_OFF

namespace dmf {
namespace {

CongestionApproximator racke_approximator(const Graph& g, int trees,
                                          Rng& rng) {
  RackeOptions options;
  options.num_trees = trees;
  return CongestionApproximator(build_racke_trees(g, options, rng).trees);
}

TEST(AlmostRoute, ZeroDemandReturnsZeroFlow) {
  Rng rng(601);
  const Graph g = make_grid(4, 4, {1, 4}, rng);
  const CongestionApproximator approx = racke_approximator(g, 3, rng);
  const AlmostRouteResult result = almost_route(
      g, approx, std::vector<double>(16, 0.0), AlmostRouteOptions{});
  EXPECT_TRUE(result.converged);
  for (const double f : result.flow) EXPECT_DOUBLE_EQ(f, 0.0);
}

TEST(AlmostRoute, RoutesMostOfTheDemand) {
  Rng rng(607);
  const Graph g = make_gnp_connected(30, 0.15, {2, 8}, rng);
  const CongestionApproximator approx = racke_approximator(g, 4, rng);
  const std::vector<double> b = st_demand(30, 0, 29, 1.0);
  AlmostRouteOptions options;
  options.epsilon = 0.5;
  options.alpha = 3.0;
  const AlmostRouteResult result = almost_route(g, approx, b, options);
  EXPECT_TRUE(result.converged);
  // The returned flow must have routed a significant fraction of b:
  // residual well below the original demand.
  const std::vector<double> div = flow_divergence(g, result.flow);
  double residual = 0.0;
  for (NodeId v = 0; v < 30; ++v) {
    residual += std::abs(b[static_cast<std::size_t>(v)] -
                         div[static_cast<std::size_t>(v)]);
  }
  EXPECT_LT(residual, 1.0);  // |b|_1 = 2
  EXPECT_GT(result.iterations, 0);
  EXPECT_GT(result.rounds, 0.0);
}

TEST(AlmostRoute, CongestionNearOptimal) {
  // Two-node graph, one edge: optimal congestion for unit demand is
  // 1/cap; AlmostRoute + exact cleanup must land near it.
  Rng rng(613);
  Graph g(2);
  g.add_edge(0, 1, 4.0);
  const CongestionApproximator approx = racke_approximator(g, 2, rng);
  const std::vector<double> b = st_demand(2, 0, 1, 1.0);
  AlmostRouteOptions options;
  options.epsilon = 0.3;
  const AlmostRouteResult result = almost_route(g, approx, b, options);
  EXPECT_TRUE(result.converged);
  // Flow should be close to 1.0 on the single edge.
  EXPECT_NEAR(result.flow[0], 1.0, 0.4);
}

// Deep in the guard regime: 16 ln(n) / eps >= 1500, so phi = phi_1 +
// phi_2 >= 1500 forces max_1 + max_2 > 1400 and at least one soft-max
// takes the two-exp path (M > 700) on every iteration.
TEST(AlmostRoute, ConvergesWithSoftmaxPastSharedScaleLimit) {
  Rng rng(619);
  const NodeId n = 30;
  const Graph g = make_gnp_connected(n, 0.15, {2, 8}, rng);
  const CongestionApproximator approx = racke_approximator(g, 4, rng);
  const std::vector<double> b = st_demand(n, 0, n - 1, 1.0);
  AlmostRouteOptions options;
  options.epsilon = 0.03;
  options.alpha = 3.0;
  ASSERT_GE(16.0 * std::log(static_cast<double>(n)) / options.epsilon, 1500.0);
  const AlmostRouteResult result = almost_route(g, approx, b, options);
  EXPECT_TRUE(result.converged);
  EXPECT_GE(result.potential, 1500.0);
  for (const double f : result.flow) EXPECT_TRUE(std::isfinite(f));
  const std::vector<double> div = flow_divergence(g, result.flow);
  double residual = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    residual += std::abs(b[static_cast<std::size_t>(v)] -
                         div[static_cast<std::size_t>(v)]);
  }
  EXPECT_LT(residual, 1.0);  // |b|_1 = 2
}

// Entries k/64 on [-max_abs, max_abs], so x - M and -x - M are exact and
// the direct formula std::exp(+-x - M) is a correctly rounded reference.
// Every 7th entry is excluded and carries the largest |x|, so including
// it by mistake would change M.
void expect_softmax_matches_direct(double max_abs) {
  Rng rng(static_cast<std::uint64_t>(max_abs));
  const auto span = static_cast<std::uint64_t>(max_abs * 64.0);
  std::vector<double> x(700);
  std::vector<std::size_t> excluded;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (i % 7 == 3) {
      x[i] = 2.0 * max_abs;
      excluded.push_back(i);
      continue;
    }
    const auto k = static_cast<double>(rng.next_below(2 * span + 1));
    x[i] = (k - static_cast<double>(span)) / 64.0;
  }
  x[0] = max_abs;  // pin M, and both signs of the extreme
  x[1] = -max_abs;
  x[2] = 0.0;

  SoftmaxTerms terms;
  symmetric_softmax(x, excluded, terms);
  ASSERT_EQ(terms.pos.size(), x.size());
  ASSERT_EQ(terms.neg.size(), x.size());
  EXPECT_EQ(terms.max_abs, max_abs);

  // 4 ulp relative for normal results, DBL_MIN absolute for subnormal.
  const auto expect_close = [](double got, double want) {
    const double tolerance =
        want >= DBL_MIN ? 4.0 * DBL_EPSILON * want : DBL_MIN;
    EXPECT_LE(std::abs(got - want), tolerance)
        << "got " << got << " want " << want;
  };
  double sum = 0.0;
  std::size_t next_excluded = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (next_excluded < excluded.size() && excluded[next_excluded] == i) {
      ++next_excluded;
      EXPECT_EQ(terms.pos[i], 0.0);
      EXPECT_EQ(terms.neg[i], 0.0);
      continue;
    }
    const double pos = std::exp(x[i] - max_abs);
    const double neg = std::exp(-x[i] - max_abs);
    expect_close(terms.pos[i], pos);
    expect_close(terms.neg[i], neg);
    sum += pos + neg;
  }
  EXPECT_NEAR(terms.sum, sum, 1e-13 * sum);
  EXPECT_NEAR(terms.value(), max_abs + std::log(sum), 1e-12 * max_abs);
}

TEST(SymmetricSoftmax, SharedScaleMatchesDirectFormula) {
  expect_softmax_matches_direct(kSoftmaxSharedScaleLimit);
  expect_softmax_matches_direct(37.5);
}

TEST(SymmetricSoftmax, PastSharedScaleLimitMatchesDirectFormula) {
  expect_softmax_matches_direct(1500.0);
}

TEST(SymmetricSoftmax, RejectsUnorderedExclusions) {
  SoftmaxTerms terms;
  const std::vector<double> x(4, 1.0);
  EXPECT_THROW(symmetric_softmax(x, {2, 1}, terms), RequirementError);
  EXPECT_THROW(symmetric_softmax(x, {4}, terms), RequirementError);
}

// A dense grid whose step is not a power of two, so the reduction sees
// arbitrary fractions of ln 2. std::exp is the reference.
TEST(SymmetricSoftmax, ExpKernelWithinTwoEpsilonOnItsRange) {
  const int steps = 1999993;
  double worst = 0.0;
  for (int k = 0; k <= steps; ++k) {
    const double x = -708.0 + 1416.0 * k / steps;
    const double want = std::exp(x);
    const double got = detail::exp_kernel(x);
    worst = std::max(worst, std::abs(got - want) / want);
  }
  EXPECT_LE(worst, 2.0 * DBL_EPSILON);
}

#if defined(__x86_64__) && defined(__GNUC__)
#define DMF_TEST_HAVE_ISA_WRAPPERS 1

// The ISAs the library clones its kernels for (util/vector_clones.h).
enum class Isa { kDefault, kAvx2, kAvx512f };

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512f: return "avx512f";
    default: return "default";
  }
}

bool cpu_supports(Isa isa) {
  switch (isa) {
    case Isa::kAvx2: return __builtin_cpu_supports("avx2") != 0;
    case Isa::kAvx512f: return __builtin_cpu_supports("avx512f") != 0;
    default: return true;
  }
}

// Runs `body` compiled for one target ISA, the way the library's clones
// compile the same always-inline kernel, so the comparison runs on any
// x86-64 build. `body` is an always_inline lambda: it and the kernels in
// it are inlined into, and vectorized for, the target function. This
// file turns contraction off (top of file) as the cloned library files
// do.
template <class Body>
void run_default(const Body& body) { body(); }
template <class Body>
__attribute__((target("avx2"))) void run_avx2(const Body& body) { body(); }
template <class Body>
__attribute__((target("avx512f"))) void run_avx512f(const Body& body) {
  body();
}
template <class Body>
void run_for(Isa isa, const Body& body) {
  switch (isa) {
    case Isa::kAvx2: run_avx2(body); break;
    case Isa::kAvx512f: run_avx512f(body); break;
    default: run_default(body); break;
  }
}

struct SoftmaxCase {
  std::vector<double> x;
  std::vector<std::size_t> excluded;
  std::vector<double> pos;
  std::vector<double> neg;
  double max_abs = -1.0;
  double sum = -1.0;
};

void run_softmax_terms(Isa isa, SoftmaxCase& c) {
  c.pos.assign(c.x.size(), -1.0);
  c.neg.assign(c.x.size(), -1.0);
  run_for(isa, [&c]() __attribute__((always_inline)) {
    detail::softmax_terms(c.x.data(), c.x.size(), c.excluded.data(),
                          c.excluded.size(), c.pos.data(), c.neg.data(),
                          c.max_abs, c.sum);
  });
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(detail::double_bits(a[i]), detail::double_bits(b[i]))
        << "entry " << i << ": " << a[i] << " vs " << b[i];
  }
}

void expect_bitwise_equal(double a, double b) {
  EXPECT_EQ(detail::double_bits(a), detail::double_bits(b))
      << a << " vs " << b;
}

// The first cloned ISA this CPU cannot run, or nullptr: a test compares
// the ISAs the CPU has, then skips naming the one it could not.
const char* missing_isa() {
  for (const Isa isa : {Isa::kAvx2, Isa::kAvx512f}) {
    if (!cpu_supports(isa)) return isa_name(isa);
  }
  return nullptr;
}
#endif

// The soft-max body must give the same bits compiled for AVX2 and for
// AVX-512F as for baseline x86-64, with contraction off as in the
// library's cloned file: it fails if a clone ever fuses a * b + c into
// one FMA rounding or sums in another order. Skipped only on a CPU
// without AVX2 or AVX-512F, after comparing the ISAs it has.
// 1500 covers the two-exp branch past the shared-scale limit.
TEST(SymmetricSoftmax, BitwiseEqualAcrossVectorIsas) {
#ifdef DMF_TEST_HAVE_ISA_WRAPPERS
  for (const double max_abs : {37.5, 355.0, 700.0, 1500.0}) {
    SCOPED_TRACE(max_abs);
    Rng rng(static_cast<std::uint64_t>(max_abs * 2.0) + 11);
    SoftmaxCase input;
    input.x.resize(10007);  // not a multiple of 4 or 8: a lane tail
    for (std::size_t i = 0; i < input.x.size(); ++i) {
      if (i % 97 == 5) {
        input.x[i] = 3.0 * max_abs;  // would change M if included
        input.excluded.push_back(i);
      } else {
        input.x[i] = rng.next_double(-max_abs, max_abs);
      }
    }
    input.x[1] = -max_abs;
    SoftmaxCase plain = input;
    run_softmax_terms(Isa::kDefault, plain);
    EXPECT_EQ(plain.max_abs, max_abs);
    for (const Isa isa : {Isa::kAvx2, Isa::kAvx512f}) {
      if (!cpu_supports(isa)) continue;
      SCOPED_TRACE(isa_name(isa));
      SoftmaxCase wide = input;
      run_softmax_terms(isa, wide);
      expect_bitwise_equal(plain.max_abs, wide.max_abs);
      expect_bitwise_equal(plain.sum, wide.sum);
      expect_bitwise_equal(plain.pos, wide.pos);
      expect_bitwise_equal(plain.neg, wide.neg);
    }

    // The library entry point, whichever clone this CPU dispatches to.
    SoftmaxTerms terms;
    symmetric_softmax(input.x, input.excluded, terms);
    expect_bitwise_equal(plain.sum, terms.sum);
    expect_bitwise_equal(plain.pos, terms.pos);
    expect_bitwise_equal(plain.neg, terms.neg);
  }
  if (const char* isa = missing_isa()) {
    GTEST_SKIP() << "no " << isa << " on this CPU: its clone was not compared";
  }
#else
  GTEST_SKIP() << "target(\"avx2\") needs GCC or Clang on x86-64";
#endif
}

TEST(ShermanRoute, RoutesDemandExactly) {
  Rng rng(617);
  const Graph g = make_gnp_connected(25, 0.2, {1, 9}, rng);
  const ShermanSolver solver(g, ShermanOptions{}, rng);
  std::vector<double> b(25, 0.0);
  b[1] = 2.0;
  b[13] = 1.0;
  b[24] = -3.0;
  const RouteResult result = solver.route(b);
  const std::vector<double> div = flow_divergence(g, result.flow);
  for (NodeId v = 0; v < 25; ++v) {
    EXPECT_NEAR(div[static_cast<std::size_t>(v)],
                b[static_cast<std::size_t>(v)], 1e-6);
  }
}

TEST(ShermanRoute, CongestionWithinFactorOfOptimal) {
  // For s-t demands the optimal congestion is known exactly via Dinic.
  Rng rng(619);
  const Graph g = make_gnp_connected(30, 0.15, {1, 6}, rng);
  const ShermanSolver solver(g, ShermanOptions{}, rng);
  const NodeId s = 0;
  const NodeId t = 29;
  const double maxflow = dinic_max_flow_value(g, s, t);
  const RouteResult result = solver.route(st_demand(30, s, t, 1.0));
  const double opt = 1.0 / maxflow;
  EXPECT_GE(result.congestion, opt * (1.0 - 1e-9));
  EXPECT_LE(result.congestion, opt * 3.0);  // near-optimal; E2 quantifies
}

TEST(ShermanMaxFlow, FeasibleConservedAndNearOptimal) {
  Rng rng(631);
  for (int trial = 0; trial < 3; ++trial) {
    const Graph g = make_gnp_connected(24, 0.2, {1, 8}, rng);
    const NodeId s = 0;
    const NodeId t = 23;
    const double exact = dinic_max_flow_value(g, s, t);
    const MaxFlowApproxResult approx = approx_max_flow(g, s, t, 0.25, rng);
    EXPECT_TRUE(is_feasible(g, approx.flow, 1e-6)) << "trial " << trial;
    EXPECT_NEAR(max_conservation_violation(g, approx.flow, s, t), 0.0, 1e-6);
    EXPECT_NEAR(flow_value(g, approx.flow, s), approx.value, 1e-6);
    EXPECT_GE(approx.value, 0.6 * exact) << "trial " << trial;
    EXPECT_LE(approx.value, exact * (1.0 + 1e-6)) << "trial " << trial;
  }
}

TEST(ShermanMaxFlow, PathGraphIsExact) {
  Rng rng(641);
  Graph g(4);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 7.0);
  const MaxFlowApproxResult result = approx_max_flow(g, 0, 3, 0.2, rng);
  // On a path there is only one routing; the value is limited by the
  // bottleneck and the algorithm should find (nearly) all of it.
  EXPECT_GE(result.value, 0.8 * 2.0);
  EXPECT_LE(result.value, 2.0 + 1e-9);
}

TEST(ShermanMaxFlow, BarbellBridge) {
  Rng rng(643);
  const Graph g = make_barbell(5, {6, 6}, 2.0, rng);
  const double exact = dinic_max_flow_value(g, 0, 9);
  EXPECT_DOUBLE_EQ(exact, 2.0);
  const MaxFlowApproxResult result = approx_max_flow(g, 0, 9, 0.25, rng);
  EXPECT_GE(result.value, 0.6 * exact);
  EXPECT_TRUE(is_feasible(g, result.flow, 1e-6));
}

TEST(ShermanMaxFlow, LayeredBottleneck) {
  Rng rng(647);
  NodeId s = 0;
  NodeId t = 0;
  const Graph g = make_layered_bottleneck(4, 3, 50.0, 6.0, rng, &s, &t);
  const double exact = dinic_max_flow_value(g, s, t);
  const MaxFlowApproxResult result = approx_max_flow(g, s, t, 0.25, rng);
  EXPECT_GE(result.value, 0.6 * exact);
  EXPECT_TRUE(is_feasible(g, result.flow, 1e-6));
}

TEST(ShermanMaxFlow, RoundsAccountedAndSubquadratic) {
  Rng rng(653);
  const Graph g = make_gnp_connected(40, 0.12, {1, 5}, rng);
  const MaxFlowApproxResult result = approx_max_flow(g, 0, 39, 0.3, rng);
  EXPECT_GT(result.rounds, 0.0);
  EXPECT_GT(result.gradient_iterations, 0);
}

TEST(ShermanSolver, ReusableAcrossQueries) {
  Rng rng(659);
  const Graph g = make_grid(5, 5, {1, 6}, rng);
  const ShermanSolver solver(g, ShermanOptions{}, rng);
  const MaxFlowApproxResult a = solver.max_flow(0, 24);
  const MaxFlowApproxResult b = solver.max_flow(4, 20);
  EXPECT_GT(a.value, 0.0);
  EXPECT_GT(b.value, 0.0);
  EXPECT_TRUE(is_feasible(g, a.flow, 1e-6));
  EXPECT_TRUE(is_feasible(g, b.flow, 1e-6));
}

TEST(ShermanSolver, RejectsBadInput) {
  Rng rng(661);
  const Graph g = make_path(5, {1, 1}, rng);
  const ShermanSolver solver(g, ShermanOptions{}, rng);
  EXPECT_THROW(solver.max_flow(0, 0), RequirementError);
  EXPECT_THROW(solver.route({1.0, 0.0, 0.0, 0.0, 0.5}), RequirementError);
  Graph disconnected(3);
  disconnected.add_edge(0, 1, 1.0);
  EXPECT_THROW(ShermanSolver(disconnected, ShermanOptions{}, rng),
               RequirementError);
}

// The headline guarantee, swept over families and epsilons (the precise
// curve is E2's job; here we bound from below with slack for the small-n
// constants).
struct ApproxCase {
  int family;
  double epsilon;
};

class ShermanFamilies : public ::testing::TestWithParam<int> {};

TEST_P(ShermanFamilies, ValueWithinBand) {
  const int param = GetParam();
  Rng rng(static_cast<std::uint64_t>(param) * 2749 + 23);
  Graph g;
  switch (param % 3) {
    case 0: g = make_gnp_connected(20, 0.25, {1, 7}, rng); break;
    case 1: g = make_grid(5, 4, {1, 7}, rng); break;
    default: g = make_tree_plus_chords(20, 10, {1, 7}, rng); break;
  }
  const NodeId s = 0;
  const NodeId t = g.num_nodes() - 1;
  const double exact = dinic_max_flow_value(g, s, t);
  const MaxFlowApproxResult result = approx_max_flow(g, s, t, 0.25, rng);
  EXPECT_TRUE(is_feasible(g, result.flow, 1e-6));
  EXPECT_GE(result.value, 0.55 * exact) << "family " << param % 3;
  EXPECT_LE(result.value, exact * (1.0 + 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Families, ShermanFamilies, ::testing::Range(0, 9));

}  // namespace
}  // namespace dmf
