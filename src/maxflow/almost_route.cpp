#include "maxflow/almost_route.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/flow.h"
#include "maxflow/softmax.h"

namespace dmf {

AlmostRouteResult almost_route(const CsrGraph& g,
                               const CongestionApproximator& approximator,
                               const std::vector<double>& demand,
                               const AlmostRouteOptions& options) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const auto m = static_cast<std::size_t>(g.num_edges());
  const double* cap = g.capacities_data();
  const EdgeEndpoints* eps_arr = g.endpoints_data();
  DMF_REQUIRE(demand.size() == n, "almost_route: demand size mismatch");
  DMF_REQUIRE(options.epsilon > 0.0 && options.epsilon <= 1.0,
              "almost_route: epsilon in (0, 1] required");
  const double alpha = std::max(1.0, options.alpha);
  const double eps = options.epsilon;
  const double log_n =
      std::log(static_cast<double>(std::max<std::size_t>(2, n)));
  const double target_potential = 16.0 * log_n / eps;

  AlmostRouteResult result;
  result.flow.assign(m, 0.0);

  // --- Line 1: scale b so that 2 alpha ||Rb|| ~ target_potential. ---
  std::vector<double> b = demand;
  const double norm0 = approximator.congestion_norm(b);
  if (norm0 <= 0.0) {
    result.converged = true;
    return result;  // nothing to route
  }
  const double kb = target_potential / (2.0 * alpha * norm0);
  for (double& x : b) x *= kb;
  double kf = 1.0;

  const int diameter_rounds = 8;  // O(D) scalar aggregations per iteration
  const double rounds_per_iter =
      2.0 * approximator.rounds_per_application(diameter_rounds) +
      diameter_rounds;

  const auto num_trees = static_cast<std::size_t>(approximator.num_trees());
  std::vector<double> gradient(m, 0.0);
  std::vector<double> residual(n, 0.0);
  std::vector<double> previous_flow(m, 0.0);  // for momentum
  // Per-iteration buffers, allocated once: the flattened [t*n + v]
  // R-application and link prices, the divergence/potential vectors, and
  // the tree-pass workspace (see apply_into/potentials_into).
  std::vector<double> div;
  std::vector<double> y_flat;
  std::vector<double> price_flat;
  std::vector<double> pi;
  std::vector<double> tree_workspace;
  std::vector<double> edge_congestion(m);  // f_e / cap_e, once per iteration
  const std::vector<double>& inv_link_cap = approximator.inv_link_cap_flat();
  // Flat [t*n + v] index of each tree's root: the root has no parent
  // link, so the tree soft-max leaves it out.
  std::vector<std::size_t> root_index(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t) {
    const RootedTree& tree = approximator.tree(static_cast<int>(t));
    root_index[t] = t * n + static_cast<std::size_t>(tree.root);
  }
  // The soft-max terms of C^-1 f and 2 alpha R r, kept for the gradient.
  SoftmaxTerms edge_terms;
  SoftmaxTerms link_terms;
  int momentum_age = 0;
  double last_delta = std::numeric_limits<double>::infinity();

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++result.iterations;
    result.rounds += rounds_per_iter;

    // Residual demand r = b - div(f).
    flow_divergence_into(g, result.flow, div);
    for (std::size_t v = 0; v < n; ++v) residual[v] = b[v] - div[v];

    // phi_1 = smax(C^-1 f), phi_2 = smax(2 alpha R r).
    for (std::size_t e = 0; e < m; ++e) {
      edge_congestion[e] = result.flow[e] / cap[e];
    }
    symmetric_softmax(edge_congestion, {}, edge_terms);
    approximator.apply_into(residual, 2.0 * alpha, y_flat, tree_workspace);
    symmetric_softmax(y_flat, root_index, link_terms);
    result.potential = edge_terms.value() + link_terms.value();

    // --- Lines 4-5: rescale until phi >= 16 eps^-1 log n. ---
    if (result.potential < target_potential) {
      const double factor = 17.0 / 16.0;
      for (double& f : result.flow) f *= factor;
      for (double& x : b) x *= factor;
      kf *= factor;
      previous_flow = result.flow;  // momentum reset at scale changes
      momentum_age = 0;
      continue;  // re-evaluate phi at the new scale
    }

    // --- Gradient. ---
    // e^{+-x_i - phi} = {pos_i, neg_i} / sum, from the cached terms.
    // phi_1 part: (e^{y_e - phi1} - e^{-y_e - phi1}) / cap(e).
    const double inv_edge_sum = 1.0 / edge_terms.sum;
    for (std::size_t e = 0; e < m; ++e) {
      gradient[e] =
          (edge_terms.pos[e] - edge_terms.neg[e]) * inv_edge_sum / cap[e];
    }
    // phi_2 part via potentials: price of link (v -> parent) in tree t is
    // 2 alpha (e^{y-phi2} - e^{-y-phi2}) / cap_T(link); then
    // dphi2/df_e = pi_v - pi_u for e = (u, v). Roots have no link: their
    // inverse capacity is 0, and so is their price.
    const double price_scale = 2.0 * alpha / link_terms.sum;
    price_flat.resize(num_trees * n);
    for (std::size_t i = 0; i < num_trees * n; ++i) {
      price_flat[i] = price_scale * (link_terms.pos[i] - link_terms.neg[i]) *
                      inv_link_cap[i];
    }
    approximator.potentials_into(price_flat, pi, tree_workspace);
    for (std::size_t e = 0; e < m; ++e) {
      // r = b - Bf loses flow that leaves u and gains at v; the sign
      // works out to pi_u - pi_v for flow oriented u -> v:
      // pushing on e reduces residual demand at u and raises it at v.
      gradient[e] += pi[static_cast<std::size_t>(eps_arr[e].v)] -
                     pi[static_cast<std::size_t>(eps_arr[e].u)];
    }

    // --- Lines 6-11: step or terminate. ---
    double delta = 0.0;
    for (std::size_t e = 0; e < m; ++e) {
      delta += cap[e] * std::abs(gradient[e]);
    }
    result.final_delta = delta;
    if (delta < eps / 4.0) {
      result.converged = true;
      break;
    }
    // Heavy-ball step with adaptive restart: the sign-based step makes
    // raw heavy-ball unstable, so momentum is dropped whenever the
    // gradient norm grows (O'Donoghue-Candès-style restart) and beta is
    // capped at 0.75.
    const double step = delta / (1.0 + 4.0 * alpha * alpha);
    if (delta > last_delta) momentum_age = 0;
    const double beta =
        std::min(0.75, static_cast<double>(momentum_age) /
                           (static_cast<double>(momentum_age) + 3.0));
    ++momentum_age;
    for (std::size_t e = 0; e < m; ++e) {
      const double sign = gradient[e] > 0.0 ? 1.0 : -1.0;
      const double next = result.flow[e] - sign * cap[e] * step +
                          beta * (result.flow[e] - previous_flow[e]);
      previous_flow[e] = result.flow[e];
      result.flow[e] = next;
    }
    last_delta = delta;
  }

  // Undo the scaling: return a flow for the *original* b.
  const double unscale = 1.0 / (kb * kf);
  for (double& f : result.flow) f *= unscale;
  return result;
}

AlmostRouteResult almost_route(const Graph& g,
                               const CongestionApproximator& approximator,
                               const std::vector<double>& demand,
                               const AlmostRouteOptions& options) {
  const CsrGraph csr(g);  // non-owning transient view
  return almost_route(csr, approximator, demand, options);
}

}  // namespace dmf
