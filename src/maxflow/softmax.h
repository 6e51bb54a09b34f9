// The symmetric soft-max smax(x) = log sum_i (e^{x_i} + e^{-x_i}) behind
// AlmostRoute's potential (§9.1). One helper evaluates both of its terms:
// smax(C^-1 f) over the edges and smax(2 alpha R r) over the tree links.
//
// Max-shifted for stability: with M = max_i |x_i|,
//
//   smax(x) = M + log(sum),  sum = sum_i (pos_i + neg_i),
//   pos_i = e^{x_i - M},     neg_i = e^{-x_i - M}.
//
// The terms are kept, so the gradient weights e^{+-x_i - smax(x)} =
// {pos_i, neg_i} / sum cost no further exp.
//
// One exp per term: while M <= kSoftmaxSharedScaleLimit, c = e^{-M} is a
// normal double and |x_i| <= M keeps e^{x_i} finite and normal, so
// pos_i = c * e^{x_i} and neg_i = c / e^{x_i} lose at most a few ulp.
// Above the limit c would approach the subnormal range (e^{-708.4} is
// DBL_MIN) and lose relative precision, so the terms take e^{+-x_i - M}
// directly, two exp calls each. The limit is a domain guard, not a knob.
#pragma once

#include <cstddef>
#include <vector>

namespace dmf {

inline constexpr double kSoftmaxSharedScaleLimit = 700.0;

struct SoftmaxTerms {
  std::vector<double> pos;  // e^{x_i - M}; 0 at excluded entries
  std::vector<double> neg;  // e^{-x_i - M}; 0 at excluded entries
  double max_abs = 0.0;     // M: max |x_i| over included entries, >= 0
  double sum = 0.0;         // sum of pos_i + neg_i, in index order

  // smax(x) = M + log(sum).
  [[nodiscard]] double value() const;
};

// Evaluates smax over x, leaving out the entries whose indices are listed
// in `excluded` (strictly ascending). AlmostRoute excludes each tree's
// root, which has no parent link. `terms` is resized to x.size(), so a
// caller that keeps it across calls allocates once.
void symmetric_softmax(const std::vector<double>& x,
                       const std::vector<std::size_t>& excluded,
                       SoftmaxTerms& terms);

}  // namespace dmf
