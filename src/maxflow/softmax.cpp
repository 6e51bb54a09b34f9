#include "maxflow/softmax.h"

#include <algorithm>
#include <cmath>

#include "util/require.h"

namespace dmf {

namespace {

// Calls fn(begin, end) for each maximal run of included indices.
template <typename Fn>
void for_each_included_run(std::size_t count,
                           const std::vector<std::size_t>& excluded, Fn fn) {
  std::size_t begin = 0;
  for (const std::size_t skip : excluded) {
    fn(begin, skip);
    begin = skip + 1;
  }
  fn(begin, count);
}

}  // namespace

double SoftmaxTerms::value() const { return max_abs + std::log(sum); }

void symmetric_softmax(const std::vector<double>& x,
                       const std::vector<std::size_t>& excluded,
                       SoftmaxTerms& terms) {
  const std::size_t count = x.size();
  for (std::size_t k = 0; k < excluded.size(); ++k) {
    const bool ascending = k == 0 || excluded[k - 1] < excluded[k];
    DMF_REQUIRE(excluded[k] < count && ascending,
                "symmetric_softmax: excluded indices must ascend within x");
  }
  terms.pos.resize(count);
  terms.neg.resize(count);
  double* pos = terms.pos.data();
  double* neg = terms.neg.data();
  for (const std::size_t skip : excluded) pos[skip] = neg[skip] = 0.0;

  double max_abs = 0.0;
  for_each_included_run(count, excluded, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      max_abs = std::max(max_abs, std::abs(x[i]));
    }
  });

  // Both branches accumulate pos_i + neg_i in index order.
  double sum = 0.0;
  if (max_abs <= kSoftmaxSharedScaleLimit) {
    const double c = std::exp(-max_abs);
    for_each_included_run(count, excluded, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        const double ex = std::exp(x[i]);
        const double p = c * ex;
        const double q = c / ex;
        pos[i] = p;
        neg[i] = q;
        sum += p + q;
      }
    });
  } else {
    for_each_included_run(count, excluded, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        const double p = std::exp(x[i] - max_abs);
        const double q = std::exp(-x[i] - max_abs);
        pos[i] = p;
        neg[i] = q;
        sum += p + q;
      }
    });
  }
  terms.max_abs = max_abs;
  terms.sum = sum;
}

}  // namespace dmf
