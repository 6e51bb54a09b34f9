#include "maxflow/softmax.h"

#include <cmath>

#include "util/require.h"
#include "util/vector_clones.h"

DMF_FP_CONTRACT_OFF

namespace dmf {

double SoftmaxTerms::value() const { return max_abs + std::log(sum); }

DMF_VECTOR_CLONES void symmetric_softmax(
    const std::vector<double>& x, const std::vector<std::size_t>& excluded,
    SoftmaxTerms& terms) {
  const std::size_t count = x.size();
  for (std::size_t k = 0; k < excluded.size(); ++k) {
    const bool ascending = k == 0 || excluded[k - 1] < excluded[k];
    DMF_REQUIRE(excluded[k] < count && ascending,
                "symmetric_softmax: excluded indices must ascend within x");
  }
  terms.pos.resize(count);
  terms.neg.resize(count);
  detail::softmax_terms(x.data(), count, excluded.data(), excluded.size(),
                        terms.pos.data(), terms.neg.data(), terms.max_abs,
                        terms.sum);
}

}  // namespace dmf
