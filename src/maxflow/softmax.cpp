#include "maxflow/softmax.h"

#include <cmath>

#include "util/require.h"

// One clone per vector ISA, chosen at load time through an ifunc (x86-64
// ELF only). Only clones without FMA may be listed: see softmax.h.
// ThreadSanitizer builds get the single default version: the ifunc
// resolver runs before the TSan runtime is up, and a binary with a
// cloned function segfaults at start.
#if defined(__SANITIZE_THREAD__)
#define DMF_SOFTMAX_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DMF_SOFTMAX_TSAN 1
#endif
#endif
#if defined(__x86_64__) && defined(__ELF__) && defined(__has_attribute) && \
    !defined(DMF_SOFTMAX_TSAN)
#if __has_attribute(target_clones)
#define DMF_SOFTMAX_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef DMF_SOFTMAX_CLONES
#define DMF_SOFTMAX_CLONES
#endif

namespace dmf {

double SoftmaxTerms::value() const { return max_abs + std::log(sum); }

DMF_SOFTMAX_CLONES void symmetric_softmax(
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
