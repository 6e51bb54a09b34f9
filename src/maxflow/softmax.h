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
// directly, two std::exp calls each. The limit is a domain guard, not a
// knob.
//
// In the one-exp branch e^{x_i} comes from detail::exp_kernel, a
// branch-free exp that gcc vectorizes at plain -O3 (std::exp is an
// opaque libm call and does not). Its relative error on [-708, 708] is
// below 2 DBL_EPSILON; c = e^{-M}, once per call, stays std::exp.
//
// Every step is order-fixed, so the result is the same bits whatever the
// vector width:
//  * M is an integer max over the bit patterns of |x_i|, exact in any
//    order (for non-negative doubles the bit order is the value order);
//  * the sum runs over all entries (excluded ones add +0) in four fixed
//    lanes, lane j taking the entries i = j mod 4 of each full block of
//    four and the tail entries in order, combined as
//    (l0 + l1) + (l2 + l3).
//
// symmetric_softmax is cloned for avx512f, avx2 and baseline x86-64
// (DMF_VECTOR_CLONES; util/vector_clones.h owns the clone list and the
// contraction rule). The wider clones also vectorize the max loop
// (AVX-512F has an unsigned 64-bit max) and run the exp kernel 4 or 8
// lanes wide. Every clone performs the same IEEE operations in the same
// order, so their results are bitwise equal: contraction is off in the
// kernels below and in softmax.cpp, so a clone whose ISA has FMA cannot
// fuse a * b + c into one rounding where the others round twice; and
// the four-lane sum is written out, not left to the vectorizer.
// maxflow_test compares softmax_terms compiled for every cloned target
// bit for bit. c and the two-exp branch still call libm, whose exp may
// select a different implementation per CPU, so this does not make
// results equal across machines.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/vector_clones.h"

namespace dmf {

inline constexpr double kSoftmaxSharedScaleLimit = 700.0;

struct SoftmaxTerms {
  std::vector<double> pos;  // e^{x_i - M}; 0 at excluded entries
  std::vector<double> neg;  // e^{-x_i - M}; 0 at excluded entries
  double max_abs = 0.0;     // M: max |x_i| over included entries, >= 0
  double sum = 0.0;         // sum of pos_i + neg_i, in four fixed lanes

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

namespace detail {

inline std::uint64_t double_bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

inline double bits_double(std::uint64_t u) {
  double v = 0.0;
  std::memcpy(&v, &u, sizeof v);
  return v;
}

// 1 / k! for k = 0..13, each correctly rounded: k! < 2^53 is exact.
constexpr std::array<double, 14> inverse_factorials() {
  std::array<double, 14> table{};
  double factorial = 1.0;
  for (std::size_t k = 0; k < table.size(); ++k) {
    if (k > 1) factorial *= static_cast<double>(k);
    table[k] = 1.0 / factorial;
  }
  return table;
}

// e^x for |x| <= 708, within 2 DBL_EPSILON relative. Outside that range
// the result is garbage (no clamp: an FP compare would keep gcc from
// vectorizing the loop under the default -ftrapping-math).
//
// Cody-Waite reduction x = k ln2 + r, |r| <= ln2 / 2: adding 1.5 * 2^52
// rounds x / ln2 to the integer k and leaves k in the low mantissa bits;
// ln2_hi has 32 significant bits, so k * ln2_hi is exact. e^r is the
// degree-13 Taylor polynomial (truncation < 2^-57 on |r| <= ln2 / 2),
// split into even and odd halves in r^2 for two short dependency chains.
// 2^k is applied by adding k << 52 to the bits of e^r.
DMF_KERNEL_INLINE double exp_kernel(double x) {
  DMF_KERNEL_FP_CONTRACT_OFF
  constexpr double kShifter = 0x1.8p52;
  constexpr double kInvLn2 = 0x1.71547652b82fep0;
  constexpr double kLn2Hi = 0x1.62e42feep-1;
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  const double kd = x * kInvLn2 + kShifter;
  const std::uint64_t k_bits = double_bits(kd);
  const double k = kd - kShifter;
  const double r = (x - k * kLn2Hi) - k * kLn2Lo;
  const double r2 = r * r;
  // Horner in r^2 from the highest power: even = sum_j r^2j / (2j)!,
  // odd = sum_j r^2j / (2j + 1)!, times r below.
  constexpr std::array<double, 14> kInvFactorial = inverse_factorials();
  double even = kInvFactorial[12];
  double odd = kInvFactorial[13];
  for (std::size_t j = 6; j-- > 0;) {
    even = even * r2 + kInvFactorial[2 * j];
    odd = odd * r2 + kInvFactorial[2 * j + 1];
  }
  odd *= r;
  return bits_double(double_bits(even + odd) + (k_bits << 52));
}

// The body of symmetric_softmax on raw arrays, with `excluded` already
// validated: writes count entries of pos and neg, and M and the sum.
// Always inlined, so each caller compiles it for its own target ISA; the
// ISA-parity test compares default, avx2 and avx512f callers bit for bit.
DMF_KERNEL_INLINE void softmax_terms(const double* x, std::size_t count,
                                      const std::size_t* excluded,
                                      std::size_t num_excluded, double* pos,
                                      double* neg, double& max_abs,
                                      double& sum) {
  DMF_KERNEL_FP_CONTRACT_OFF
  constexpr std::uint64_t kAbsMask = ~(std::uint64_t{1} << 63);
  // Included runs are [begin, end) between consecutive exclusions.
  std::uint64_t max_bits = 0;
  std::size_t begin = 0;
  for (std::size_t k = 0; k <= num_excluded; ++k) {
    const std::size_t end = k < num_excluded ? excluded[k] : count;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint64_t bits = double_bits(x[i]) & kAbsMask;
      max_bits = bits > max_bits ? bits : max_bits;
    }
    if (k < num_excluded) pos[end] = neg[end] = 0.0;
    begin = end + 1;
  }
  const double m = bits_double(max_bits);

  begin = 0;
  if (m <= kSoftmaxSharedScaleLimit) {
    const double c = std::exp(-m);
    for (std::size_t k = 0; k <= num_excluded; ++k) {
      const std::size_t end = k < num_excluded ? excluded[k] : count;
      for (std::size_t i = begin; i < end; ++i) {
        const double ex = exp_kernel(x[i]);
        pos[i] = c * ex;
        neg[i] = c / ex;
      }
      begin = end + 1;
    }
  } else {
    for (std::size_t k = 0; k <= num_excluded; ++k) {
      const std::size_t end = k < num_excluded ? excluded[k] : count;
      for (std::size_t i = begin; i < end; ++i) {
        pos[i] = std::exp(x[i] - m);
        neg[i] = std::exp(-x[i] - m);
      }
      begin = end + 1;
    }
  }

  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t blocked = count - count % 4;
  for (std::size_t i = 0; i < blocked; i += 4) {
    for (std::size_t j = 0; j < 4; ++j) lane[j] += pos[i + j] + neg[i + j];
  }
  for (std::size_t i = blocked; i < count; ++i) {
    lane[i - blocked] += pos[i] + neg[i];
  }
  max_abs = m;
  sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

}  // namespace detail

}  // namespace dmf
