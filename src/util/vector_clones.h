// One dispatch rule for the library's vector-ISA clones.
//
// A hot numeric loop lives in an always-inline kernel in a header
// (DMF_KERNEL_INLINE), and one out-of-line function per kernel carries
// DMF_VECTOR_CLONES: on x86-64 ELF, gcc and clang compile it once per
// ISA in the clone list and an ifunc resolver picks the widest one the
// CPU supports at load time. There is no option, environment variable or
// -march flag: the build stays portable and the choice is the CPU's.
//
// Every clone must give the same bits as the baseline one, so
// floating-point contraction is off wherever a cloned function's
// arithmetic is compiled. AVX-512F carries FMA instructions, and with
// contraction on (gcc's default is -ffp-contract=fast, clang's is "on")
// a * b + c would become one fused rounding in the avx512f clone and two
// in the others. With contraction off every clone performs the same IEEE
// operations in the same order; neither compiler reassociates a
// floating-point sum without -ffast-math, so wider vectors change speed,
// not results. The switch is a pragma rather than a build flag because
// other builds of src/ bring their own flags. It takes two places,
// because the compilers decide contraction at different times:
//  * gcc contracts in a middle-end pass, per function and after
//    inlining, under the flags of the function the code ends up in. A
//    cloned source file writes DMF_FP_CONTRACT_OFF after its includes.
//  * clang decides when it parses an expression, so a pragma reaches
//    only the code parsed after it; a kernel in a header is parsed
//    before the including file's pragma. Every DMF_KERNEL_INLINE body
//    therefore opens with DMF_KERNEL_FP_CONTRACT_OFF, a block-scope
//    `clang fp contract(off)` that covers that body wherever it is
//    inlined (gcc has no block-scope form and needs none).
// On an x86-64 target without FMA (baseline, AVX2) neither pragma
// changes any code.
//
// Each kernel's parity is tested: the unit tests instantiate it under
// target("avx512f"), target("avx2") and the default target, with
// DMF_FP_CONTRACT_OFF, and compare the outputs bit for bit.
//
// ThreadSanitizer builds get the single default version: the ifunc
// resolver runs before the TSan runtime is up, and a binary with a
// cloned function segfaults at start.
#pragma once

#if defined(__GNUC__)
#define DMF_KERNEL_INLINE inline __attribute__((always_inline))
#else
#define DMF_KERNEL_INLINE inline
#endif

#if defined(__SANITIZE_THREAD__)
#define DMF_VECTOR_CLONES_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DMF_VECTOR_CLONES_TSAN 1
#endif
#endif
#if defined(__x86_64__) && defined(__ELF__) && defined(__has_attribute) && \
    !defined(DMF_VECTOR_CLONES_TSAN)
#if __has_attribute(target_clones)
#define DMF_VECTOR_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef DMF_VECTOR_CLONES
#define DMF_VECTOR_CLONES
#endif

#if defined(__clang__)
#define DMF_FP_CONTRACT_OFF _Pragma("clang fp contract(off)")
#define DMF_KERNEL_FP_CONTRACT_OFF _Pragma("clang fp contract(off)")
#elif defined(__GNUC__)
#define DMF_FP_CONTRACT_OFF _Pragma("GCC optimize(\"fp-contract=off\")")
#define DMF_KERNEL_FP_CONTRACT_OFF
#else
#define DMF_FP_CONTRACT_OFF
#define DMF_KERNEL_FP_CONTRACT_OFF
#endif
