/**
 * @file
 * Portable SIMD lane types for the batched render kernels.
 *
 * Two interchangeable implementations behind one API:
 *  - GCC/clang vector extensions (`vector_size`) when the compiler
 *    supports them and CMake's COTERIE_SIMD option is ON. The compiler
 *    lowers the 4-lane ops to whatever the target ISA provides
 *    (2x128-bit on plain x86-64, 256-bit under the AVX2/AVX-512
 *    `COTERIE_SIMD_CLONES` clones) with identical per-lane arithmetic.
 *  - A scalar-lane struct fallback (COTERIE_SIMD=OFF or other
 *    compilers): the same operations as plain per-lane loops.
 *
 * Determinism contract: every operation here is lane-wise and maps to
 * exactly one IEEE double operation per lane, so a
 * kernel written against these types produces bit-identical results in
 * both implementations and under every dispatch clone. Kernels that
 * must match scalar reference code additionally avoid FP expressions
 * that a fused-multiply-add contraction could alter.
 */

#pragma once

#include <cstring>

#ifndef COTERIE_SIMD_ENABLED
#define COTERIE_SIMD_ENABLED 1
#endif

#if COTERIE_SIMD_ENABLED && (defined(__GNUC__) || defined(__clang__))
#define COTERIE_SIMD_VECTOR_EXT 1
#endif

// Runtime dispatch: emit AVX-512DQ (native 64-bit lane multiply:
// vpmullq) and AVX2 clones next to the baseline symbol and resolve at
// load time. The clone dispatch runs through an ifunc resolver that
// executes before sanitizer runtimes initialise, so instrumented
// builds stay on the plain symbol.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define COTERIE_SIMD_NO_CLONES 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define COTERIE_SIMD_NO_CLONES 1
#endif
#endif
// target_clones miscompiles under gcc at -O0 (wild pointers inside
// the cloned kernels crash the render path and skew the codec's
// quality floor; observed with gcc 12, Debug builds only — every
// optimized build is clean). Unoptimized builds don't need runtime
// dispatch anyway, so pin them to the baseline symbol.
#if !defined(__OPTIMIZE__)
#define COTERIE_SIMD_NO_CLONES 1
#endif

#if defined(COTERIE_SIMD_VECTOR_EXT) && defined(__x86_64__) &&           \
    defined(__gnu_linux__) && defined(__has_attribute) &&                \
    !defined(COTERIE_SIMD_NO_CLONES)
#if __has_attribute(target_clones)
#define COTERIE_SIMD_CLONES                                              \
    __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#endif
#endif
#ifndef COTERIE_SIMD_CLONES
#define COTERIE_SIMD_CLONES
#endif

// Forced inlining for the lane helpers and the kernels' own helpers
// that take or return lanes by value. Left out of line (GCC declines
// to inline them under -fsanitize=undefined), a helper is compiled for
// the baseline target, and a COTERIE_SIMD_CLONES clone calling it
// passes its 32-byte vectors under a different calling convention:
// the callee reads garbage lanes.
#if defined(__GNUC__) || defined(__clang__)
#define COTERIE_SIMD_INLINE inline __attribute__((always_inline))
#else
#define COTERIE_SIMD_INLINE inline
#endif

namespace coterie::support::simd {

inline constexpr int kLanes = 4;

#ifdef COTERIE_SIMD_VECTOR_EXT

// The wide helpers are internal and always inlined; the ABI of the
// vector return types is irrelevant.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

/** Raw 4-lane double vector. */
typedef double V4dRaw __attribute__((vector_size(32)));

/** Four double lanes. */
struct F64x4
{
    V4dRaw v;

    static COTERIE_SIMD_INLINE F64x4
    splat(double x)
    {
        return {V4dRaw{x, x, x, x}};
    }
    static COTERIE_SIMD_INLINE F64x4
    load(const double *p)
    {
        F64x4 r;
        __builtin_memcpy(&r.v, p, sizeof(r.v));
        return r;
    }
    COTERIE_SIMD_INLINE void
    store(double *p) const
    {
        __builtin_memcpy(p, &v, sizeof(v));
    }
    COTERIE_SIMD_INLINE double operator[](int i) const { return v[i]; }

    friend COTERIE_SIMD_INLINE F64x4
    operator+(F64x4 a, F64x4 b)
    {
        return {a.v + b.v};
    }
    friend COTERIE_SIMD_INLINE F64x4
    operator-(F64x4 a, F64x4 b)
    {
        return {a.v - b.v};
    }
    friend COTERIE_SIMD_INLINE F64x4
    operator*(F64x4 a, F64x4 b)
    {
        return {a.v * b.v};
    }
};

/** Per-lane minimum with std::min semantics (b < a ? b : a). */
COTERIE_SIMD_INLINE F64x4
vmin(F64x4 a, F64x4 b)
{
    return {b.v < a.v ? b.v : a.v};
}

/** Per-lane maximum with std::max semantics (a < b ? b : a). */
COTERIE_SIMD_INLINE F64x4
vmax(F64x4 a, F64x4 b)
{
    return {a.v < b.v ? b.v : a.v};
}

/** Per-lane a <= b mask as lane bits (bit i set when lane i passes). */
COTERIE_SIMD_INLINE int
lanesLessEqual(F64x4 a, F64x4 b)
{
    const auto m = a.v <= b.v; // lanes are all-ones / all-zero int64
    int mask = 0;
    for (int i = 0; i < kLanes; ++i)
        mask |= (m[i] != 0) << i;
    return mask;
}

#pragma GCC diagnostic pop

#else // !COTERIE_SIMD_VECTOR_EXT — scalar-lane fallback

struct F64x4
{
    double v[kLanes];

    static F64x4
    splat(double x)
    {
        return {{x, x, x, x}};
    }
    static F64x4
    load(const double *p)
    {
        F64x4 r;
        std::memcpy(r.v, p, sizeof(r.v));
        return r;
    }
    void store(double *p) const { std::memcpy(p, v, sizeof(v)); }
    double operator[](int i) const { return v[i]; }

    friend F64x4
    operator+(F64x4 a, F64x4 b)
    {
        F64x4 r;
        for (int i = 0; i < kLanes; ++i)
            r.v[i] = a.v[i] + b.v[i];
        return r;
    }
    friend F64x4
    operator-(F64x4 a, F64x4 b)
    {
        F64x4 r;
        for (int i = 0; i < kLanes; ++i)
            r.v[i] = a.v[i] - b.v[i];
        return r;
    }
    friend F64x4
    operator*(F64x4 a, F64x4 b)
    {
        F64x4 r;
        for (int i = 0; i < kLanes; ++i)
            r.v[i] = a.v[i] * b.v[i];
        return r;
    }
};

inline F64x4
vmin(F64x4 a, F64x4 b)
{
    F64x4 r;
    for (int i = 0; i < kLanes; ++i)
        r.v[i] = b.v[i] < a.v[i] ? b.v[i] : a.v[i];
    return r;
}

inline F64x4
vmax(F64x4 a, F64x4 b)
{
    F64x4 r;
    for (int i = 0; i < kLanes; ++i)
        r.v[i] = a.v[i] < b.v[i] ? b.v[i] : a.v[i];
    return r;
}

inline int
lanesLessEqual(F64x4 a, F64x4 b)
{
    int mask = 0;
    for (int i = 0; i < kLanes; ++i)
        mask |= (a.v[i] <= b.v[i]) << i;
    return mask;
}

#endif // COTERIE_SIMD_VECTOR_EXT

} // namespace coterie::support::simd
