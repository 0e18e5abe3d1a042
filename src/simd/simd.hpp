// Portable SIMD layer for K-wide row arithmetic (DESIGN.md section 9).
//
// The dense consumers of the embedding -- argmax classification, row
// normalization, k-means distances, serving-side row synthesis -- all loop
// over K-length rows of Real. This header gives them one vocabulary of row
// primitives, each with two interchangeable implementations:
//
//  * vec::  -- GCC/Clang vector extensions (`vector_size`), fixed 32-byte
//    vectors (4 doubles). The compiler lowers them to whatever the target
//    ISA has (AVX2 natively, SSE2 pairs under the portable CI flags), so
//    one source level serves every build. Compiled in unless the CMake
//    option GEE_SIMD is OFF (which defines GEE_SIMD=0) or the compiler has
//    no vector extensions.
//  * scalar:: -- plain loops, always compiled, the semantic reference.
//
// The unqualified entry points dispatch on a process-global runtime switch
// (simd::enabled(), default on, GEE_SIMD_DISABLE=1 env or set_enabled()
// to flip) so the conformance harness and benches can compare both paths
// from one binary.
//
// Equality classes (asserted by tests/simd_test.cpp and the conformance
// harness):
//  * ELEMENTWISE (zero, scale, axpy, add): each output element is computed
//    by exactly the scalar expression -- bitwise equal to scalar:: always.
//  * REDUCTIONS (dot, sum_squares, squared_distance): lane-partial sums
//    reassociate the addition order; deterministic for a fixed k, equal to
//    scalar:: only within accumulated-rounding ulps.
//  * EXACT SELECTS (max, argmax_positive): comparisons and selects involve
//    no rounding -- identical results to scalar:: (NaN inputs excepted,
//    which no caller produces).
#pragma once

#include <cstddef>

#ifndef GEE_SIMD
#define GEE_SIMD 1
#endif
#if GEE_SIMD && (defined(__GNUC__) || defined(__clang__))
#define GEE_SIMD_VECTOR_EXT 1
#else
#define GEE_SIMD_VECTOR_EXT 0
#endif

namespace gee::simd {

/// Fixed vector geometry: 32 bytes = 4 doubles. Wider machines still
/// profit (two 32-byte ops pipeline); narrower ones split into pairs.
inline constexpr std::size_t kVectorBytes = 32;
inline constexpr std::size_t kDoubleLanes = kVectorBytes / sizeof(double);

/// Smallest lane multiple >= k: the stride of K-padded row views
/// (row_buffer.hpp) and the unroll boundary of the primitives below.
[[nodiscard]] constexpr std::size_t padded_size(std::size_t k) noexcept {
  return (k + kDoubleLanes - 1) / kDoubleLanes * kDoubleLanes;
}

/// Runtime dispatch switch. Initialized once from the environment
/// (GEE_SIMD_DISABLE=1 starts it off); set_enabled() flips it afterwards
/// (conformance tests, benches). Builds with GEE_SIMD=0 have no vector
/// path at all and ignore the switch.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// True when the vector implementations are compiled in AND currently
/// selected -- what a bench should print next to its numbers.
[[nodiscard]] inline bool active() noexcept {
#if GEE_SIMD_VECTOR_EXT
  return enabled();
#else
  return false;
#endif
}

// ----------------------------------------------------------------- scalar

namespace scalar {

inline void zero(double* row, std::size_t k) noexcept {
  for (std::size_t i = 0; i < k; ++i) row[i] = 0.0;
}

inline void scale(double* row, std::size_t k, double s) noexcept {
  for (std::size_t i = 0; i < k; ++i) row[i] *= s;
}

/// y[i] += a * x[i]
inline void axpy(double* y, const double* x, std::size_t k,
                 double a) noexcept {
  for (std::size_t i = 0; i < k; ++i) y[i] += a * x[i];
}

/// y[i] += x[i]
inline void add(double* y, const double* x, std::size_t k) noexcept {
  for (std::size_t i = 0; i < k; ++i) y[i] += x[i];
}

[[nodiscard]] inline double dot(const double* a, const double* b,
                                std::size_t k) noexcept {
  double sum = 0;
  for (std::size_t i = 0; i < k; ++i) sum += a[i] * b[i];
  return sum;
}

[[nodiscard]] inline double sum_squares(const double* a,
                                        std::size_t k) noexcept {
  double sum = 0;
  for (std::size_t i = 0; i < k; ++i) sum += a[i] * a[i];
  return sum;
}

[[nodiscard]] inline double squared_distance(const double* a, const double* b,
                                             std::size_t k) noexcept {
  double sum = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

/// Largest element (k >= 1).
[[nodiscard]] inline double max(const double* a, std::size_t k) noexcept {
  double m = a[0];
  for (std::size_t i = 1; i < k; ++i) {
    if (a[i] > m) m = a[i];
  }
  return m;
}

/// Index of the largest strictly-positive element, ties toward the
/// smaller index; -1 when nothing is positive. The semantics of
/// core::argmax_class.
[[nodiscard]] inline int argmax_positive(const double* a,
                                         std::size_t k) noexcept {
  int best = -1;
  double best_val = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (a[i] > best_val) {
      best_val = a[i];
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace scalar

// -------------------------------------------------------------------- vec

#if GEE_SIMD_VECTOR_EXT

namespace vec {

/// 4 doubles; `aligned(8)` lowers the type's alignment requirement so
/// loads/stores through Vd* are legal at any double boundary (rows of an
/// unpadded n x K matrix land wherever K puts them).
typedef double Vd __attribute__((vector_size(kVectorBytes), aligned(8)));

inline Vd load(const double* p) noexcept {
  return *reinterpret_cast<const Vd*>(p);
}
inline void store(double* p, Vd v) noexcept {
  *reinterpret_cast<Vd*>(p) = v;
}
inline Vd broadcast(double x) noexcept { return Vd{x, x, x, x}; }

inline void zero(double* row, std::size_t k) noexcept {
  const std::size_t kv = k & ~(kDoubleLanes - 1);
  const Vd z = broadcast(0.0);
  for (std::size_t i = 0; i < kv; i += kDoubleLanes) store(row + i, z);
  for (std::size_t i = kv; i < k; ++i) row[i] = 0.0;
}

inline void scale(double* row, std::size_t k, double s) noexcept {
  const std::size_t kv = k & ~(kDoubleLanes - 1);
  const Vd vs = broadcast(s);
  for (std::size_t i = 0; i < kv; i += kDoubleLanes) {
    store(row + i, load(row + i) * vs);
  }
  for (std::size_t i = kv; i < k; ++i) row[i] *= s;
}

inline void axpy(double* y, const double* x, std::size_t k,
                 double a) noexcept {
  const std::size_t kv = k & ~(kDoubleLanes - 1);
  const Vd va = broadcast(a);
  for (std::size_t i = 0; i < kv; i += kDoubleLanes) {
    store(y + i, load(y + i) + va * load(x + i));
  }
  for (std::size_t i = kv; i < k; ++i) y[i] += a * x[i];
}

inline void add(double* y, const double* x, std::size_t k) noexcept {
  const std::size_t kv = k & ~(kDoubleLanes - 1);
  for (std::size_t i = 0; i < kv; i += kDoubleLanes) {
    store(y + i, load(y + i) + load(x + i));
  }
  for (std::size_t i = kv; i < k; ++i) y[i] += x[i];
}

/// Lane-partial reduce: left-to-right lane sum, then the scalar tail --
/// deterministic for a fixed k (the REDUCTIONS equality class).
inline double reduce_lanes(Vd acc) noexcept {
  return ((acc[0] + acc[1]) + acc[2]) + acc[3];
}

[[nodiscard]] inline double dot(const double* a, const double* b,
                                std::size_t k) noexcept {
  const std::size_t kv = k & ~(kDoubleLanes - 1);
  Vd acc = broadcast(0.0);
  for (std::size_t i = 0; i < kv; i += kDoubleLanes) {
    acc += load(a + i) * load(b + i);
  }
  double sum = reduce_lanes(acc);
  for (std::size_t i = kv; i < k; ++i) sum += a[i] * b[i];
  return sum;
}

[[nodiscard]] inline double sum_squares(const double* a,
                                        std::size_t k) noexcept {
  return dot(a, a, k);
}

[[nodiscard]] inline double squared_distance(const double* a, const double* b,
                                             std::size_t k) noexcept {
  const std::size_t kv = k & ~(kDoubleLanes - 1);
  Vd acc = broadcast(0.0);
  for (std::size_t i = 0; i < kv; i += kDoubleLanes) {
    const Vd d = load(a + i) - load(b + i);
    acc += d * d;
  }
  double sum = reduce_lanes(acc);
  for (std::size_t i = kv; i < k; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

[[nodiscard]] inline double max(const double* a, std::size_t k) noexcept {
  const std::size_t kv = k & ~(kDoubleLanes - 1);
  double m;
  std::size_t tail_start;
  if (kv >= kDoubleLanes) {
    Vd acc = load(a);
    for (std::size_t i = kDoubleLanes; i < kv; i += kDoubleLanes) {
      const Vd v = load(a + i);
      acc = acc > v ? acc : v;  // lane select: no rounding, exact
    }
    double lane_max = acc[0];
    for (std::size_t l = 1; l < kDoubleLanes; ++l) {
      if (acc[l] > lane_max) lane_max = acc[l];
    }
    m = lane_max;
    tail_start = kv;
  } else {
    m = a[0];
    tail_start = 1;
  }
  for (std::size_t i = tail_start; i < k; ++i) {
    if (a[i] > m) m = a[i];
  }
  return m;
}

[[nodiscard]] inline int argmax_positive(const double* a,
                                         std::size_t k) noexcept {
  if (k == 0) return -1;
  const double m = max(a, k);
  if (!(m > 0)) return -1;
  // First occurrence of the exact maximum == the scalar scan's winner
  // (its best_val only ever increases strictly).
  for (std::size_t i = 0; i < k; ++i) {
    if (a[i] == m) return static_cast<int>(i);
  }
  return -1;  // unreachable for NaN-free input
}

}  // namespace vec

#endif  // GEE_SIMD_VECTOR_EXT

// ------------------------------------------------------ dispatching entry

#if GEE_SIMD_VECTOR_EXT
#define GEE_SIMD_DISPATCH(fn, ...) \
  (enabled() ? vec::fn(__VA_ARGS__) : scalar::fn(__VA_ARGS__))
#else
#define GEE_SIMD_DISPATCH(fn, ...) scalar::fn(__VA_ARGS__)
#endif

inline void zero(double* row, std::size_t k) noexcept {
  GEE_SIMD_DISPATCH(zero, row, k);
}
inline void scale(double* row, std::size_t k, double s) noexcept {
  GEE_SIMD_DISPATCH(scale, row, k, s);
}
inline void axpy(double* y, const double* x, std::size_t k,
                 double a) noexcept {
  GEE_SIMD_DISPATCH(axpy, y, x, k, a);
}
inline void add(double* y, const double* x, std::size_t k) noexcept {
  GEE_SIMD_DISPATCH(add, y, x, k);
}
[[nodiscard]] inline double dot(const double* a, const double* b,
                                std::size_t k) noexcept {
  return GEE_SIMD_DISPATCH(dot, a, b, k);
}
[[nodiscard]] inline double sum_squares(const double* a,
                                        std::size_t k) noexcept {
  return GEE_SIMD_DISPATCH(sum_squares, a, k);
}
[[nodiscard]] inline double squared_distance(const double* a, const double* b,
                                             std::size_t k) noexcept {
  return GEE_SIMD_DISPATCH(squared_distance, a, b, k);
}
[[nodiscard]] inline double max(const double* a, std::size_t k) noexcept {
  return GEE_SIMD_DISPATCH(max, a, k);
}
[[nodiscard]] inline int argmax_positive(const double* a,
                                         std::size_t k) noexcept {
  return GEE_SIMD_DISPATCH(argmax_positive, a, k);
}

#undef GEE_SIMD_DISPATCH

}  // namespace gee::simd
