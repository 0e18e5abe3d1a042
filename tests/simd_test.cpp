// Unit tests for the SIMD row-primitive layer (src/simd/): the equality
// classes documented in simd.hpp (elementwise ops bitwise-equal to the
// scalar reference, reductions deterministic and ulp-close, selects
// exact), and the aligned K-padded row buffer.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "simd/row_buffer.hpp"
#include "simd/simd.hpp"
#include "util/rng.hpp"

namespace gee::simd {
namespace {

/// Deterministic row of mixed-sign, mixed-magnitude doubles.
std::vector<double> random_row(std::size_t k, std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<double> row(k);
  for (auto& x : row) {
    const double u =
        static_cast<double>(rng.next() >> 11) * 0x1.0p-53;  // [0, 1)
    x = (u - 0.5) * 16.0;
  }
  return row;
}

/// The widths that exercise every tail case: sub-vector, exact multiples,
/// multiples plus each possible tail, and a GEE-realistic K.
constexpr std::size_t kWidths[] = {1, 2, 3, 4, 5, 7, 8, 12, 15, 16, 50, 67};

/// Run `fn` with the runtime SIMD switch forced on, restoring it after.
template <class Fn>
void with_simd_enabled(Fn&& fn) {
  const bool prev = enabled();
  set_enabled(true);
  fn();
  set_enabled(prev);
}

TEST(Simd, PaddedSizeIsNextLaneMultiple) {
  EXPECT_EQ(padded_size(0), 0u);
  for (std::size_t k = 1; k <= 4 * kDoubleLanes; ++k) {
    const std::size_t p = padded_size(k);
    EXPECT_GE(p, k);
    EXPECT_LT(p, k + kDoubleLanes);
    EXPECT_EQ(p % kDoubleLanes, 0u);
  }
}

TEST(Simd, ElementwiseOpsBitwiseEqualScalar) {
  with_simd_enabled([] {
    for (const std::size_t k : kWidths) {
      const auto x = random_row(k, 7 * k + 1);
      auto a = random_row(k, 13 * k + 2);
      auto b = a;  // dispatching copy vs scalar copy

      zero(a.data(), k);
      scalar::zero(b.data(), k);
      EXPECT_EQ(std::memcmp(a.data(), b.data(), k * sizeof(double)), 0);

      a = random_row(k, 13 * k + 2);
      b = a;
      scale(a.data(), k, 1.7);
      scalar::scale(b.data(), k, 1.7);
      EXPECT_EQ(std::memcmp(a.data(), b.data(), k * sizeof(double)), 0)
          << "scale, k=" << k;

      a = random_row(k, 13 * k + 2);
      b = a;
      axpy(a.data(), x.data(), k, -0.3);
      scalar::axpy(b.data(), x.data(), k, -0.3);
      EXPECT_EQ(std::memcmp(a.data(), b.data(), k * sizeof(double)), 0)
          << "axpy, k=" << k;

      a = random_row(k, 13 * k + 2);
      b = a;
      add(a.data(), x.data(), k);
      scalar::add(b.data(), x.data(), k);
      EXPECT_EQ(std::memcmp(a.data(), b.data(), k * sizeof(double)), 0)
          << "add, k=" << k;
    }
  });
}

TEST(Simd, ReductionsMatchScalarWithinUlps) {
  with_simd_enabled([] {
    for (const std::size_t k : kWidths) {
      const auto a = random_row(k, 3 * k + 5);
      const auto b = random_row(k, 11 * k + 6);
      // Reassociation error ~ k ulps of the running magnitude.
      const double tol = 1e-12 * static_cast<double>(k);
      EXPECT_NEAR(dot(a.data(), b.data(), k),
                  scalar::dot(a.data(), b.data(), k), tol)
          << "k=" << k;
      EXPECT_NEAR(sum_squares(a.data(), k), scalar::sum_squares(a.data(), k),
                  tol)
          << "k=" << k;
      EXPECT_NEAR(squared_distance(a.data(), b.data(), k),
                  scalar::squared_distance(a.data(), b.data(), k), tol)
          << "k=" << k;
      // Deterministic: same input, same result, every call.
      EXPECT_EQ(dot(a.data(), b.data(), k), dot(a.data(), b.data(), k));
    }
  });
}

TEST(Simd, MaxAndArgmaxExactlyMatchScalar) {
  with_simd_enabled([] {
    for (const std::size_t k : kWidths) {
      for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const auto a = random_row(k, seed * 97 + k);
        EXPECT_EQ(max(a.data(), k), scalar::max(a.data(), k))
            << "k=" << k << " seed=" << seed;
        EXPECT_EQ(argmax_positive(a.data(), k),
                  scalar::argmax_positive(a.data(), k))
            << "k=" << k << " seed=" << seed;
      }
    }
  });
}

TEST(Simd, ArgmaxTiesBreakTowardSmallerIndexAndNegativesAbstain) {
  with_simd_enabled([] {
    // Exact duplicate of the maximum later in the row: first wins.
    const std::vector<double> ties = {0.5, 2.0, 1.0, 2.0, 2.0, 0.1, 2.0, 0.0};
    EXPECT_EQ(argmax_positive(ties.data(), ties.size()), 1);
    // Nothing strictly positive: abstain (-1), even for all-zero rows.
    const std::vector<double> negs = {-1.0, -0.5, -2.0, -0.25, -3.0};
    EXPECT_EQ(argmax_positive(negs.data(), negs.size()), -1);
    const std::vector<double> zeros(11, 0.0);
    EXPECT_EQ(argmax_positive(zeros.data(), zeros.size()), -1);
    // Positive only in the scalar tail of a >1-vector row.
    std::vector<double> tail(9, -1.0);
    tail[8] = 0.125;
    EXPECT_EQ(argmax_positive(tail.data(), tail.size()), 8);
  });
}

TEST(Simd, RuntimeSwitchSelectsScalarPath) {
  const bool prev = enabled();
  set_enabled(false);
  EXPECT_FALSE(enabled());
  EXPECT_FALSE(active());
  // Dispatch must agree with the scalar namespace bit-for-bit when off.
  const auto a = random_row(50, 42);
  EXPECT_EQ(sum_squares(a.data(), a.size()),
            scalar::sum_squares(a.data(), a.size()));
  set_enabled(prev);
}

TEST(PaddedRowBuffer, AlignmentStrideAndZeroPadding) {
  for (const std::size_t k : kWidths) {
    PaddedRowBuffer buf(5, k);
    EXPECT_EQ(buf.rows(), 5u);
    EXPECT_EQ(buf.k(), k);
    EXPECT_EQ(buf.stride(), padded_size(k));
    // 64-byte aligned base and vector-aligned rows (stride is a lane
    // multiple, so every row inherits the base alignment mod 32).
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
    for (std::size_t r = 0; r < buf.rows(); ++r) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.row(r)) %
                    (kDoubleLanes * sizeof(double)),
                0u);
      for (std::size_t i = 0; i < buf.stride(); ++i) {
        EXPECT_EQ(buf.row(r)[i], 0.0);
      }
    }
    // Padding lanes stay zero under stride-wide row primitives.
    for (std::size_t i = 0; i < k; ++i) buf.row(1)[i] = 1.0;
    scale(buf.row(1), buf.stride(), 3.0);
    add(buf.row(2), buf.row(1), buf.stride());
    for (std::size_t i = k; i < buf.stride(); ++i) {
      EXPECT_EQ(buf.row(1)[i], 0.0);
      EXPECT_EQ(buf.row(2)[i], 0.0);
    }
  }
}

}  // namespace
}  // namespace gee::simd
