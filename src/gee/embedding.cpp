#include "gee/embedding.hpp"

#include <cmath>
#include <limits>

#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "simd/simd.hpp"

namespace gee::core {

Embedding::Embedding(VertexId n, int k)
    : n_(n),
      k_(k),
      data_(gee::util::UninitBuffer<Real>::zeroed(static_cast<std::size_t>(n) *
                                                  static_cast<std::size_t>(k))) {}

void Embedding::clear() {
  gee::par::fill_zero(data_.data(), data_.size());
}

void normalize_rows(Embedding& z) {
  // simd::sum_squares is a reassociating reduction (ulp class) but every
  // backend normalizes through this one function, so cross-backend
  // equality classes are unaffected; simd::scale is elementwise-exact.
  const auto k = static_cast<std::size_t>(z.dim());
  gee::par::parallel_for(VertexId{0}, z.num_vertices(), [&](VertexId v) {
    Real* row = z.row(v).data();
    const Real sq = simd::sum_squares(row, k);
    if (sq == 0) return;
    simd::scale(row, k, Real{1} / std::sqrt(sq));
  }, /*grain=*/256);
}

Real max_abs_diff(const Embedding& a, const Embedding& b) {
  if (a.num_vertices() != b.num_vertices() || a.dim() != b.dim()) {
    return std::numeric_limits<Real>::infinity();
  }
  return gee::par::reduce_max<Real>(a.size(), Real{0}, [&](std::size_t i) {
    return std::abs(a.data()[i] - b.data()[i]);
  });
}

int argmax_class(std::span<const Real> row) {
  // Exact-select class: comparisons don't round, so the SIMD path returns
  // the identical winner (first occurrence of the maximum).
  return simd::argmax_positive(row.data(), row.size());
}

int argmax_row(const Embedding& z, VertexId v) {
  return argmax_class(z.row(v));
}

}  // namespace gee::core
