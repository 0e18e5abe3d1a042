// Embedding: the n x K output matrix Z of GEE.
//
// Row-major, cache-line aligned, and zeroed in parallel (first-touch -- at
// paper scale Z is gigabytes and a serial memset both costs seconds and
// pins every page to one NUMA node). A Z of 32 MiB or more is fresh zero
// pages from the kernel, pre-faulted rather than written
// (util::UninitBuffer::zeroed). Row v is the K-dimensional embedding of
// vertex v; with semi-supervised labels most mass lands in the columns of
// classes adjacent to v.
#pragma once

#include <cstddef>
#include <span>

#include "graph/types.hpp"
#include "gee/options.hpp"
#include "util/buffer.hpp"

namespace gee::core {

using graph::VertexId;

class Embedding {
 public:
  Embedding() = default;

  /// Allocate n x k zeros (UninitBuffer::zeroed: parallel first touch).
  Embedding(VertexId n, int k);

  [[nodiscard]] VertexId num_vertices() const noexcept { return n_; }
  [[nodiscard]] int dim() const noexcept { return k_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] std::span<Real> row(VertexId v) noexcept {
    return {data_.data() + static_cast<std::size_t>(v) * k_,
            static_cast<std::size_t>(k_)};
  }
  [[nodiscard]] std::span<const Real> row(VertexId v) const noexcept {
    return {data_.data() + static_cast<std::size_t>(v) * k_,
            static_cast<std::size_t>(k_)};
  }

  [[nodiscard]] Real& at(VertexId v, int c) noexcept {
    return data_[static_cast<std::size_t>(v) * k_ + static_cast<std::size_t>(c)];
  }
  [[nodiscard]] Real at(VertexId v, int c) const noexcept {
    return data_[static_cast<std::size_t>(v) * k_ + static_cast<std::size_t>(c)];
  }

  [[nodiscard]] Real* data() noexcept { return data_.data(); }
  [[nodiscard]] const Real* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  /// Re-zero all entries (parallel).
  void clear();

 private:
  VertexId n_ = 0;
  int k_ = 0;
  gee::util::UninitBuffer<Real> data_;
};

/// L2-normalize every nonzero row in place (the Correlation option).
void normalize_rows(Embedding& z);

/// normalize_rows on one K-length row.
void normalize_row(std::span<Real> row);

/// max_{v,c} |a - b|; infinity if shapes differ. Test/diagnostic helper.
Real max_abs_diff(const Embedding& a, const Embedding& b);

/// Index of the largest strictly-positive entry of a K-length row, or -1
/// when no entry is positive (abstention: no labeled neighbor donated
/// mass). Ties break toward the smaller class id. The single definition of
/// nearest-class prediction -- classify.hpp and the serving layer
/// (src/serve/) both route through it.
int argmax_class(std::span<const Real> row);

/// argmax_class of row v of `z`.
int argmax_row(const Embedding& z, VertexId v);

}  // namespace gee::core
