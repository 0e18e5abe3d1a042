// VertexSubset: the frontier abstraction of the Ligra programming model.
//
// A subset of [0, n) stored either sparsely (vector of member ids) or
// densely (byte flags). edgeMap converts between representations based on
// frontier size -- the core idea of Shun & Blelloch's direction-optimizing
// engine [14]. Algorithm 2 sets the frontier to all of V; GEE's edge pass
// narrows it to the labelled vertices when only sources contribute
// (kDestOnly, a sparse frontier) and keeps all of V otherwise (kBoth).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "parallel/parallel_for.hpp"

namespace gee::ligra {

using graph::VertexId;

class VertexSubset {
 public:
  /// Empty subset over universe [0, n).
  static VertexSubset empty(VertexId n);
  /// The full vertex set (GEE's kBoth frontier). Dense, all flags set.
  static VertexSubset all(VertexId n);
  /// Singleton {v} (e.g. a BFS root). Sparse.
  static VertexSubset single(VertexId n, VertexId v);
  /// Adopt a sparse member list; ids must be unique and < n (checked by
  /// assert in debug builds only -- hot path).
  static VertexSubset from_sparse(VertexId n, std::vector<VertexId> members);
  /// Adopt dense flags (size n, 0/1). Count recomputed if not supplied.
  static VertexSubset from_dense(std::vector<std::uint8_t> flags);

  /// Universe size n (not the member count).
  [[nodiscard]] VertexId universe() const noexcept { return n_; }
  /// Member count.
  [[nodiscard]] VertexId size() const noexcept { return count_; }
  [[nodiscard]] bool is_empty() const noexcept { return count_ == 0; }
  [[nodiscard]] bool is_dense() const noexcept { return dense_storage_; }

  /// Membership test; O(1) dense, O(log s) sparse (members kept sorted).
  [[nodiscard]] bool contains(VertexId v) const noexcept;

  /// Switch representation (parallel pack / scatter). No-ops if already
  /// in the requested form.
  void to_dense();
  void to_sparse();

  /// Sparse member ids, ascending. Valid only when !is_dense().
  [[nodiscard]] std::span<const VertexId> sparse_members() const noexcept {
    assert(!dense_storage_);
    return sparse_;
  }
  /// Dense flags (size n). Valid only when is_dense().
  [[nodiscard]] std::span<const std::uint8_t> dense_flags() const noexcept {
    assert(dense_storage_);
    return dense_;
  }

  /// Apply f(v) to every member, in parallel. Works for both storages.
  template <class Fn>
  void for_each(Fn&& f) const;

 private:
  VertexSubset(VertexId n, VertexId count, bool dense)
      : n_(n), count_(count), dense_storage_(dense) {}

  VertexId n_ = 0;
  VertexId count_ = 0;
  bool dense_storage_ = false;
  std::vector<VertexId> sparse_;      // ascending ids
  std::vector<std::uint8_t> dense_;   // n flags
};

template <class Fn>
void VertexSubset::for_each(Fn&& f) const {
  if (dense_storage_) {
    gee::par::parallel_for(VertexId{0}, n_, [&](VertexId v) {
      if (dense_[v] != 0) f(v);
    });
  } else {
    gee::par::parallel_for(std::size_t{0}, sparse_.size(),
                           [&](std::size_t i) { f(sparse_[i]); });
  }
}

}  // namespace gee::ligra
