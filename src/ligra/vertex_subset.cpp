#include "ligra/vertex_subset.hpp"

#include <algorithm>

#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"

namespace gee::ligra {

VertexSubset VertexSubset::empty(VertexId n) {
  return VertexSubset(n, 0, /*dense=*/false);
}

VertexSubset VertexSubset::all(VertexId n) {
  VertexSubset s(n, n, /*dense=*/true);
  s.dense_.assign(n, 1);
  return s;
}

VertexSubset VertexSubset::single(VertexId n, VertexId v) {
  assert(v < n);
  VertexSubset s(n, 1, /*dense=*/false);
  s.sparse_ = {v};
  return s;
}

VertexSubset VertexSubset::from_sparse(VertexId n,
                                       std::vector<VertexId> members) {
  VertexSubset s(n, static_cast<VertexId>(members.size()), /*dense=*/false);
  s.sparse_ = std::move(members);
  // A packed frontier arrives sorted: one linear check spares it the
  // O(n log n) sort.
  if (!std::is_sorted(s.sparse_.begin(), s.sparse_.end())) {
    std::sort(s.sparse_.begin(), s.sparse_.end());
  }
  assert(std::adjacent_find(s.sparse_.begin(), s.sparse_.end()) ==
         s.sparse_.end());
  assert(s.sparse_.empty() || s.sparse_.back() < n);
  return s;
}

VertexSubset VertexSubset::from_dense(std::vector<std::uint8_t> flags) {
  const auto n = static_cast<VertexId>(flags.size());
  const auto count = gee::par::reduce_sum<std::uint64_t>(
      flags.size(),
      [&](std::size_t i) { return static_cast<std::uint64_t>(flags[i] != 0); });
  VertexSubset s(n, static_cast<VertexId>(count), /*dense=*/true);
  s.dense_ = std::move(flags);
  return s;
}

bool VertexSubset::contains(VertexId v) const noexcept {
  assert(v < n_);
  if (dense_storage_) return dense_[v] != 0;
  return std::binary_search(sparse_.begin(), sparse_.end(), v);
}

void VertexSubset::to_dense() {
  if (dense_storage_) return;
  dense_.assign(n_, 0);
  gee::par::parallel_for(std::size_t{0}, sparse_.size(),
                         [&](std::size_t i) { dense_[sparse_[i]] = 1; });
  sparse_.clear();
  sparse_.shrink_to_fit();
  dense_storage_ = true;
}

void VertexSubset::to_sparse() {
  if (!dense_storage_) return;
  sparse_.resize(count_);
  const std::size_t packed = gee::par::pack_index(
      sparse_.data(), static_cast<std::size_t>(n_),
      [&](std::size_t v) { return dense_[v] != 0; });
  assert(packed == count_);
  (void)packed;
  dense_.clear();
  dense_.shrink_to_fit();
  dense_storage_ = false;
}

}  // namespace gee::ligra
