#include "graph/builder.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "parallel/sort.hpp"

namespace gee::graph {

namespace {

/// Sort each row's (target, weight) pairs by target id. Rows are independent,
/// so this parallelizes over vertices; dynamic schedule handles skew.
void sort_rows(std::span<const EdgeId> offsets, std::vector<VertexId>& targets,
               std::vector<Weight>& weights) {
  const auto n = static_cast<VertexId>(offsets.size() - 1);
  const bool weighted = !weights.empty();
  gee::par::parallel_for_dynamic(VertexId{0}, n, [&](VertexId u) {
    const EdgeId lo = offsets[u];
    const EdgeId hi = offsets[u + 1];
    if (hi - lo < 2) return;
    if (!weighted) {
      std::sort(targets.begin() + static_cast<std::ptrdiff_t>(lo),
                targets.begin() + static_cast<std::ptrdiff_t>(hi));
      return;
    }
    // Zip-sort via an index permutation; rows are short so the scratch
    // allocations stay in the per-thread cache.
    const auto len = static_cast<std::size_t>(hi - lo);
    std::vector<std::uint32_t> idx(len);
    std::iota(idx.begin(), idx.end(), 0u);
    // Tie-break equal targets on weight: multi-edges then have a canonical
    // order, so the layout is identical across thread counts.
    std::sort(idx.begin(), idx.end(), [&](std::uint32_t a, std::uint32_t b) {
      if (targets[lo + a] != targets[lo + b])
        return targets[lo + a] < targets[lo + b];
      return weights[lo + a] < weights[lo + b];
    });
    std::vector<VertexId> t(len);
    std::vector<Weight> w(len);
    for (std::size_t i = 0; i < len; ++i) {
      t[i] = targets[lo + idx[i]];
      w[i] = weights[lo + idx[i]];
    }
    std::copy(t.begin(), t.end(),
              targets.begin() + static_cast<std::ptrdiff_t>(lo));
    std::copy(w.begin(), w.end(),
              weights.begin() + static_cast<std::ptrdiff_t>(lo));
  });
}

/// Bucket the arcs `emit(lo, hi, sink)` produces for items [lo, hi) as
/// sink(row, target, weight) into a Csr over rows [0, n); rows keep emit
/// order unless sort_neighbors.
template <class Emit>
Csr bucket_rows(VertexId n, EdgeId m, bool weighted, bool sort_neighbors,
                Emit&& emit) {
  std::vector<VertexId> targets(m);
  std::vector<Weight> weights(weighted ? m : 0);
  std::vector<EdgeId> offsets = gee::par::stable_bucket(
      m, n, emit, [&](EdgeId slot, VertexId v, Weight w) {
        targets[slot] = v;
        if (weighted) weights[slot] = w;
      });
  if (sort_neighbors) sort_rows(offsets, targets, weights);
  return Csr(std::move(offsets), std::move(targets), std::move(weights));
}

}  // namespace

Csr build_csr(const EdgeList& edges, VertexId n, BuildOptions options) {
  const EdgeId m = edges.num_edges();
  const auto srcs = edges.srcs();
  const auto dsts = edges.dsts();
  const auto weights = edges.weights();

  // Validate up front: a bad vertex id would otherwise corrupt the scatter.
  const bool in_range = gee::par::reduce<bool>(
      m, true, [&](std::size_t e) { return srcs[e] < n && dsts[e] < n; },
      [](bool a, bool b) { return a && b; });
  if (!in_range) {
    throw std::out_of_range("build_csr: edge references vertex >= n");
  }

  return bucket_rows(
      n, m, edges.weighted(), options.sort_neighbors,
      [&](std::size_t lo, std::size_t hi, auto&& sink) {
        for (std::size_t e = lo; e < hi; ++e) {
          sink(srcs[e], dsts[e], weights.empty() ? Weight{1} : weights[e]);
        }
      });
}

Csr transpose(const Csr& csr) {
  // Walking arcs row by row hands each target row its sources ascending;
  // the row sort still orders parallel arcs by weight when `csr`'s rows
  // were built unsorted.
  return bucket_rows(
      csr.num_vertices(), csr.num_edges(), csr.weighted(),
      /*sort_neighbors=*/true,
      [&](std::size_t lo, std::size_t hi, auto&& sink) {
        for_arcs_in_range(csr, lo, hi, [&](VertexId u, VertexId v, Weight w) {
          sink(v, u, w);
        });
      });
}

}  // namespace gee::graph
