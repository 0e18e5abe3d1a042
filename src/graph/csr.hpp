// Compressed sparse row adjacency and the Graph facade.
//
// Csr is the storage format every engine traversal reads: offsets[u] ..
// offsets[u+1] index the targets (and optional weights) of u's out-edges.
// Graph bundles the out-CSR with the in-CSR (transpose); for undirected
// graphs both point at the same symmetric Csr, matching Ligra's treatment
// of an undirected graph as two symmetric directed graphs (paper section II).
#pragma once

#include <algorithm>
#include <cassert>
#include <memory>
#include <span>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/types.hpp"
#include "util/aux_cache.hpp"

namespace gee::graph {

class Csr {
 public:
  Csr() = default;

  /// Adopt prebuilt arrays. offsets.size() == n+1, offsets.back() ==
  /// targets.size(), weights empty or same length as targets.
  Csr(std::vector<EdgeId> offsets, std::vector<VertexId> targets,
      std::vector<Weight> weights = {});

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }
  [[nodiscard]] EdgeId num_edges() const noexcept {
    return offsets_.empty() ? 0 : offsets_.back();
  }
  [[nodiscard]] bool weighted() const noexcept { return !weights_.empty(); }

  [[nodiscard]] EdgeId degree(VertexId u) const noexcept {
    assert(u < num_vertices());
    return offsets_[u + 1] - offsets_[u];
  }

  /// Out-neighbors of u in storage order.
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId u) const noexcept {
    assert(u < num_vertices());
    return {targets_.data() + offsets_[u],
            static_cast<std::size_t>(degree(u))};
  }

  /// Weights aligned with neighbors(u); empty span when unweighted.
  [[nodiscard]] std::span<const Weight> edge_weights(VertexId u) const noexcept {
    if (weights_.empty()) return {};
    return {weights_.data() + offsets_[u],
            static_cast<std::size_t>(degree(u))};
  }

  /// Weight of the i-th edge in global storage order (1 when unweighted).
  [[nodiscard]] Weight weight_at(EdgeId e) const noexcept {
    return weights_.empty() ? Weight{1} : weights_[e];
  }

  [[nodiscard]] std::span<const EdgeId> offsets() const noexcept {
    return offsets_;
  }
  [[nodiscard]] std::span<const VertexId> targets() const noexcept {
    return targets_;
  }
  [[nodiscard]] std::span<const Weight> weights() const noexcept {
    return weights_;
  }

 private:
  std::vector<EdgeId> offsets_;    // n+1 entries; offsets_[0] == 0
  std::vector<VertexId> targets_;  // m entries
  std::vector<Weight> weights_;    // m entries or empty (unit weights)
};

/// Visit arcs [lo, hi) of `arcs` in storage order as fn(u, v, w). Storage
/// order is row-major, so a range of the arc index space is a contiguous
/// run of (partial) adjacency rows.
template <class Fn>
void for_arcs_in_range(const Csr& arcs, EdgeId lo, EdgeId hi, Fn&& fn) {
  if (lo >= hi) return;
  const auto offsets = arcs.offsets();
  const auto targets = arcs.targets();
  const auto weights = arcs.weights();
  auto u = static_cast<VertexId>(
      std::upper_bound(offsets.begin(), offsets.end(), lo) -
      offsets.begin() - 1);
  for (EdgeId e = lo; e < hi; ++e) {
    while (offsets[u + 1] <= e) ++u;
    fn(u, targets[e], weights.empty() ? Weight{1} : weights[e]);
  }
}

/// How Graph::build interprets the input edge list.
enum class GraphKind {
  /// Keep edges as given; build the transpose for in-edge traversals.
  kDirected,
  /// Mirror every edge (u,v) -> (v,u) before building; in == out.
  kUndirected,
  /// Input is already symmetric (e.g. generator emitted both arcs); in == out
  /// without re-symmetrizing.
  kSymmetrized,
};

struct BuildOptions {
  /// Sort each adjacency row by (target, weight); off, rows keep input
  /// order. Sorted rows are required for is_symmetric and binary-search
  /// membership tests.
  bool sort_neighbors = true;
  /// Build the in-CSR (transpose) for directed graphs. The GEE pull backend
  /// and dense edgeMap need it; pure push algorithms can skip the memory.
  bool build_in_csr = true;
};

class Graph {
 public:
  Graph() = default;

  /// Build from an edge list. `n` == 0 means "use edges.num_vertices()".
  static Graph build(const EdgeList& edges, GraphKind kind,
                     BuildOptions options = {}, VertexId n = 0);

  /// Wrap an existing symmetric CSR (in == out).
  static Graph from_symmetric_csr(Csr csr);

  /// Wrap directed out/in CSR pair (in may be empty -> in() unavailable).
  static Graph from_directed_csr(Csr out, Csr in);

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return out_ ? out_->num_vertices() : 0;
  }
  /// Number of stored directed arcs (an undirected edge counts twice).
  [[nodiscard]] EdgeId num_arcs() const noexcept {
    return out_ ? out_->num_edges() : 0;
  }
  [[nodiscard]] bool directed() const noexcept { return directed_; }
  [[nodiscard]] bool weighted() const noexcept {
    return out_ && out_->weighted();
  }

  [[nodiscard]] const Csr& out() const noexcept {
    assert(out_);
    return *out_;
  }
  [[nodiscard]] bool has_in() const noexcept { return in_ != nullptr; }
  [[nodiscard]] const Csr& in() const noexcept {
    assert(in_);
    return *in_;
  }

  /// Cache for structures derived from this graph's adjacency, e.g. the
  /// edge partition plan. Shared by copies, so repeated embed() calls on
  /// the same graph amortize derived-structure construction. A built Graph
  /// never changes, so a cached artifact cannot outlive its adjacency.
  [[nodiscard]] util::AuxCache& aux() const noexcept { return *aux_; }

 private:
  std::shared_ptr<const Csr> out_;
  std::shared_ptr<const Csr> in_;  // == out_ for undirected graphs
  std::shared_ptr<util::AuxCache> aux_ = std::make_shared<util::AuxCache>();
  bool directed_ = false;
};

}  // namespace gee::graph
