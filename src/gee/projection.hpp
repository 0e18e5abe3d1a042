// The projection matrix W of Algorithm 1/2, lines 2-6.
//
// W has exactly one nonzero per labeled vertex: W(v, Y(v)) = 1/|{u : Y(u) =
// Y(v)}|. Two representations:
//  * compact (default): per-vertex scalar vertex_weight[v] (= that single
//    nonzero, or 0 for unlabeled v) plus the class counts. O(n + K) memory,
//    O(n) parallel build. Every backend's edge pass reads this form.
//  * dense: the literal n x K matrix. O(nK) memory and build time -- the
//    cost the paper parallelizes in Algorithm 2 lines 3-6 and the subject
//    of the init-dominates-at-low-degree observation (section III), which
//    bench A2 reproduces.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gee/options.hpp"
#include "graph/types.hpp"
#include "util/buffer.hpp"

namespace gee::core {

using graph::VertexId;

struct Projection {
  /// count of vertices labeled k, for k in [0, K).
  std::vector<std::uint64_t> class_counts;
  /// vertex_weight[v] = 1 / class_counts[Y(v)], or 0 when Y(v) == -1 or the
  /// class is empty.
  std::vector<Real> vertex_weight;
  int num_classes = 0;

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return static_cast<VertexId>(vertex_weight.size());
  }
};

/// Build the compact projection. K == 0 deduces 1 + max(label).
/// Throws std::invalid_argument on labels outside {-1} U [0, K).
Projection build_projection(std::span<const std::int32_t> labels,
                            int num_classes = 0);

/// Materialize the dense n x K matrix (row-major), zeroed
/// (UninitBuffer::zeroed) and scattered in parallel (Algorithm 2 lines
/// 3-6). Used by the interpreted backend for fidelity to Algorithm 1 and by
/// the A2 ablation bench (run it under par::ThreadScope(1) for the serial
/// baseline).
gee::util::UninitBuffer<Real> build_dense_w(
    const Projection& projection, std::span<const std::int32_t> labels);

}  // namespace gee::core
