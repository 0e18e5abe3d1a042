// Parallel CSR construction and transposition.
//
// Both are one par::stable_bucket pass (DESIGN.md section 5): arcs are
// counted per chunk, scanned into row offsets and placed through per-chunk
// cursors, so no atomics are involved and each row holds its arcs in input
// order. With sort_neighbors (the default) every row is then sorted by
// (target, weight).
#pragma once

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"

namespace gee::graph {

/// Build the out-CSR of `edges` over vertex set [0, n). Rows are sorted by
/// (target, weight) with options.sort_neighbors, in input order without.
/// Throws std::out_of_range if an edge references a vertex >= n.
Csr build_csr(const EdgeList& edges, VertexId n, BuildOptions options = {});

/// Transpose: CSR of reversed edges. Weighted inputs keep per-edge weights.
/// Rows of the result are sorted by (target, weight).
Csr transpose(const Csr& csr);

}  // namespace gee::graph
