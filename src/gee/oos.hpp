// Out-of-sample (OOS) row synthesis: one vertex's embedding from its
// incident edge list alone.
//
// GEE's Z is a sum of one O(K) term per edge (gee.hpp), and the terms that
// land in row v depend only on v's incident edges and the fixed projection
// W -- never on other rows. That locality is what makes a serving path
// possible: a query carrying a vertex's (neighbor, weight) list can be
// answered by synthesizing its row on the fly, with no graph mutation and
// no lock on the batch machinery (src/serve/ builds on exactly this).
//
// accumulate_neighbor_mass below is THE per-neighbor step of the
// algorithm, shared by every edge kernel (backends/pass.hpp), the
// streaming delta path (stream::DynamicGee::apply_deltas), the subset
// re-embed (subset.hpp), and embed_one_vertex here. One
// definition means the serving path is bitwise-consistent with the batch
// kernels by construction: replaying a vertex's incident edges in batch
// order reproduces its batch row exactly (asserted by serve_test's parity
// tests).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "gee/options.hpp"
#include "gee/projection.hpp"
#include "graph/types.hpp"

namespace gee::core {

/// One incident edge of a queried vertex: (in-sample endpoint, weight).
using NeighborRef = std::pair<graph::VertexId, graph::Weight>;

/// Accumulate one neighbor's class mass into a K-length row:
///     row[Y(v)] += W(v, Y(v)) * w        (no-op when v is unlabeled)
/// `add(cell, delta)` commits the update -- plain `+=` from single-writer
/// code, par::write_add from concurrent kernels. This is Algorithm 1's
/// line 10/11 body with the destination row already resolved.
template <class AddFn>
inline void accumulate_neighbor_mass(const std::int32_t* labels,
                                     const Real* vertex_weight, Real* row,
                                     graph::VertexId v, Real w, AddFn&& add) {
  const std::int32_t y = labels[v];
  if (y >= 0) add(row[y], vertex_weight[v] * w);
}

/// Synthesize the embedding row of one vertex from its incident edge list:
/// row[Y(v)] += W(v, Y(v)) * w for each (v, w) in `neighbors`, accumulated
/// in list order into `row` (size projection.num_classes, NOT cleared
/// first -- callers zero it or chain calls deliberately).
///
/// Listing v's incident edges in the order the batch pass visits them
/// reproduces row v of the batch embedding bitwise (a self-loop must
/// appear twice: both endpoints contribute). For a Laplacian embedding,
/// pass the raw weights with a projection whose vertex_weight is
/// W(u) * s(u), s = 1 / sqrt(d) (preprocess.hpp), then scale the row by
/// s(v): the two diagonal scalings embed() itself applies.
///
/// Throws std::out_of_range for neighbor ids outside the label vector.
void embed_one_vertex(const Projection& projection,
                      std::span<const std::int32_t> labels,
                      std::span<const NeighborRef> neighbors,
                      std::span<Real> row);

/// Allocating convenience: zero-filled K-length row, then the above.
[[nodiscard]] std::vector<Real> embed_one_vertex(
    const Projection& projection, std::span<const std::int32_t> labels,
    std::span<const NeighborRef> neighbors);

}  // namespace gee::core
