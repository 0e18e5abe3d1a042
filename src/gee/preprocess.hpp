// GEE preprocessing: weighted degrees and the normalized Laplacian.
//
// The GEE reference implementation's Laplacian option evaluates
// D^-1/2 A D^-1/2 in float64: every edge weight w(u,v) becomes
// w / sqrt(d(u) * d(v)), where d is the weighted degree accumulated over
// BOTH columns of the edge list (so a self-loop adds its weight twice to
// its vertex). Degree conventions here match that exactly:
//  * EdgeList: d[u] += w and d[v] += w per listed edge.
//  * Graph: symmetric storage already holds both arc directions, so d =
//    out-row weight sums; directed graphs use out + in sums.
// diag_augment adds the unit self-loop's 2.0 contribution to each degree
// before the transform (the reference applies DiagA before Laplacian).
//
// embed() never reweights the graph. With s(v) = 1 / sqrt(d(v)), line 11
// of Algorithm 1 adds W(u) * w * s(u) * s(v) to Z(v, Y(u)), so s of the
// contributor folds into the projection (fold_laplacian_scales) and s of
// the row into one row scale after the edge pass (DESIGN.md section 2).
#pragma once

#include <span>
#include <vector>

#include "gee/options.hpp"
#include "graph/csr.hpp"
#include "graph/edge_list.hpp"

namespace gee::core {

/// Weighted degrees with the edge-list convention described above.
std::vector<Real> weighted_degrees(const graph::EdgeList& edges,
                                   bool diag_augment);

/// Weighted degrees from a built Graph (same convention; see header note).
std::vector<Real> weighted_degrees(const graph::Graph& g, bool diag_augment);

/// Overwrite the weighted degrees `d` with the Laplacian's row scales
/// s(v) = 1 / sqrt(d(v)), or 0 where d(v) = 0 (an isolated vertex, whose
/// row is zero: without the guard its row scale would read 0 * inf = NaN),
/// and return the pass weights W'(v) = vertex_weight[v] * s(v).
std::vector<Real> fold_laplacian_scales(std::span<Real> d,
                                        std::span<const Real> vertex_weight);

/// Graph with the same structure and Laplacian-transformed weights, stored
/// as graph::Weight (float). embed() does not use it; it is the explicit
/// form of the transform for callers that want the reweighted graph itself.
graph::Graph reweight_laplacian(const graph::Graph& g,
                                std::span<const Real> degrees);

}  // namespace gee::core
