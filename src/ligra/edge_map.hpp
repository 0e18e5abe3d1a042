// edgeMap / vertexMap: the Ligra programming interface (Shun & Blelloch
// [14]), reimplemented over OpenMP.
//
// edge_map(G, frontier, F) applies F to every edge leaving the frontier and
// returns the subset of target vertices for which F requested activation.
// Three traversal modes:
//
//  * kSparse        -- "push" over the member list: one worker walks each
//                      member's out-edges; F::update_atomic resolves
//                      write-write races; output built by atomic flag
//                      dedup + pack. Chosen for small frontiers.
//  * kDense         -- "pull": for every vertex v with cond(v), scan v's
//                      in-edges for frontier members; F::update runs
//                      non-atomically because one worker owns each v, and
//                      the scan can exit early once cond(v) flips.
//  * kDenseForward  -- "push" over all of V: scan out-edges of every
//                      vertex whose frontier flag is set.
//
// Both push modes are the schedule the paper describes for GEE ("schedules
// one worker for the edge list of each node", section III).
//
// kAuto applies Ligra's |frontier| + out-degree(frontier) > m/20 heuristic.
//
// The functor contract (duck-typed, checked by the EdgeMapFunctor concept):
//   bool update(u, v, w)         non-atomic variant (dense pull)
//   bool update_atomic(u, v, w)  thread-safe variant (push modes)
//   bool cond(v)                 should v still receive updates?
// Return true from update* to add v to the output frontier. Optionally:
//   void prefetch(u, v)          hint the memory update_atomic(u, v, .)
//                                will write; kSparse calls it
//                                kPrefetchArcs arcs ahead.
//
// GEE's edge pass (gee/backends/engine.cpp, the only caller) runs kSparse
// over the labelled vertices for undirected graphs and kDenseForward over
// all of V for directed ones (DESIGN.md section 2).
#pragma once

#include <concepts>
#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "ligra/vertex_subset.hpp"
#include "parallel/atomics.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"

namespace gee::ligra {

using graph::Csr;
using graph::EdgeId;
using graph::Graph;
using graph::Weight;

template <class F>
concept EdgeMapFunctor = requires(F f, VertexId u, VertexId v, Weight w) {
  { f.update(u, v, w) } -> std::convertible_to<bool>;
  { f.update_atomic(u, v, w) } -> std::convertible_to<bool>;
  { f.cond(v) } -> std::convertible_to<bool>;
};

enum class EdgeMapMode : std::uint8_t { kAuto, kSparse, kDense, kDenseForward };

struct EdgeMapOptions {
  EdgeMapMode mode = EdgeMapMode::kAuto;
  /// Dense when frontier size + frontier out-degree > m / threshold_den.
  EdgeId threshold_den = 20;
  /// When false, skip building the output frontier (GEE's pass needs no
  /// output; this removes the flag array and pack costs).
  bool produce_output = true;
};

/// Filled by edge_map when a non-null stats pointer is passed; the engine
/// ablation bench (A3) and the mode-selection tests read these.
struct EdgeMapStats {
  EdgeMapMode mode_used = EdgeMapMode::kAuto;
  EdgeId frontier_degree = 0;
};

/// How far ahead of the arc being applied kSparse calls F::prefetch.
inline constexpr std::size_t kPrefetchArcs = 16;

namespace detail {

/// Sum of out-degrees over the frontier.
inline EdgeId frontier_out_degree(const Csr& out, const VertexSubset& frontier) {
  if (frontier.is_dense()) {
    const auto flags = frontier.dense_flags();
    return gee::par::reduce_sum<EdgeId>(
        flags.size(), [&](std::size_t v) {
          return flags[v] ? out.degree(static_cast<VertexId>(v)) : EdgeId{0};
        });
  }
  const auto members = frontier.sparse_members();
  return gee::par::reduce_sum<EdgeId>(
      members.size(), [&](std::size_t i) { return out.degree(members[i]); });
}

template <EdgeMapFunctor F>
VertexSubset edge_map_sparse(const Csr& out, const VertexSubset& frontier,
                             F& f, bool produce_output) {
  const auto members = frontier.sparse_members();
  const VertexId n = frontier.universe();

  std::vector<std::uint8_t> out_flags;
  if (produce_output) out_flags.assign(n, 0);

  gee::par::parallel_for_dynamic(
      std::size_t{0}, members.size(),
      [&](std::size_t i) {
        const VertexId u = members[i];
        const auto neigh = out.neighbors(u);
        const auto w = out.edge_weights(u);
        for (std::size_t j = 0; j < neigh.size(); ++j) {
          // A row's targets are scattered, so no hardware prefetcher
          // predicts the writes; the functor names them ahead of time.
          if constexpr (requires { f.prefetch(u, u); }) {
            if (j + kPrefetchArcs < neigh.size()) {
              f.prefetch(u, neigh[j + kPrefetchArcs]);
            }
          }
          const VertexId v = neigh[j];
          const Weight wt = w.empty() ? Weight{1} : w[j];
          if (f.cond(v) && f.update_atomic(u, v, wt)) {
            if (produce_output) gee::par::test_and_set_flag(out_flags[v]);
          }
        }
      },
      /*chunk=*/16);

  if (!produce_output) return VertexSubset::empty(n);
  auto result = VertexSubset::from_dense(std::move(out_flags));
  result.to_sparse();  // sparse in, sparse out (Ligra convention)
  return result;
}

template <EdgeMapFunctor F>
VertexSubset edge_map_dense_pull(const Csr& in, const VertexSubset& frontier,
                                 F& f, bool produce_output) {
  const VertexId n = frontier.universe();
  std::vector<std::uint8_t> out_flags;
  if (produce_output) out_flags.assign(n, 0);

  gee::par::parallel_for_dynamic(
      VertexId{0}, n,
      [&](VertexId v) {
        if (!f.cond(v)) return;
        const auto neigh = in.neighbors(v);
        const auto w = in.edge_weights(v);
        for (std::size_t j = 0; j < neigh.size(); ++j) {
          const VertexId u = neigh[j];
          if (!frontier.contains(u)) continue;
          const Weight wt = w.empty() ? Weight{1} : w[j];
          // One worker owns v: non-atomic update is safe (Ligra's key trick).
          if (f.update(u, v, wt) && produce_output) out_flags[v] = 1;
          if (!f.cond(v)) break;  // early exit, e.g. BFS parent found
        }
      },
      /*chunk=*/64);

  if (!produce_output) return VertexSubset::empty(n);
  return VertexSubset::from_dense(std::move(out_flags));
}

template <EdgeMapFunctor F>
VertexSubset edge_map_dense_forward(const Csr& out,
                                    const VertexSubset& frontier, F& f,
                                    bool produce_output) {
  const VertexId n = frontier.universe();
  std::vector<std::uint8_t> out_flags;
  if (produce_output) out_flags.assign(n, 0);

  // "Schedules one worker for the edge list of each node" (paper, sec. III):
  // dynamic scheduling over source vertices; each worker walks one node's
  // out-edge list sequentially, so Z(u,:) / W(u,:) stay cache resident.
  gee::par::parallel_for_dynamic(
      VertexId{0}, n,
      [&](VertexId u) {
        if (!frontier.contains(u)) return;
        const auto neigh = out.neighbors(u);
        const auto w = out.edge_weights(u);
        for (std::size_t j = 0; j < neigh.size(); ++j) {
          const VertexId v = neigh[j];
          const Weight wt = w.empty() ? Weight{1} : w[j];
          if (f.cond(v) && f.update_atomic(u, v, wt)) {
            if (produce_output) {
              gee::par::atomic_store<std::uint8_t>(out_flags[v], 1);
            }
          }
        }
      },
      /*chunk=*/64);

  if (!produce_output) return VertexSubset::empty(n);
  return VertexSubset::from_dense(std::move(out_flags));
}

}  // namespace detail

/// Apply functor `f` to every out-edge of `frontier` in graph `g`; returns
/// the activated target subset (empty subset when produce_output is false).
template <EdgeMapFunctor F>
VertexSubset edge_map(const Graph& g, VertexSubset& frontier, F&& f,
                      const EdgeMapOptions& options = {},
                      EdgeMapStats* stats = nullptr) {
  const Csr& out = g.out();
  const EdgeId m = out.num_edges();

  EdgeMapMode mode = options.mode;
  EdgeId fdeg = 0;
  if (mode == EdgeMapMode::kAuto || stats != nullptr) {
    fdeg = detail::frontier_out_degree(out, frontier);
  }
  if (mode == EdgeMapMode::kAuto) {
    const bool dense = static_cast<EdgeId>(frontier.size()) + fdeg >
                       m / options.threshold_den;
    if (!dense) {
      mode = EdgeMapMode::kSparse;
    } else {
      // Pull needs in-edges; fall back to push when they are absent.
      mode = g.has_in() ? EdgeMapMode::kDense : EdgeMapMode::kDenseForward;
    }
  }
  if (stats != nullptr) {
    stats->mode_used = mode;
    stats->frontier_degree = fdeg;
  }

  switch (mode) {
    case EdgeMapMode::kSparse:
      frontier.to_sparse();
      return detail::edge_map_sparse(out, frontier, f, options.produce_output);
    case EdgeMapMode::kDense:
      frontier.to_dense();
      return detail::edge_map_dense_pull(g.in(), frontier, f,
                                         options.produce_output);
    case EdgeMapMode::kDenseForward:
      frontier.to_dense();
      return detail::edge_map_dense_forward(out, frontier, f,
                                            options.produce_output);
    case EdgeMapMode::kAuto:
      break;  // unreachable
  }
  return VertexSubset::empty(frontier.universe());
}

/// Apply f(v) to every member of the subset (Ligra's vertexMap).
template <class Fn>
void vertex_map(const VertexSubset& subset, Fn&& f) {
  subset.for_each(f);
}

/// Members v of `subset` with pred(v) true, as a new subset (vertexFilter).
template <class Pred>
VertexSubset vertex_filter(const VertexSubset& subset, Pred&& pred) {
  std::vector<std::uint8_t> flags(subset.universe(), 0);
  subset.for_each([&](VertexId v) {
    if (pred(v)) flags[v] = 1;
  });
  return VertexSubset::from_dense(std::move(flags));
}

}  // namespace gee::ligra
