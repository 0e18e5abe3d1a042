// Internal interface of the GEE edge-pass kernels (one per backend).
//
// Update semantics (see DESIGN.md and gee.cpp): the canonical output is
// Algorithm 1 run over the logical edge list --
//     Z(u, Y(v)) += W(v, Y(v)) * w      (line 10, "source-side")
//     Z(v, Y(u)) += W(u, Y(u)) * w      (line 11, "dest-side")
//
//  * kBoth: the stored arcs ARE the logical edges (directed graphs, raw
//    edge lists): every arc fires both lines.
//  * kDestOnly: symmetric storage holds each undirected edge as two
//    mirrored arcs; firing only the dest-side line per arc yields exactly
//    Algorithm 1's two updates per logical edge. In a source-partitioned
//    parallel traversal the dest-side write lands on another worker's row,
//    which is precisely the race of the paper's Figure 1 -- so the atomics
//    story is preserved while the output matches the reference exactly
//    (up to floating-point reassociation).
#pragma once

#include <cstdint>

#include "gee/oos.hpp"
#include "gee/options.hpp"
#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "partition/plan.hpp"

namespace gee::core::detail {

using graph::EdgeId;
using graph::VertexId;
using graph::Weight;

struct PassContext {
  const std::int32_t* labels = nullptr;  // n entries, -1 = unknown
  const Real* vertex_weight = nullptr;   // n entries (compact W)
  Real* z = nullptr;                     // n x k, row major, zeroed
  int k = 0;
};

enum class ArcSemantics : std::uint8_t { kDestOnly, kBoth };
enum class Atomicity : std::uint8_t { kNone, kAtomic, kUnsafe };

/// Tight serial loop over CSR rows (Backend::kCompiledSerial, Graph input).
void pass_serial_csr(const graph::Csr& arcs, ArcSemantics semantics,
                     const PassContext& ctx);

/// Tight serial loop over the raw edge array, both updates per edge
/// (Backend::kCompiledSerial, EdgeList input; Algorithm 1 verbatim).
void pass_serial_edges(const graph::EdgeList& edges, const PassContext& ctx);

/// Ligra-style dense-forward edgeMap over the full frontier
/// (Backend::kLigraParallel / kLigraSerial / kParallelUnsafe).
void pass_engine(const graph::Graph& g, ArcSemantics semantics,
                 Atomicity atomicity, const PassContext& ctx);

/// Race-free two-sided pull (Backend::kParallelPull). Directed graphs
/// require g.has_in(); throws std::invalid_argument otherwise.
void pass_pull(const graph::Graph& g, ArcSemantics semantics,
               const PassContext& ctx);

/// Plain parallel-for over CSR rows, static schedule, no engine
/// (Backend::kFlatParallel, Graph input).
void pass_flat_csr(const graph::Csr& arcs, ArcSemantics semantics,
                   Atomicity atomicity, const PassContext& ctx);

/// Plain parallel-for over the raw edge array with atomics
/// (Backend::kFlatParallel, EdgeList input).
void pass_flat_edges(const graph::EdgeList& edges, Atomicity atomicity,
                     const PassContext& ctx);

/// Owned-row execution of a prebuilt edge partition plan
/// (Backend::kPartitioned). Each block's entries update only rows the
/// block owns: no atomics, no races, bitwise equal to the serial pass.
void pass_partitioned(const partition::EdgePartitionPlan& plan,
                      const PassContext& ctx);

/// Boxed-value bytecode interpreter (Backend::kInterpreted). `dense_w` is
/// the n x k dense projection matrix (Algorithm 1 reads W(v, Y(v)) by
/// indexing, and so does the interpreter).
void pass_interpreted_csr(const graph::Csr& arcs, ArcSemantics semantics,
                          const PassContext& ctx, const Real* dense_w);
void pass_interpreted_edges(const graph::EdgeList& edges,
                            const PassContext& ctx, const Real* dense_w);

// ------------------------------------------------------------ shared inline

/// Hint the caches about an upcoming contributor's label and weight reads
/// -- the two data-dependent loads of every update. Entry streams visit
/// `other` in data order, so hardware prefetchers can't help; issuing the
/// hint a few entries ahead overlaps the misses with current-entry work.
/// Pure hint: no effect on results.
inline void prefetch_vertex_data(const PassContext& ctx, VertexId v) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(ctx.labels + v, /*rw=*/0, /*locality=*/1);
  __builtin_prefetch(ctx.vertex_weight + v, /*rw=*/0, /*locality=*/1);
#else
  (void)ctx;
  (void)v;
#endif
}

/// Line 10: source row u accumulates dest v's class mass. The per-neighbor
/// step itself lives in oos.hpp so the serving path shares it bitwise.
template <class AddFn>
inline void update_src_side(const PassContext& ctx, VertexId u, VertexId v,
                            Weight w, AddFn&& add) {
  accumulate_neighbor_mass(ctx.labels, ctx.vertex_weight,
                           ctx.z + static_cast<std::size_t>(u) * ctx.k, v,
                           static_cast<Real>(w), add);
}

/// Line 11: dest row v accumulates source u's class mass.
template <class AddFn>
inline void update_dest_side(const PassContext& ctx, VertexId u, VertexId v,
                             Weight w, AddFn&& add) {
  accumulate_neighbor_mass(ctx.labels, ctx.vertex_weight,
                           ctx.z + static_cast<std::size_t>(v) * ctx.k, u,
                           static_cast<Real>(w), add);
}

}  // namespace gee::core::detail
