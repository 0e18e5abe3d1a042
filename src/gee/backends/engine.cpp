// Backend::kLigraParallel / kLigraSerial / kParallelUnsafe -- Algorithm 2:
// the GEE update function mapped over the graph by the edge_map engine,
// using lock-free writeAdd (or deliberately racy adds for the paper's
// atomics-off experiment). Under kDestOnly only labelled sources change Z,
// so the frontier is the labelled set and edge_map pushes from it; under
// kBoth the frontier stays all of V (DESIGN.md section 2).
#include <vector>

#include "gee/backends/pass.hpp"
#include "ligra/edge_map.hpp"
#include "parallel/atomics.hpp"
#include "parallel/scan.hpp"

namespace gee::core::detail {

namespace {

/// updateEmb of Algorithm 2: line 11 for every arc, plus line 10 under
/// kBoth. cond is always true and no output frontier is produced.
template <ArcSemantics kSemantics, class AddFn>
struct UpdateEmb {
  PassContext ctx;
  AddFn add;

  bool update(VertexId u, VertexId v, graph::Weight w) {
    return update_atomic(u, v, w);
  }
  bool update_atomic(VertexId u, VertexId v, graph::Weight w) {
    update_dest_side(ctx, u, v, w, add);
    if constexpr (kSemantics == ArcSemantics::kBoth) {
      update_src_side(ctx, u, v, w, add);
    }
    return false;
  }
  [[nodiscard]] bool cond(VertexId /*v*/) const { return true; }

  /// The cell line 11 writes, Z(v, Y(u)). Only the labelled frontier runs
  /// this functor, so Y(u) >= 0 and the cell is in bounds.
  void prefetch(VertexId u, VertexId v) const
    requires(kSemantics == ArcSemantics::kDestOnly)
  {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(ctx.z + static_cast<std::size_t>(v) * ctx.k +
                           ctx.labels[u],
                       /*rw=*/1);
#else
    (void)u;
    (void)v;
#endif
  }
};

template <class AddFn>
void map_update(const graph::Graph& g, ArcSemantics semantics,
                const PassContext& ctx, AddFn add) {
  const VertexId n = g.num_vertices();
  if (semantics == ArcSemantics::kDestOnly) {
    // An unlabelled source adds zero to every cell it reaches, so only the
    // labelled vertices' out-arcs need walking.
    std::vector<VertexId> labelled(n);
    labelled.resize(gee::par::pack_index(
        labelled.data(), n, [&](std::size_t v) { return ctx.labels[v] >= 0; }));
    auto frontier = ligra::VertexSubset::from_sparse(n, std::move(labelled));
    ligra::edge_map(g, frontier,
                    UpdateEmb<ArcSemantics::kDestOnly, AddFn>{ctx, add},
                    {.mode = ligra::EdgeMapMode::kSparse,
                     .produce_output = false});
  } else {
    // Line 10 needs each labelled destination's in-arcs, which a frontier
    // of sources cannot reach: walk every row.
    auto frontier = ligra::VertexSubset::all(n);
    ligra::edge_map(g, frontier,
                    UpdateEmb<ArcSemantics::kBoth, AddFn>{ctx, add},
                    {.mode = ligra::EdgeMapMode::kDenseForward,
                     .produce_output = false});
  }
}

}  // namespace

void pass_engine(const graph::Graph& g, ArcSemantics semantics,
                 Atomicity atomicity, const PassContext& ctx) {
  if (atomicity == Atomicity::kUnsafe) {
    map_update(g, semantics, ctx, [](Real& cell, Real delta) {
      gee::par::unsafe_add(cell, delta);
    });
  } else {
    map_update(g, semantics, ctx, [](Real& cell, Real delta) {
      gee::par::write_add(cell, delta);
    });
  }
}

}  // namespace gee::core::detail
