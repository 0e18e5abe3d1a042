// Backend::kPartitioned -- ownership instead of atomics.
//
// The partitioner (src/partition/) bucketed every update of Algorithm 1 by
// the Z row it writes, into P blocks of contiguous rows. Workers take
// blocks; a worker applies its block's updates with plain adds because no
// other worker may touch those rows (the ownership invariant, DESIGN.md
// section 5). Contrast with kLigraParallel, where a source-partitioned
// traversal sends dest-side writes into other workers' rows -- exactly the
// race of the paper's Figure 1 that its atomics pay for.
//
// Locality bonus: a block's writes span only rows [row_lo, row_hi) of Z,
// where the atomic backends scatter writes across all of Z.
#include "gee/backends/pass.hpp"
#include "parallel/parallel_for.hpp"

namespace gee::core::detail {

namespace {

/// How far ahead of the current entry the prefetch hints run: enough to
/// cover a DRAM miss at ~4 entries' work per miss, small enough that the
/// hinted lines survive until use.
constexpr std::size_t kPrefetchDistance = 16;

}  // namespace

void pass_partitioned(const partition::EdgePartitionPlan& plan,
                      const PassContext& ctx) {
  // Dynamic one-block-at-a-time scheduling: blocks are entry-balanced by
  // construction, but a row heavier than total/P makes its block oversized
  // (row ownership cannot split a hub), so let fast workers steal ahead.
  gee::par::parallel_for_dynamic(0, plan.num_blocks, [&](int p) {
    const auto block = plan.block(p);
    const std::size_t count = block.rows.size();
    // One entry of Algorithm 1, applied in stored (arc) order -- the
    // bitwise-equality invariant. The z writes stay inside this block's
    // [row_lo, row_hi) slice; the data-dependent labels/vertex_weight
    // reads are what the prefetch hints target.
    const auto step = [&](std::size_t i) {
      const VertexId other = block.others[i];
      const std::int32_t y = ctx.labels[other];
      if (y < 0) return;
      const Real w = block.weights.empty()
                         ? Real{1}
                         : static_cast<Real>(block.weights[i]);
      ctx.z[static_cast<std::size_t>(block.rows[i]) * ctx.k + y] +=
          ctx.vertex_weight[other] * w;
    };
    std::size_t i = 0;
    if (count > kPrefetchDistance + 4) {
      // Unrolled body: 4 hints then 4 updates per round, entries strictly
      // in order.
      const std::size_t last = count - kPrefetchDistance - 4;
      for (; i <= last; i += 4) {
        prefetch_vertex_data(ctx, block.others[i + kPrefetchDistance]);
        prefetch_vertex_data(ctx, block.others[i + kPrefetchDistance + 1]);
        prefetch_vertex_data(ctx, block.others[i + kPrefetchDistance + 2]);
        prefetch_vertex_data(ctx, block.others[i + kPrefetchDistance + 3]);
        step(i);
        step(i + 1);
        step(i + 2);
        step(i + 3);
      }
    }
    for (; i < count; ++i) step(i);
  }, /*chunk=*/1);
}

}  // namespace gee::core::detail
