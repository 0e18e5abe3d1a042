// Partitioner: builds EdgePartitionPlans from CSR adjacency or raw edge
// lists (see plan.hpp for what a plan is and why).
//
// Construction is three parallel phases, all deterministic for a fixed
// input and block count regardless of thread count:
//   1. per-row entry counts (a histogram over update-target rows), prefix-
//      summed so block boundaries can be chosen by weight, not row count --
//      on a power-law graph equal-width row ranges would hand one worker
//      all the hub traffic;
//   2. boundary selection: P quantiles of the entry-count prefix;
//   3. a stable parallel counting sort of the entries by owning block
//      (per-chunk histograms + exclusive scan, no atomics), which preserves
//      the original arc order inside each block.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "partition/plan.hpp"

namespace gee::partition {

/// Number of blocks actually used for a requested count (clamped to
/// [1, 2^20]; 0 or negative means one block per current OpenMP thread).
[[nodiscard]] int resolve_num_blocks(int requested);

/// Weighted quantile split: `parts` + 1 nondecreasing boundaries over
/// [0, n) such that each [b[t], b[t+1]) carries a near-equal share of the
/// total weight. `prefix` must hold n + 1 nondecreasing values with
/// prefix[0] == 0 (an exclusive prefix sum with the total appended -- a
/// CSR offset array qualifies). A single position heavier than
/// total/parts still bounds the skew: boundaries cannot split a position.
/// Shared by the partitioner's entry-weighted block boundaries and
/// shard::ShardMap's vertex ranges.
template <class T>
[[nodiscard]] std::vector<graph::VertexId> split_by_weight(
    std::span<const T> prefix, int parts) {
  const auto n = static_cast<graph::VertexId>(prefix.size() - 1);
  const T total = prefix[n];
  std::vector<graph::VertexId> starts(static_cast<std::size_t>(parts) + 1);
  starts.front() = 0;
  starts.back() = n;
  for (int t = 1; t < parts; ++t) {
    const T target =
        total * static_cast<T>(t) / static_cast<T>(parts);
    auto v = static_cast<graph::VertexId>(
        std::lower_bound(prefix.begin(), prefix.end(), target) -
        prefix.begin());
    v = std::min(v, n);
    v = std::max(v, starts[static_cast<std::size_t>(t) - 1]);
    starts[static_cast<std::size_t>(t)] = v;
  }
  return starts;
}

/// Subset-restricted plan: boundaries over an arbitrary row *subset*
/// rather than the full [0, n) row space. `row_weights[i]` is the work of
/// the i-th subset row (e.g. its degree plus a constant for the O(K)
/// row-local work); the return value is `parts` + 1 nondecreasing indices
/// INTO THE SUBSET such that each slice carries a near-equal share. The
/// streaming k-hop re-embed (gee/subset.hpp) hands each slice to one
/// worker, reusing the engine's weighted-quantile ownership discipline on
/// a frontier instead of the whole graph: rows stay exclusively owned, so
/// the parallel recompute needs no atomics.
[[nodiscard]] std::vector<graph::VertexId> subset_slices(
    std::span<const graph::EdgeId> row_weights, int parts);

/// Split the arcs of a CSR into `num_blocks` destination-range blocks.
/// kDestOnly: one entry per arc, owned by the arc's target row. kBoth:
/// additionally one source-side entry owned by the arc's source row.
[[nodiscard]] EdgePartitionPlan build_plan(const graph::Csr& arcs,
                                           UpdateSides sides, int num_blocks);

/// Split a raw edge list (Algorithm 1's E matrix; always both update
/// sides). Entries appear in the serial reference order: per edge the
/// source-side entry first, then the dest-side one.
[[nodiscard]] EdgePartitionPlan build_plan(const graph::EdgeList& edges,
                                           int num_blocks);

/// Sparse variant for streaming delta batches (src/stream/): partition a
/// (typically tiny) edge list over the full row space [0, edges.
/// num_vertices()) without the dense per-row histogram -- boundaries are
/// quantiles of the *sorted entry-row multiset* and the row->block lookup
/// is a binary search, so the cost is O(b log b) in the batch size rather
/// than O(n) in the vertex count. Entries keep the serial reference order
/// (per edge: source-side, then dest-side), so applying a block's entries
/// in order is bitwise equal to the serial delta loop. Always kBoth.
[[nodiscard]] EdgePartitionPlan build_delta_plan(const graph::EdgeList& edges,
                                                 int num_blocks);

/// Cached variant: the plan for (g.out(), sides, num_blocks), built on
/// first use and attached to the graph's AuxCache so repeated embed()
/// calls amortize partitioning. `num_blocks` must already be resolved
/// (> 0). Thread-safe; a lost build race discards the loser's plan.
[[nodiscard]] std::shared_ptr<const EdgePartitionPlan> plan_for(
    const graph::Graph& g, UpdateSides sides, int num_blocks);

/// As above, but partition `arcs` (a transformed view of `cache_on`, e.g.
/// Laplacian-reweighted) while attaching the plan to `cache_on`'s AuxCache
/// under the extra `variant` key bits (< 16). The caller guarantees that
/// (cache_on, variant) deterministically identifies `arcs`' content.
[[nodiscard]] std::shared_ptr<const EdgePartitionPlan> plan_for(
    const graph::Graph& cache_on, const graph::Csr& arcs, UpdateSides sides,
    int num_blocks, std::uint32_t variant);

}  // namespace gee::partition
