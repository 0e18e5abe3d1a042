#include "partition/partitioner.hpp"

#include <algorithm>
#include <cstdint>

#include "parallel/histogram.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/scan.hpp"
#include "parallel/sort.hpp"

namespace gee::partition {

namespace {

/// AuxCache key namespace for partition plans: "PLN" tag in the top bytes,
/// update sides and block count in the low bytes.
constexpr std::uint64_t kPlanKeyTag = (std::uint64_t{'P'} << 56) |
                                      (std::uint64_t{'L'} << 48) |
                                      (std::uint64_t{'N'} << 40);

constexpr int kMaxBlocks = 1 << 20;

std::uint64_t plan_key(UpdateSides sides, int num_blocks) {
  return kPlanKeyTag | (static_cast<std::uint64_t>(sides) << 32) |
         static_cast<std::uint32_t>(num_blocks);
}

/// Allocate `plan`'s entry arrays and stable-bucket into them, by owning
/// block, the entries `emit(lo, hi, sink)` produces for items [lo, hi) as
/// sink(block, row, other, weight).
template <class Emit>
void fill_entries(EdgePartitionPlan& plan, EdgeId num_items,
                  EdgeId num_entries, bool weighted, Emit&& emit) {
  plan.rows.reset(num_entries);
  plan.others.reset(num_entries);
  plan.weights.reset(weighted ? num_entries : 0);
  plan.entry_offsets = gee::par::stable_bucket(
      num_items, static_cast<std::size_t>(plan.num_blocks), emit,
      [&](EdgeId i, VertexId row, VertexId other, Weight w) {
        plan.rows[i] = row;
        plan.others[i] = other;
        if (weighted) plan.weights[i] = w;
      });
}

/// fill_entries with both entries of every edge of `edges`, in the serial
/// reference order (pass_serial_edges): source-side first (line 10),
/// dest-side second (line 11). `block_of(row)` maps a row to its owning
/// block.
template <class BlockOf>
void fill_edge_entries(EdgePartitionPlan& plan, const graph::EdgeList& edges,
                       BlockOf&& block_of) {
  const auto srcs = edges.srcs();
  const auto dsts = edges.dsts();
  const auto weights = edges.weights();
  fill_entries(plan, edges.num_edges(), 2 * edges.num_edges(),
               edges.weighted(),
               [&](std::size_t lo, std::size_t hi, auto&& sink) {
                 for (std::size_t e = lo; e < hi; ++e) {
                   const Weight w = weights.empty() ? Weight{1} : weights[e];
                   // src-side: row u, contributor v
                   sink(block_of(srcs[e]), srcs[e], dsts[e], w);
                   // dest-side: row v, contributor u
                   sink(block_of(dsts[e]), dsts[e], srcs[e], w);
                 }
               });
}

/// row -> owning block lookup table (blocks are few, rows are many; a flat
/// table beats a per-entry binary search in the hot bucketing loops).
std::vector<std::uint32_t> invert_boundaries(
    const std::vector<VertexId>& row_starts) {
  const VertexId n = row_starts.back();
  std::vector<std::uint32_t> block_of(n);
  for (std::size_t p = 0; p + 1 < row_starts.size(); ++p) {
    const VertexId lo = row_starts[p];
    const VertexId hi = row_starts[p + 1];
    gee::par::fill(block_of.data() + lo, static_cast<std::size_t>(hi - lo),
                   static_cast<std::uint32_t>(p));
  }
  return block_of;
}

}  // namespace

int resolve_num_blocks(int requested) {
  if (requested <= 0) return std::max(1, gee::par::num_threads());
  return std::min(requested, kMaxBlocks);
}

std::vector<VertexId> subset_slices(std::span<const graph::EdgeId> row_weights,
                                    int parts) {
  // Serial prefix: subsets are frontier-sized (the whole point of the
  // k-hop strategy), so a parallel scan would cost more than it saves.
  std::vector<graph::EdgeId> prefix(row_weights.size() + 1);
  prefix[0] = 0;
  for (std::size_t i = 0; i < row_weights.size(); ++i) {
    prefix[i + 1] = prefix[i] + row_weights[i];
  }
  return split_by_weight<graph::EdgeId>(prefix, std::max(1, parts));
}

EdgePartitionPlan build_plan(const graph::Csr& arcs, UpdateSides sides,
                             int num_blocks) {
  num_blocks = resolve_num_blocks(num_blocks);
  const VertexId n = arcs.num_vertices();
  const EdgeId m = arcs.num_edges();
  const bool both = sides == UpdateSides::kBoth;
  const EdgeId num_entries = both ? 2 * m : m;

  EdgePartitionPlan plan;
  plan.num_blocks = num_blocks;
  if (n == 0) {
    plan.row_starts.assign(static_cast<std::size_t>(num_blocks) + 1, 0);
    plan.entry_offsets.assign(static_cast<std::size_t>(num_blocks) + 1, 0);
    return plan;
  }

  // Per-row entry counts: dest-side entries land on the arc's target row;
  // kBoth adds one source-side entry per arc, i.e. the out-degree.
  const auto targets = arcs.targets();
  std::vector<std::uint64_t> row_weight = gee::par::histogram(
      static_cast<std::size_t>(m), static_cast<std::size_t>(n),
      [&](std::size_t i) { return targets[i]; });
  if (both) {
    gee::par::parallel_for(VertexId{0}, n, [&](VertexId r) {
      row_weight[r] += arcs.degree(r);
    });
  }
  std::vector<std::uint64_t> prefix(static_cast<std::size_t>(n) + 1);
  prefix[n] = gee::par::scan_exclusive(row_weight.data(), prefix.data(),
                                       static_cast<std::size_t>(n));

  plan.row_starts =
      split_by_weight(std::span<const std::uint64_t>(prefix), num_blocks);
  const auto block_of = invert_boundaries(plan.row_starts);

  // Entries in arc order: dest-side first, then source-side, matching
  // pass_serial_csr.
  fill_entries(plan, m, num_entries, arcs.weighted(),
               [&](std::size_t lo, std::size_t hi, auto&& sink) {
                 graph::for_arcs_in_range(
                     arcs, lo, hi, [&](VertexId u, VertexId v, Weight w) {
                       // dest-side: row v accumulates u's class mass
                       sink(block_of[v], v, u, w);
                       // src-side: row u accumulates v's class mass
                       if (both) sink(block_of[u], u, v, w);
                     });
               });
  return plan;
}

EdgePartitionPlan build_plan(const graph::EdgeList& edges, int num_blocks) {
  num_blocks = resolve_num_blocks(num_blocks);
  const VertexId n = edges.num_vertices();
  const EdgeId m = edges.num_edges();
  const auto srcs = edges.srcs();
  const auto dsts = edges.dsts();

  EdgePartitionPlan plan;
  plan.num_blocks = num_blocks;
  if (n == 0) {
    plan.row_starts.assign(static_cast<std::size_t>(num_blocks) + 1, 0);
    plan.entry_offsets.assign(static_cast<std::size_t>(num_blocks) + 1, 0);
    return plan;
  }

  // Both endpoints of every edge own one entry each.
  std::vector<std::uint64_t> row_weight = gee::par::histogram(
      2 * static_cast<std::size_t>(m), static_cast<std::size_t>(n),
      [&](std::size_t i) {
        return i < m ? srcs[i] : dsts[i - static_cast<std::size_t>(m)];
      });
  std::vector<std::uint64_t> prefix(static_cast<std::size_t>(n) + 1);
  prefix[n] = gee::par::scan_exclusive(row_weight.data(), prefix.data(),
                                       static_cast<std::size_t>(n));

  plan.row_starts =
      split_by_weight(std::span<const std::uint64_t>(prefix), num_blocks);
  const auto block_of = invert_boundaries(plan.row_starts);
  fill_edge_entries(plan, edges, [&](VertexId r) { return block_of[r]; });
  return plan;
}

EdgePartitionPlan build_delta_plan(const graph::EdgeList& edges,
                                   int num_blocks) {
  num_blocks = resolve_num_blocks(num_blocks);
  const VertexId n = edges.num_vertices();
  const EdgeId m = edges.num_edges();
  const EdgeId num_entries = 2 * m;
  const auto srcs = edges.srcs();
  const auto dsts = edges.dsts();

  EdgePartitionPlan plan;
  plan.num_blocks = num_blocks;
  if (m == 0) {
    plan.row_starts.assign(static_cast<std::size_t>(num_blocks) + 1, 0);
    plan.row_starts.back() = n;
    plan.entry_offsets.assign(static_cast<std::size_t>(num_blocks) + 1, 0);
    return plan;
  }

  // Boundaries are quantiles of the sorted entry-row multiset: no O(n)
  // histogram, and blocks still carry near-equal entry counts. Ownership is
  // by row *value*, so a run of equal rows straddling a quantile index all
  // lands in the later block -- same hub-bound skew as the dense builder.
  std::vector<VertexId> sorted_rows;
  sorted_rows.reserve(static_cast<std::size_t>(num_entries));
  sorted_rows.insert(sorted_rows.end(), srcs.begin(), srcs.end());
  sorted_rows.insert(sorted_rows.end(), dsts.begin(), dsts.end());
  std::sort(sorted_rows.begin(), sorted_rows.end());

  plan.row_starts.assign(static_cast<std::size_t>(num_blocks) + 1, 0);
  plan.row_starts.back() = n;
  for (int t = 1; t < num_blocks; ++t) {
    const auto idx = static_cast<std::size_t>(num_entries) *
                     static_cast<std::size_t>(t) /
                     static_cast<std::size_t>(num_blocks);
    plan.row_starts[static_cast<std::size_t>(t)] =
        std::max(sorted_rows[idx],
                 plan.row_starts[static_cast<std::size_t>(t) - 1]);
  }

  const auto row_starts = std::span<const VertexId>(plan.row_starts);
  const auto block_of = [row_starts](VertexId r) {
    return static_cast<std::uint32_t>(
        std::upper_bound(row_starts.begin() + 1, row_starts.end() - 1, r) -
        row_starts.begin() - 1);
  };

  fill_edge_entries(plan, edges, block_of);
  return plan;
}

std::shared_ptr<const EdgePartitionPlan> plan_for(const graph::Graph& g,
                                                  UpdateSides sides,
                                                  int num_blocks,
                                                  bool* built) {
  const std::uint64_t key = plan_key(sides, num_blocks);
  auto hit =
      std::static_pointer_cast<const EdgePartitionPlan>(g.aux().find(key));
  if (built != nullptr) *built = hit == nullptr;
  if (hit) return hit;
  auto plan = std::make_shared<EdgePartitionPlan>(
      build_plan(g.out(), sides, num_blocks));
  return std::static_pointer_cast<const EdgePartitionPlan>(
      g.aux().insert(key, std::move(plan)));
}

}  // namespace gee::partition
