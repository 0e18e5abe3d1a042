// UpdateBatch: the append log of a streaming ingestion step.
//
// A dynamic-graph client records edge adds and removes in arrival order;
// DynamicGee consumes whole batches. Batching is what makes streaming more
// than a toy API: coalescing collapses churn (add+remove of the same edge
// nets to nothing; repeated adds merge into one weighted delta), and the
// coalesced deltas are large enough to bucket through the edge partitioner
// and apply with owned rows -- the same zero-atomic machinery as the batch
// kPartitioned backend (see DESIGN.md section 6).
//
// The batch knows nothing about graph state; DynamicGee::apply validates
// removals against its live edge multiset. What the batch can check alone
// -- endpoint bounds against the fixed label vector's length, positive
// weights -- it checks eagerly at append time or in validate().
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.hpp"

namespace gee::stream {

using graph::VertexId;
using graph::Weight;

class UpdateBatch {
 public:
  /// One net change to an unordered endpoint pair after coalescing.
  /// `weight` is the signed net weight delta (removals contribute their
  /// weight negatively); `count` the net multiplicity change. u <= v.
  struct Delta {
    VertexId u = 0;
    VertexId v = 0;
    Weight weight = 0;
    std::int64_t count = 0;

    friend bool operator==(const Delta&, const Delta&) = default;
  };

  /// Append an edge insertion. Throws std::invalid_argument unless w > 0
  /// and finite (signs are the batch's own bookkeeping; a "negative add"
  /// must be spelled remove).
  void add(VertexId u, VertexId v, Weight w = 1.0f);

  /// Append an edge removal; the mirror image of a prior add (same
  /// endpoints, same weight) for exact cancellation. Same weight rules.
  void remove(VertexId u, VertexId v, Weight w = 1.0f);

  [[nodiscard]] std::uint64_t size() const noexcept { return src_.size(); }
  [[nodiscard]] bool empty() const noexcept { return src_.empty(); }
  [[nodiscard]] std::uint64_t num_adds() const noexcept { return adds_; }
  [[nodiscard]] std::uint64_t num_removes() const noexcept {
    return size() - adds_;
  }

  void clear() noexcept;
  void reserve(std::size_t n);

  /// Largest endpoint id appended so far (0 when empty).
  [[nodiscard]] VertexId max_vertex() const noexcept { return max_vertex_; }

  /// Throws std::out_of_range if any endpoint is >= num_vertices -- the
  /// fixed label vector's length; streaming cannot grow the vertex set
  /// (W depends on global class counts, see dynamic_gee.hpp).
  void validate(VertexId num_vertices) const;

  /// Net deltas: entries merged by unordered endpoint pair (u <= v after
  /// canonicalization), exact no-ops dropped (count == 0 and weight == 0),
  /// output sorted by (u, v). Deterministic: weights accumulate in arrival
  /// order per pair, in double, cast once on output.
  [[nodiscard]] std::vector<Delta> coalesce() const;

  /// One appended operation, exactly as recorded (arrival order, no
  /// coalescing). Lets routers (src/shard/) split a batch into per-shard
  /// sub-batches that replay the same ops in the same order.
  struct Op {
    VertexId u = 0;
    VertexId v = 0;
    Weight weight = 0;  ///< magnitude as passed to add()/remove()
    bool is_add = true;
  };
  [[nodiscard]] Op op(std::size_t i) const noexcept {
    const Weight w = weight_[i];
    return {src_[i], dst_[i], w < 0 ? -w : w, w > 0};
  }

 private:
  void append(VertexId u, VertexId v, Weight w, bool is_add);

  std::vector<VertexId> src_;
  std::vector<VertexId> dst_;
  std::vector<Weight> weight_;  // signed: removals stored negative
  std::uint64_t adds_ = 0;
  VertexId max_vertex_ = 0;
};

}  // namespace gee::stream
