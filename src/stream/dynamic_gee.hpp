// DynamicGee: batched dynamic-graph maintenance of the GEE embedding.
//
// GEE's Z is a sum of one O(K) term per edge (gee.hpp), so a batch of edge
// adds/removes is itself a small GEE problem: coalesce the batch into net
// per-pair deltas, then apply each delta's two row updates. This engine
// turns that linearity into a production ingestion path on three legs:
//
//  * batched delta application -- a large batch is bucketed through the
//    PR-1 Partitioner (partition::build_delta_plan, O(b log b) in the
//    batch, not O(n) in the graph) so workers own disjoint Z row ranges
//    and apply deltas with plain adds: zero atomics, and bitwise equal to
//    the serial delta loop for any block count. Batches below
//    Options::stream_parallel_threshold take that serial loop (the
//    bucketing sort costs more than it saves there).
//  * epoch snapshots -- readers get an immutable Z (snapshot.hpp) while
//    the writer prepares the next epoch in a separate buffer. Buffers
//    recycle through a pool; a returning buffer is promoted to the current
//    state by replaying the few missed batches from a bounded delta log
//    (falling back to a full copy when too far behind), so steady-state
//    publication does no O(nK) work.
//  * drift rebuilds -- removals leave ~1 ulp of floating-point residue
//    per operation; once removals since the last rebuild exceed
//    Options::stream_rebuild_drift of the live edge count, Z is recomputed
//    from the live edge multiset (one batch kPartitioned embed -- cheap;
//    that is the paper's point) and republished.
//  * endpoint re-embedding (Options::stream_update_strategy =
//    kKHop/kAuto) -- instead of applying deltas cell-by-cell, RECOMPUTE
//    the rows of the changed endpoints from the exact per-vertex adjacency
//    mirror (adjacency.hpp). W is indexed by labels alone, so those are
//    the only rows a batch changes. Recomputed rows are bitwise equal to a
//    full rebuild's, so removals leave no residue at all and the drift
//    counter never advances on this path. Wins when a batch concentrates
//    many updates on few vertices (DESIGN.md sec. 10).
//
// Threading contract: ONE writer thread calls apply()/rebuild(); any
// number of reader threads call snapshot()/epoch()/staleness()/refresh()
// (and the const accessors projection()/labels()/num_vertices())
// concurrently with the writer and each other. stats() and the other
// inspectors are writer-thread-only.
//
// The label vector is fixed at construction: W depends on global class
// counts, so relabeling means rebuilding from scratch with a new
// DynamicGee.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "gee/gee.hpp"
#include "gee/options.hpp"
#include "gee/projection.hpp"
#include "graph/edge_list.hpp"
#include "stream/adjacency.hpp"
#include "stream/snapshot.hpp"
#include "stream/update_batch.hpp"

namespace gee::stream {

class DynamicGee {
 public:
  /// Start from an empty graph over `labels` (n vertices; class count from
  /// options.num_classes or deduced as in build_projection). Throws
  /// std::invalid_argument for options the linear update cannot maintain
  /// (laplacian, diag_augment, correlation are all nonlinear in the edge
  /// multiset) and when no class count is deducible.
  explicit DynamicGee(std::span<const std::int32_t> labels,
                      core::Options options = {});

  /// Seed from an initial edge list: one batch embed at construction
  /// (epoch 0), live multiset primed with `initial`.
  DynamicGee(const graph::EdgeList& initial,
             std::span<const std::int32_t> labels, core::Options options = {});

  /// What one apply() did, for callers that meter the pipeline.
  struct ApplyReport {
    std::uint64_t raw_ops = 0;    ///< batch entries before coalescing
    std::uint64_t deltas = 0;     ///< net per-pair deltas applied
    bool parallel = false;        ///< partitioned delta path (vs serial)
    bool rebuilt = false;         ///< drift rebuild triggered afterwards
    std::uint64_t epoch = 0;      ///< epoch visible after this apply
    /// Path that folded the batch: kDelta (`parallel` tells which
    /// sub-path) or kKHop. kAuto never appears -- it resolves to kKHop or
    /// kDelta per batch.
    core::UpdateStrategy strategy = core::UpdateStrategy::kDelta;
    /// Rows re-embedded by the k-hop path (0 on the delta paths).
    std::uint64_t khop_rows = 0;
  };

  /// Apply one batch and publish a new epoch. Validates before mutating:
  /// throws std::out_of_range for endpoints outside [0, n) and
  /// std::invalid_argument for removals the live multiset cannot cover --
  /// in both cases embedding state and live multiset are unchanged.
  ApplyReport apply(const UpdateBatch& batch);

  /// Current published embedding; wait-free for practical purposes (one
  /// mutex-protected shared_ptr copy, never blocked by delta application).
  [[nodiscard]] Snapshot snapshot() const;

  /// Epochs published so far (0 = construction state). Lock-free: one
  /// atomic load, so serving-side staleness checks never contend with
  /// snapshot() or the writer's publish.
  [[nodiscard]] std::uint64_t epoch() const noexcept;

  /// Batches published since `snap` was taken. Lock-free (see epoch()).
  [[nodiscard]] std::uint64_t staleness(const Snapshot& snap) const noexcept;

  /// Outcome of one refresh() bound check. `staleness` is snap's lag as
  /// measured by the SAME epoch read that made the decision -- serving
  /// code reports it to callers, so a reply can never claim more lag than
  /// the bound that admitted its pin.
  struct RefreshResult {
    /// Engaged (with the current snapshot) only when the bound was
    /// exceeded.
    std::optional<Snapshot> fresh;
    std::uint64_t staleness = 0;
  };

  /// Serving-side refresh hook: re-snapshot when `snap` lags the current
  /// epoch by MORE than `max_staleness` batches. The within-bound path is
  /// one lock-free epoch load -- a pinned reader polling at high rate
  /// never touches the publication lock until it actually needs a newer
  /// epoch. The single home of the staleness-bound rule (serve::
  /// QueryEngine routes every pin through it).
  [[nodiscard]] RefreshResult refresh(const Snapshot& snap,
                                      std::uint64_t max_staleness) const;

  /// Force a from-scratch recompute from the live edge multiset (the drift
  /// trigger calls this automatically). Publishes a new epoch.
  void rebuild();

  [[nodiscard]] const core::Projection& projection() const noexcept {
    return projection_;
  }
  /// The fixed label vector (set at construction; immutable thereafter, so
  /// reader threads may hold this span for the engine's lifetime).
  [[nodiscard]] std::span<const std::int32_t> labels() const noexcept {
    return labels_;
  }
  [[nodiscard]] graph::VertexId num_vertices() const noexcept { return n_; }
  /// Live edge multiplicity (parallel edges counted; writer-thread-only).
  [[nodiscard]] std::uint64_t num_live_edges() const noexcept {
    return live_count_;
  }

  /// Writer-side counters (writer-thread-only).
  struct Stats {
    std::uint64_t batches = 0;          ///< apply() calls
    std::uint64_t serial_batches = 0;   ///< took the serial delta loop
    std::uint64_t parallel_batches = 0; ///< took the partitioned path
    std::uint64_t deltas_applied = 0;   ///< net deltas across all batches
    std::uint64_t rebuilds = 0;         ///< drift-triggered + forced
    std::uint64_t buffer_copies = 0;    ///< O(nK) snapshot-buffer copies
    std::uint64_t buffer_promotions = 0;///< delta-replay buffer reuses
    std::uint64_t removed_since_rebuild = 0;
    std::uint64_t khop_batches = 0;     ///< took the k-hop path
    std::uint64_t khop_rows = 0;        ///< rows re-embedded across them
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct BufferPool;
  struct LiveEdge {
    double weight = 0;
    std::int64_t count = 0;
  };

  /// One replayable epoch of the promotion log: either the batch's deltas
  /// (delta paths -- replay re-applies them) or the k-hop path's row patch
  /// (replay copies the recomputed rows verbatim, so a promoted buffer
  /// reproduces the published bytes exactly). Neither = not replayable;
  /// publishing such an entry clears the log (rebuilds, oversized k-hop
  /// subsets) and pooled buffers fall back to a full copy.
  struct LogEntry {
    std::uint64_t epoch = 0;
    std::vector<UpdateBatch::Delta> deltas;
    std::vector<graph::VertexId> patch_rows;  ///< ascending
    std::vector<core::Real> patch_values;     ///< patch_rows.size() x K
    [[nodiscard]] bool replayable() const noexcept {
      return !deltas.empty() || !patch_rows.empty();
    }
  };

  void init(std::span<const std::int32_t> labels);
  /// Apply coalesced deltas to `z`: serial loop below the threshold,
  /// partitioned otherwise; returns true when the partitioned path ran.
  bool apply_deltas(core::Embedding& z,
                    const std::vector<UpdateBatch::Delta>& deltas);
  /// The k-hop path: re-embed the rows of `deltas`' endpoints in `z`, fill
  /// `entry`'s row patch and `report`'s k-hop fields. Returns false
  /// (leaving `z` untouched) when `auto_mode` and the endpoints outnumber
  /// stream_khop_auto_ratio of n -- the caller then falls back to delta
  /// application.
  bool apply_khop(core::Embedding& z,
                  const std::vector<UpdateBatch::Delta>& deltas,
                  bool auto_mode, LogEntry* entry, ApplyReport* report);
  /// A writable buffer holding the current published state: a pooled
  /// buffer promoted via the replay log, or a fresh/recycled full copy.
  std::unique_ptr<core::Embedding> acquire_writable();
  /// Swap `z` in as the new published epoch; `entry` becomes the newest
  /// log entry (not replayable = log is cleared).
  void publish(std::unique_ptr<core::Embedding> z, LogEntry entry);
  [[nodiscard]] bool drift_exceeded() const noexcept;

  std::vector<std::int32_t> labels_;
  core::Projection projection_;
  core::Options options_;
  graph::VertexId n_ = 0;
  int k_ = 0;

  /// Live edge multiset keyed by packed unordered pair: net weight and
  /// multiplicity. The rebuild source of truth.
  std::unordered_map<std::uint64_t, LiveEdge> live_;
  std::uint64_t live_count_ = 0;

  /// Per-vertex mirror of live_, allocated only when
  /// stream_update_strategy is kKHop/kAuto (kDelta pays nothing for it).
  /// Writer-thread-only, like live_.
  std::unique_ptr<DynamicAdjacency> adjacency_;

  mutable std::mutex publish_mutex_;           // guards published_
  std::shared_ptr<core::Embedding> published_; // readers snapshot this
  /// Stored under publish_mutex_ (so snapshot() reads a consistent
  /// (pointer, epoch) pair) but loadable lock-free by epoch()/staleness().
  std::atomic<std::uint64_t> epoch_{0};

  std::shared_ptr<BufferPool> pool_;
  /// Replay log of the most recent applies, newest last; a pooled buffer
  /// at epoch e replays entries (e, current] to catch up.
  std::deque<LogEntry> log_;

  Stats stats_;
};

}  // namespace gee::stream
