#include "stream/dynamic_gee.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "gee/oos.hpp"
#include "gee/subset.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "partition/partitioner.hpp"
#include "stream/detail.hpp"
#include "util/timer.hpp"

namespace gee::stream {

using core::Real;

/// Recycles snapshot buffers between the writer and expiring readers. A
/// buffer enters when the last shared_ptr to a superseded epoch drops
/// (possibly on a reader thread -- the pool mutex provides the
/// happens-before edge to the writer's next acquire; never infer exclusive
/// ownership from shared_ptr::use_count, which carries no such edge).
/// Outlives the DynamicGee via shared_ptr: in-flight snapshots hold the
/// pool alive through their deleters.
struct DynamicGee::BufferPool {
  std::mutex mutex;
  std::vector<std::pair<std::unique_ptr<core::Embedding>, std::uint64_t>>
      free_buffers;

  /// Bound idle buffers: the writer needs one spare at steady state; a
  /// couple more absorb bursts of reader expiry. Beyond that, free memory.
  static constexpr std::size_t kMaxPooled = 3;

  void put(core::Embedding* raw, std::uint64_t buffer_epoch) {
    std::unique_ptr<core::Embedding> owned(raw);
    std::lock_guard<std::mutex> lock(mutex);
    if (free_buffers.size() < kMaxPooled) {
      free_buffers.emplace_back(std::move(owned), buffer_epoch);
    }
  }

  /// Newest pooled buffer (fewest epochs to replay), or {nullptr, 0}.
  std::pair<std::unique_ptr<core::Embedding>, std::uint64_t> try_get() {
    std::lock_guard<std::mutex> lock(mutex);
    if (free_buffers.empty()) return {nullptr, 0};
    auto newest = std::max_element(
        free_buffers.begin(), free_buffers.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    std::swap(*newest, free_buffers.back());
    auto entry = std::move(free_buffers.back());
    free_buffers.pop_back();
    return entry;
  }
};

using detail::pair_key;

namespace {

/// Replayable batches kept for promoting pooled buffers; a buffer further
/// behind than this is refreshed by a full copy instead. Small on purpose:
/// each entry pins one coalesced batch in memory.
constexpr std::size_t kMaxDeltaLog = 16;

/// Writer-path metrics (DESIGN.md section 8, gee.stream.*). One writer by
/// contract, so the shard increments never contend; handles resolved once.
struct StreamMetrics {
  obs::Counter& batches = obs::counter("gee.stream.batches");
  obs::Counter& deltas = obs::counter("gee.stream.deltas");
  obs::Counter& raw_ops = obs::counter("gee.stream.raw_ops");
  obs::Counter& parallel_batches = obs::counter("gee.stream.parallel_batches");
  obs::Counter& rebuilds = obs::counter("gee.stream.rebuilds");
  obs::Counter& buffer_copies = obs::counter("gee.stream.buffer_copies");
  obs::Counter& buffer_promotions =
      obs::counter("gee.stream.buffer_promotions");
  obs::Counter& khop_batches = obs::counter("gee.stream.khop_batches");
  obs::Histogram& apply_seconds = obs::histogram("gee.stream.apply_seconds");
  obs::Histogram& batch_deltas = obs::histogram("gee.stream.batch_deltas");
  obs::Histogram& khop_frontier = obs::histogram("gee.stream.khop_frontier");
  obs::Gauge& live_edges = obs::gauge("gee.stream.live_edges");
  obs::Gauge& removed_since_rebuild =
      obs::gauge("gee.stream.removed_since_rebuild");

  static StreamMetrics& get() {
    static StreamMetrics m;
    return m;
  }
};

}  // namespace

DynamicGee::DynamicGee(std::span<const std::int32_t> labels,
                       core::Options options)
    : options_(options) {
  init(labels);
  auto zero = std::make_unique<core::Embedding>(n_, k_);
  published_ = std::shared_ptr<core::Embedding>(
      zero.release(), [pool = pool_](core::Embedding* p) { pool->put(p, 0); });
}

DynamicGee::DynamicGee(const graph::EdgeList& initial,
                       std::span<const std::int32_t> labels,
                       core::Options options)
    : options_(options) {
  init(labels);
  if (initial.num_vertices() > n_) {
    throw std::out_of_range("DynamicGee: initial edges exceed label vector");
  }
  for (graph::EdgeId e = 0; e < initial.num_edges(); ++e) {
    const std::uint64_t key = pair_key(initial.src(e), initial.dst(e));
    LiveEdge& live = live_[key];
    live.weight += static_cast<double>(initial.weight(e));
    live.count += 1;
    if (adjacency_) {
      // Same loop, same accumulation order: the mirror's merged weights
      // stay bit-identical to the multiset's.
      adjacency_->apply(detail::key_u(key), detail::key_v(key),
                        static_cast<double>(initial.weight(e)), 1);
    }
  }
  live_count_ = initial.num_edges();

  core::Options seed = options_;
  seed.backend = core::Backend::kPartitioned;
  auto result = core::embed_edges(initial, labels_, seed);
  auto z = std::make_unique<core::Embedding>(std::move(result.z));
  published_ = std::shared_ptr<core::Embedding>(
      z.release(), [pool = pool_](core::Embedding* p) { pool->put(p, 0); });
}

void DynamicGee::init(std::span<const std::int32_t> labels) {
  if (options_.laplacian || options_.diag_augment || options_.correlation) {
    throw std::invalid_argument(
        "DynamicGee: laplacian/diag_augment/correlation are nonlinear in "
        "the edge multiset and cannot be maintained incrementally; apply "
        "them to a snapshot instead");
  }
  labels_.assign(labels.begin(), labels.end());
  projection_ = core::build_projection(labels_, options_.num_classes);
  if (projection_.num_classes == 0) {
    throw std::invalid_argument(
        "DynamicGee: no labeled vertices and no K given");
  }
  n_ = static_cast<graph::VertexId>(labels_.size());
  k_ = projection_.num_classes;
  pool_ = std::make_shared<BufferPool>();
  if (options_.stream_update_strategy == core::UpdateStrategy::kKHop ||
      options_.stream_update_strategy == core::UpdateStrategy::kAuto) {
    adjacency_ = std::make_unique<DynamicAdjacency>(n_);
  }
}

DynamicGee::ApplyReport DynamicGee::apply(const UpdateBatch& batch) {
  GEE_TRACE_SPAN("gee.stream.apply");
  StreamMetrics& metrics = StreamMetrics::get();
  gee::util::Timer apply_timer;

  gee::obs::TraceSpan coalesce_span("gee.stream.coalesce");
  batch.validate(n_);
  auto deltas = batch.coalesce();
  coalesce_span.end();

  ApplyReport report;
  report.raw_ops = batch.size();
  report.deltas = deltas.size();
  if (deltas.empty()) {
    // Pure churn (or an empty batch): every operation cancelled inside the
    // batch, so nothing reaches Z, the multiset, or the drift counter, and
    // no new epoch is published.
    report.epoch = epoch();
    return report;
  }

  // Validate removals against the live multiset BEFORE mutating anything:
  // a throwing apply leaves both Z and the multiset untouched.
  for (const auto& d : deltas) {
    if (d.count >= 0) continue;
    const auto it = live_.find(pair_key(d.u, d.v));
    const std::int64_t have = it == live_.end() ? 0 : it->second.count;
    if (have + d.count < 0) {
      throw std::invalid_argument(
          "DynamicGee::apply: batch removes more copies of an edge than "
          "the live graph holds");
    }
  }

  std::int64_t net_count = 0;
  std::uint64_t net_removed = 0;
  for (const auto& d : deltas) {
    const std::uint64_t key = pair_key(d.u, d.v);
    LiveEdge& live = live_[key];
    live.weight += static_cast<double>(d.weight);
    live.count += d.count;
    net_count += d.count;
    // Drift counts only removals that reach Z; churn cancelled by
    // coalescing leaves no floating-point residue.
    if (d.count < 0) net_removed += static_cast<std::uint64_t>(-d.count);
    if (live.count == 0) live_.erase(key);
    // Mirror into the per-vertex adjacency (k-hop strategies only), in the
    // same order so merged weights stay bit-identical to the multiset's.
    if (adjacency_) {
      adjacency_->apply(d.u, d.v, static_cast<double>(d.weight), d.count);
    }
  }
  live_count_ =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(live_count_) +
                                 net_count);

  // One scope for everything parallel in this apply -- snapshot-buffer
  // copies, promotion replays, plan building, and the delta pass / subset
  // re-embed -- so Options::num_threads bounds the writer's footprint
  // exactly as it does for embed() (a pinned writer must not burst-steal
  // reader cores).
  gee::par::ThreadScope threads(options_.num_threads);
  auto work = acquire_writable();

  const core::UpdateStrategy requested = options_.stream_update_strategy;
  LogEntry entry;
  bool khop_ran = false;
  if (requested == core::UpdateStrategy::kKHop ||
      requested == core::UpdateStrategy::kAuto) {
    GEE_TRACE_SPAN("gee.stream.apply_khop");
    khop_ran = apply_khop(*work, deltas,
                          requested == core::UpdateStrategy::kAuto, &entry,
                          &report);
  }
  if (khop_ran) {
    report.strategy = core::UpdateStrategy::kKHop;
    // The endpoint rows were recomputed from the exact adjacency: any
    // removal residue in them was just erased, so this batch contributes
    // nothing to drift.
  } else {
    GEE_TRACE_SPAN("gee.stream.apply_deltas");
    report.parallel = apply_deltas(*work, deltas);
    report.strategy = core::UpdateStrategy::kDelta;
    entry.deltas = std::move(deltas);
    stats_.removed_since_rebuild += net_removed;
  }
  {
    GEE_TRACE_SPAN("gee.stream.publish");
    publish(std::move(work), std::move(entry));
  }

  ++stats_.batches;
  if (khop_ran) {
    ++stats_.khop_batches;
    stats_.khop_rows += report.khop_rows;
  } else {
    ++(report.parallel ? stats_.parallel_batches : stats_.serial_batches);
  }
  stats_.deltas_applied += report.deltas;

  // The drift decision itself is part of the apply's observable behavior:
  // the gauges let a dashboard see a rebuild coming before it fires.
  if (drift_exceeded()) {
    rebuild();
    report.rebuilt = true;
  }
  report.epoch = epoch();

  metrics.batches.add();
  metrics.deltas.add(static_cast<std::int64_t>(report.deltas));
  metrics.raw_ops.add(static_cast<std::int64_t>(report.raw_ops));
  if (report.parallel) metrics.parallel_batches.add();
  if (khop_ran) {
    metrics.khop_batches.add();
    metrics.khop_frontier.record(static_cast<double>(report.khop_rows));
  }
  metrics.batch_deltas.record(static_cast<double>(report.deltas));
  metrics.apply_seconds.record(apply_timer.seconds());
  metrics.live_edges.set(static_cast<double>(live_count_));
  metrics.removed_since_rebuild.set(
      static_cast<double>(stats_.removed_since_rebuild));
  return report;
}

bool DynamicGee::apply_deltas(core::Embedding& z,
                              const std::vector<UpdateBatch::Delta>& deltas) {
  if (deltas.empty()) return false;
  const bool parallel =
      options_.stream_parallel_threshold <= 0 ||
      static_cast<std::int64_t>(deltas.size()) >=
          options_.stream_parallel_threshold;

  if (!parallel) {
    // Serial path: Algorithm 1's two O(K) row updates per signed delta
    // (w < 0 removes mass) -- row u, then row v -- with plain adds
    // (single writer by contract).
    const auto add = [](Real& cell, Real delta) { cell += delta; };
    for (const auto& d : deltas) {
      const auto w = static_cast<Real>(d.weight);
      core::accumulate_neighbor_mass(labels_.data(),
                                     projection_.vertex_weight.data(),
                                     z.row(d.u).data(), d.v, w, add);
      core::accumulate_neighbor_mass(labels_.data(),
                                     projection_.vertex_weight.data(),
                                     z.row(d.v).data(), d.u, w, add);
    }
    return false;
  }

  // Partitioned path: bucket the batch's row updates into owned blocks and
  // let each worker apply its rows with plain adds -- zero atomics, and
  // bitwise equal to the serial loop above for any block count (stable
  // bucketing preserves the sorted-delta order per cell).
  graph::EdgeList delta_edges(n_);
  delta_edges.reserve(deltas.size());
  for (const auto& d : deltas) delta_edges.add(d.u, d.v, d.weight);
  const auto plan = partition::build_delta_plan(
      delta_edges, partition::resolve_num_blocks(options_.partition_blocks));

  gee::par::parallel_for_dynamic(
      0, plan.num_blocks,
      [&](int p) {
        const auto block = plan.block(p);
        for (std::size_t i = 0; i < block.rows.size(); ++i) {
          const VertexId other = block.others[i];
          const std::int32_t y = labels_[other];
          if (y < 0) continue;
          z.at(block.rows[i], y) += projection_.vertex_weight[other] *
                                    static_cast<Real>(block.weights[i]);
        }
      },
      /*chunk=*/1);
  return true;
}

bool DynamicGee::apply_khop(core::Embedding& z,
                            const std::vector<UpdateBatch::Delta>& deltas,
                            bool auto_mode, LogEntry* entry,
                            ApplyReport* report) {
  // Member cap for kAuto: fall back to deltas past the ratio.
  graph::VertexId cap = 0;
  if (auto_mode) {
    if (options_.stream_khop_auto_ratio <= 0) return false;
    cap = static_cast<graph::VertexId>(options_.stream_khop_auto_ratio *
                                       static_cast<double>(n_));
    if (cap == 0) return false;
  }

  // Endpoints of the net-changed pairs, ascending and deduplicated. W is
  // indexed by labels alone, so these are exactly the rows the batch
  // changes (Z is linear per edge).
  std::vector<graph::VertexId> rows;
  rows.reserve(deltas.size() * 2);
  for (const auto& d : deltas) {
    rows.push_back(d.u);
    if (d.v != d.u) rows.push_back(d.v);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  if (auto_mode && static_cast<graph::VertexId>(rows.size()) > cap) {
    return false;  // the batch is not localized
  }

  core::reembed_rows(projection_, labels_, rows, *adjacency_, &z);

  // Row patch for pooled-buffer promotion. An explicit-kKHop batch can
  // touch arbitrarily many endpoints; past a quarter of the rows,
  // replaying patches stops beating the full copy they exist to avoid, so
  // leave the entry non-replayable (publish clears the log).
  if (rows.size() * 4 <= static_cast<std::size_t>(n_)) {
    const auto k = static_cast<std::size_t>(k_);
    entry->patch_rows.assign(rows.begin(), rows.end());
    entry->patch_values.resize(rows.size() * k);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto row = z.row(rows[i]);
      std::copy(row.begin(), row.end(), entry->patch_values.begin() + i * k);
    }
  }
  report->khop_rows = rows.size();
  return true;
}

std::unique_ptr<core::Embedding> DynamicGee::acquire_writable() {
  // Writer thread only; it is the sole epoch_ writer, so relaxed loads
  // here always see its own latest store.
  const std::uint64_t at_epoch = epoch_.load(std::memory_order_relaxed);
  auto [buffer, buffer_epoch] = pool_->try_get();
  if (buffer != nullptr && buffer_epoch <= at_epoch) {
    const bool replayable =
        buffer_epoch == at_epoch ||
        (!log_.empty() && log_.front().epoch <= buffer_epoch + 1 &&
         log_.back().epoch == at_epoch);
    if (replayable) {
      GEE_TRACE_SPAN("gee.stream.promote_buffer");
      for (const auto& e : log_) {
        if (e.epoch <= buffer_epoch) continue;
        if (!e.deltas.empty()) {
          apply_deltas(*buffer, e.deltas);
        } else {
          // k-hop row patch: copy the epoch's recomputed rows verbatim,
          // reproducing the published bytes exactly.
          const auto k = static_cast<std::size_t>(k_);
          for (std::size_t i = 0; i < e.patch_rows.size(); ++i) {
            std::copy_n(e.patch_values.data() + i * k, k,
                        buffer->row(e.patch_rows[i]).data());
          }
        }
      }
      ++stats_.buffer_promotions;
      StreamMetrics::get().buffer_promotions.add();
      return std::move(buffer);
    }
  }
  if (buffer == nullptr) {
    buffer = std::make_unique<core::Embedding>(n_, k_);
  }
  // Too stale to replay (or fresh): full copy of the published state.
  // Published buffers are never written, so this read needs no lock.
  GEE_TRACE_SPAN("gee.stream.copy_buffer");
  const Snapshot current = snapshot();
  const Real* src = current.z->data();
  Real* dst = buffer->data();
  gee::par::parallel_for(
      std::size_t{0}, buffer->size(),
      [&](std::size_t i) { dst[i] = src[i]; }, /*grain=*/1 << 16);
  ++stats_.buffer_copies;
  StreamMetrics::get().buffer_copies.add();
  return std::move(buffer);
}

void DynamicGee::publish(std::unique_ptr<core::Embedding> z, LogEntry entry) {
  const std::uint64_t next_epoch = epoch_.load(std::memory_order_relaxed) + 1;
  std::shared_ptr<core::Embedding> next(
      z.release(), [pool = pool_, next_epoch](core::Embedding* p) {
        pool->put(p, next_epoch);
      });
  std::shared_ptr<core::Embedding> retired;
  {
    std::lock_guard<std::mutex> lock(publish_mutex_);
    retired = std::exchange(published_, std::move(next));
    // Release store: a lock-free epoch() observer that sees next_epoch is
    // ordered after the buffer's contents were fully written.
    epoch_.store(next_epoch, std::memory_order_release);
  }
  // `retired` drops here, outside the lock: if no reader still holds it,
  // its deleter returns the buffer to the pool on this thread.
  if (!entry.replayable()) {
    // Rebuilds and oversized k-hop subsets; pooled buffers full-copy.
    log_.clear();
  } else {
    entry.epoch = next_epoch;
    log_.push_back(std::move(entry));
    while (log_.size() > kMaxDeltaLog) log_.pop_front();
  }
}

Snapshot DynamicGee::snapshot() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  return Snapshot{published_, epoch_.load(std::memory_order_relaxed)};
}

std::uint64_t DynamicGee::epoch() const noexcept {
  return epoch_.load(std::memory_order_acquire);
}

std::uint64_t DynamicGee::staleness(const Snapshot& snap) const noexcept {
  const std::uint64_t current = epoch();
  return current > snap.epoch ? current - snap.epoch : 0;
}

DynamicGee::RefreshResult DynamicGee::refresh(
    const Snapshot& snap, std::uint64_t max_staleness) const {
  RefreshResult result;
  result.staleness = staleness(snap);
  if (result.staleness > max_staleness) result.fresh = snapshot();
  return result;
}

bool DynamicGee::drift_exceeded() const noexcept {
  if (options_.stream_rebuild_drift <= 0) return false;
  const auto live = static_cast<double>(std::max<std::uint64_t>(
      1, live_count_));
  return static_cast<double>(stats_.removed_since_rebuild) >
         options_.stream_rebuild_drift * live;
}

void DynamicGee::rebuild() {
  GEE_TRACE_SPAN("gee.stream.rebuild");
  StreamMetrics::get().rebuilds.add();
  // Deterministic edge list from the live multiset (parallel edges are
  // pre-merged per pair -- Z is linear in the edge multiset, so the merged
  // weight yields the same embedding as the individual copies).
  std::vector<std::pair<std::uint64_t, LiveEdge>> live(live_.begin(),
                                                       live_.end());
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  graph::EdgeList edges(n_);
  edges.reserve(live.size());
  for (const auto& [key, e] : live) {
    edges.add(detail::key_u(key), detail::key_v(key),
              static_cast<Weight>(e.weight));
  }

  core::Options opts = options_;
  opts.backend = core::Backend::kPartitioned;
  auto result = core::embed_edges(edges, labels_, opts);
  publish(std::make_unique<core::Embedding>(std::move(result.z)), {});
  ++stats_.rebuilds;
  stats_.removed_since_rebuild = 0;
}

}  // namespace gee::stream
