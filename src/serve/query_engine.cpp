#include "serve/query_engine.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

#include "gee/embedding.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "simd/simd.hpp"
#include "util/timer.hpp"

namespace gee::serve {

using graph::VertexId;

namespace {

/// Read-path metrics (DESIGN.md section 8, gee.serve.*). Process-global:
/// every QueryEngine feeds the same series, matching the engine-agnostic
/// gee.serve.* naming. Shards keep concurrent readers off each other's
/// cache lines; handles resolved once.
struct ServeMetrics {
  obs::Counter& queries = obs::counter("gee.serve.queries");
  obs::Counter& batches = obs::counter("gee.serve.batches");
  obs::Counter& refreshes = obs::counter("gee.serve.refreshes");
  obs::Counter& scans = obs::counter("gee.serve.scans");
  obs::Histogram& query_seconds = obs::histogram("gee.serve.query_seconds");
  obs::Histogram& batch_seconds = obs::histogram("gee.serve.batch_seconds");
  obs::Histogram& scan_seconds = obs::histogram("gee.serve.scan_seconds");
  obs::Histogram& staleness = obs::histogram("gee.serve.staleness");

  static ServeMetrics& get() {
    static ServeMetrics m;
    return m;
  }
};

}  // namespace

std::vector<ClassScore> top_k_classes(std::span<const Real> row, int k) {
  std::vector<ClassScore> scores;
  for (std::size_t c = 0; c < row.size(); ++c) {
    if (row[c] > 0) {
      scores.push_back({static_cast<std::int32_t>(c), row[c]});
    }
  }
  // Stable on the class-ascending input: ties keep the smaller class id.
  std::stable_sort(scores.begin(), scores.end(),
                   [](const ClassScore& a, const ClassScore& b) {
                     return a.score > b.score;
                   });
  if (k > 0 && scores.size() > static_cast<std::size_t>(k)) {
    scores.resize(static_cast<std::size_t>(k));
  }
  return scores;
}

QueryEngine::QueryEngine(const stream::DynamicGee& source,
                         core::Options options)
    : source_(&source),
      options_(options),
      pinned_(std::make_shared<const Pinned>(Pinned{source.snapshot()})) {}

QueryEngine::Pin QueryEngine::pin_internal() const {
  std::shared_ptr<const Pinned> cur;
  {
    std::lock_guard<std::mutex> lock(pin_mutex_);
    cur = pinned_;
  }
  const std::uint64_t bound =
      options_.serve_max_staleness < 0
          ? std::numeric_limits<std::uint64_t>::max()
          : static_cast<std::uint64_t>(options_.serve_max_staleness);
  auto refreshed = source_->refresh(cur->snap, bound);
  if (!refreshed.fresh) {  // lock-free fast path: pin still within bound
    return {std::move(cur), refreshed.staleness};
  }

  // The fresh snapshot's staleness at pin time is 0 by construction
  // (snapshot() returns the current epoch), and a competing refresh we
  // adopt below is at least as new.
  auto fresh = std::make_shared<const Pinned>(
      Pinned{*std::move(refreshed.fresh)});
  // Install only monotonically newer epochs: concurrent refreshes race,
  // and without the epoch guard a slower thread could overwrite a fresher
  // pin, moving the epoch a later reader observes backwards. The replaced
  // pin is released after the lock: dropping the last reference returns
  // its buffer to the writer's pool.
  std::shared_ptr<const Pinned> replaced;
  {
    std::lock_guard<std::mutex> lock(pin_mutex_);
    if (pinned_->snap.epoch >= fresh->snap.epoch) return {pinned_, 0};
    replaced = std::exchange(pinned_, fresh);
  }
  refreshes_.fetch_add(1, std::memory_order_relaxed);
  ServeMetrics::get().refreshes.add();
  return {std::move(fresh), 0};
}

stream::Snapshot QueryEngine::pin() const { return pin_internal().pinned->snap; }

void QueryEngine::answer_oos(const stream::Snapshot& snap,
                             std::uint64_t staleness, const VertexQuery& q,
                             QueryReply& reply) const {
  reply.row.resize(static_cast<std::size_t>(num_classes()));
  simd::zero(reply.row.data(), reply.row.size());
  core::embed_one_vertex(source_->projection(), source_->labels(),
                         q.neighbors, reply.row);
  reply.predicted = core::argmax_class(reply.row);
  reply.epoch = snap.epoch;
  reply.staleness = staleness;
}

void QueryEngine::answer_lookup(const stream::Snapshot& snap,
                                std::uint64_t staleness, VertexId v,
                                QueryReply& reply) const {
  const auto row = snap->row(v);
  reply.row.assign(row.begin(), row.end());
  reply.predicted = core::argmax_class(reply.row);
  reply.epoch = snap.epoch;
  reply.staleness = staleness;
}

QueryReply QueryEngine::query(const VertexQuery& q) const {
  GEE_TRACE_SPAN("gee.serve.query");
  ServeMetrics& metrics = ServeMetrics::get();
  gee::util::Timer timer;
  const auto pin = pin_internal();
  QueryReply reply;
  answer_oos(pin.pinned->snap, pin.staleness, q, reply);
  queries_.fetch_add(1, std::memory_order_relaxed);
  metrics.queries.add();
  metrics.staleness.record(static_cast<double>(pin.staleness));
  metrics.query_seconds.record(timer.seconds());
  return reply;
}

std::vector<QueryReply> QueryEngine::query_batch(
    std::span<const VertexQuery> queries) const {
  // Validate everything up front: a throw from inside the parallel region
  // could not propagate, and a partially answered batch helps nobody.
  const VertexId n = num_vertices();
  for (const auto& q : queries) {
    for (const auto& [v, w] : q.neighbors) {
      if (v >= n) {
        throw std::out_of_range("query_batch: neighbor out of range");
      }
    }
  }

  GEE_TRACE_SPAN("gee.serve.query_batch");
  ServeMetrics& metrics = ServeMetrics::get();
  gee::util::Timer timer;
  const auto pin = pin_internal();
  std::vector<QueryReply> replies(queries.size());
  gee::par::ThreadScope threads(options_.num_threads);
  gee::par::parallel_for_dynamic(
      std::size_t{0}, queries.size(),
      [&](std::size_t i) {
        answer_oos(pin.pinned->snap, pin.staleness, queries[i], replies[i]);
      },
      /*chunk=*/4);
  batches_.fetch_add(1, std::memory_order_relaxed);
  queries_.fetch_add(queries.size(), std::memory_order_relaxed);
  metrics.batches.add();
  metrics.queries.add(static_cast<std::int64_t>(queries.size()));
  // Every reply in the batch shares the pin's staleness: one shard update.
  metrics.staleness.record_n(static_cast<double>(pin.staleness),
                             queries.size());
  metrics.batch_seconds.record(timer.seconds());
  return replies;
}

QueryReply QueryEngine::lookup(VertexId v) const {
  GEE_TRACE_SPAN("gee.serve.lookup");
  if (v >= num_vertices()) {
    throw std::out_of_range("lookup: vertex out of range");
  }
  ServeMetrics& metrics = ServeMetrics::get();
  gee::util::Timer timer;
  const auto pin = pin_internal();
  QueryReply reply;
  answer_lookup(pin.pinned->snap, pin.staleness, v, reply);
  queries_.fetch_add(1, std::memory_order_relaxed);
  metrics.queries.add();
  metrics.staleness.record(static_cast<double>(pin.staleness));
  metrics.query_seconds.record(timer.seconds());
  return reply;
}

std::vector<QueryReply> QueryEngine::lookup_batch(
    std::span<const VertexId> vertices) const {
  const VertexId n = num_vertices();
  for (const VertexId v : vertices) {
    if (v >= n) {
      throw std::out_of_range("lookup_batch: vertex out of range");
    }
  }

  GEE_TRACE_SPAN("gee.serve.lookup_batch");
  ServeMetrics& metrics = ServeMetrics::get();
  gee::util::Timer timer;
  const auto pin = pin_internal();
  std::vector<QueryReply> replies(vertices.size());
  gee::par::ThreadScope threads(options_.num_threads);
  gee::par::parallel_for_dynamic(
      std::size_t{0}, vertices.size(),
      [&](std::size_t i) {
        answer_lookup(pin.pinned->snap, pin.staleness, vertices[i], replies[i]);
      },
      /*chunk=*/16);
  batches_.fetch_add(1, std::memory_order_relaxed);
  queries_.fetch_add(vertices.size(), std::memory_order_relaxed);
  metrics.batches.add();
  metrics.queries.add(static_cast<std::int64_t>(vertices.size()));
  metrics.staleness.record_n(static_cast<double>(pin.staleness),
                             vertices.size());
  metrics.batch_seconds.record(timer.seconds());
  return replies;
}

std::vector<VertexScore> QueryEngine::top_k_vertices(std::int32_t cls, int k,
                                                     VertexId lo,
                                                     VertexId hi) const {
  if (cls < 0 || cls >= num_classes()) {
    throw std::out_of_range("top_k_vertices: class out of range");
  }
  if (lo > hi || hi > num_vertices()) {
    throw std::out_of_range("top_k_vertices: vertex range out of range");
  }

  GEE_TRACE_SPAN("gee.serve.top_k_vertices");
  ServeMetrics& metrics = ServeMetrics::get();
  gee::util::Timer timer;
  const auto pin = pin_internal();
  const auto& z = *pin.pinned->snap;
  const auto col = static_cast<std::size_t>(cls);

  // Bounded selection: a k-sized heap whose top is the WORST-ranked
  // member (ranks_before as the comparator makes priority_queue surface
  // it), so the scan is O(range log k) and allocates k entries, never the
  // range. ranks_before is a strict total order over distinct vertices,
  // so the result is deterministic for any scan order -- here ascending v.
  std::priority_queue<VertexScore, std::vector<VertexScore>,
                      bool (*)(const VertexScore&, const VertexScore&)>
      heap(&ranks_before);
  for (VertexId v = lo; v < hi; ++v) {
    const Real score = z.row(v)[col];
    if (!(score > 0)) continue;  // abstention: no positive mass, no rank
    if (k <= 0 || heap.size() < static_cast<std::size_t>(k)) {
      heap.push({v, score});
    } else if (ranks_before({v, score}, heap.top())) {
      heap.pop();
      heap.push({v, score});
    }
  }

  std::vector<VertexScore> ranked(heap.size());
  for (std::size_t i = ranked.size(); i-- > 0;) {
    ranked[i] = heap.top();
    heap.pop();
  }
  metrics.scans.add();
  metrics.staleness.record(static_cast<double>(pin.staleness));
  metrics.scan_seconds.record(timer.seconds());
  return ranked;
}

QueryEngine::Stats QueryEngine::stats() const noexcept {
  return Stats{queries_.load(std::memory_order_relaxed),
               batches_.load(std::memory_order_relaxed),
               refreshes_.load(std::memory_order_relaxed)};
}

}  // namespace gee::serve
