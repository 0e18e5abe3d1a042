// QueryEngine: the read-side serving subsystem over DynamicGee's epoch
// snapshots.
//
// The streaming engine (src/stream/) publishes immutable epochs; this
// engine turns them into a query path (the ROADMAP's serve-heavy-traffic
// leg): out-of-sample queries are answered by synthesizing one Z row on
// the fly from the query's edge list (gee/oos.hpp -- no graph mutation,
// no contact with the writer), in-sample queries by reading the pinned
// snapshot's row. Freshness is explicit: every reply names the epoch that
// answered it and how stale that epoch was at pin time.
//
// Snapshot pinning: the engine holds one pinned snapshot shared by all
// reader threads (a shared_ptr behind a mutex the engine owns, so "pin"
// costs one uncontended lock, never the writer's publication mutex). Each
// query batch revalidates the pin with DynamicGee's lock-free epoch
// counter and re-snapshots only when staleness exceeds
// Options::serve_max_staleness -- so with a nonzero bound, steady-state
// queries never contend with the writer at all. Concurrent refreshes race
// benignly: the install compares epochs under the lock and keeps only
// monotonically newer ones, so the pin (and therefore the epoch a single
// reader observes) never moves backwards.
//
// Batching: query_batch answers a span of queries against ONE pinned
// snapshot (replies are mutually consistent) and fans the synthesis across
// the parallel_for wrappers. Per-reply work is independent and identical
// either way, so serial and parallel fan-out produce byte-identical
// replies (asserted by serve_test across 24 random seeds).
//
// Threading contract: any number of threads may call the query/lookup/pin
// methods concurrently with each other and with the source's single
// writer thread. The source DynamicGee must outlive the engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "gee/options.hpp"
#include "graph/types.hpp"
#include "serve/request.hpp"
#include "stream/dynamic_gee.hpp"
#include "stream/snapshot.hpp"

namespace gee::serve {

class QueryEngine {
 public:
  /// Serve from `source`. Consulted options: serve_max_staleness (pin
  /// refresh bound) and num_threads (batch fan-out width). The engine pins
  /// the source's current epoch immediately.
  explicit QueryEngine(const stream::DynamicGee& source,
                       core::Options options = {});

  /// Answer one out-of-sample query (a batch of one: pins, synthesizes the
  /// row, predicts). Throws std::out_of_range for neighbor ids outside the
  /// source's vertex set.
  [[nodiscard]] QueryReply query(const VertexQuery& q) const;

  /// Answer a span of out-of-sample queries against one pinned snapshot,
  /// fanned across threads (serial below the fan-out grain; byte-identical
  /// either way). Validates every query before answering any: a throwing
  /// call answers nothing.
  [[nodiscard]] std::vector<QueryReply> query_batch(
      std::span<const VertexQuery> queries) const;

  /// In-sample lookup: vertex v's row in the pinned snapshot.
  /// Throws std::out_of_range for v outside the vertex set.
  [[nodiscard]] QueryReply lookup(graph::VertexId v) const;

  /// Batched in-sample lookups against one pinned snapshot.
  [[nodiscard]] std::vector<QueryReply> lookup_batch(
      std::span<const graph::VertexId> vertices) const;

  /// The k vertices in [lo, hi) whose pinned-snapshot row carries the
  /// largest strictly-positive mass in class column `cls`, ranked by
  /// serve::ranks_before; zero/negative-mass vertices are omitted (the
  /// abstention contract), so fewer than k entries may return. k <= 0
  /// returns every positive-mass vertex in the range. The range parameter
  /// exists for the sharded tier: a shard scans exactly the rows it owns
  /// and the router merges (src/shard/router.hpp). Throws
  /// std::out_of_range for cls outside [0, num_classes()) or a range not
  /// within [0, num_vertices()].
  [[nodiscard]] std::vector<VertexScore> top_k_vertices(
      std::int32_t cls, int k, graph::VertexId lo, graph::VertexId hi) const;

  /// Full-range overload: the unsharded baseline of the scan.
  [[nodiscard]] std::vector<VertexScore> top_k_vertices(std::int32_t cls,
                                                        int k) const {
    return top_k_vertices(cls, k, 0, num_vertices());
  }

  /// The snapshot queries would be answered from right now, refreshing the
  /// pin first if it exceeds the staleness bound. Exposed so callers can
  /// run richer read-side work (classification sweeps, clustering) against
  /// the same consistent epoch the engine serves.
  [[nodiscard]] stream::Snapshot pin() const;

  [[nodiscard]] int num_classes() const noexcept {
    return source_->projection().num_classes;
  }
  [[nodiscard]] graph::VertexId num_vertices() const noexcept {
    return source_->num_vertices();
  }

  /// Read-side counters (callable from any thread; values are snapshots of
  /// relaxed atomics, so cross-counter sums may transiently disagree).
  struct Stats {
    std::uint64_t queries = 0;   ///< replies produced (all query kinds)
    std::uint64_t batches = 0;   ///< query_batch/lookup_batch calls
    std::uint64_t refreshes = 0; ///< pin replacements forced by staleness
  };
  [[nodiscard]] Stats stats() const noexcept;

 private:
  /// Immutable once published; shared by all reader threads.
  struct Pinned {
    stream::Snapshot snap;
  };
  /// A revalidated pin plus its staleness as measured by the SAME epoch
  /// load that passed (or forced) the bound check -- the one value that
  /// honors request.hpp's "bounded at pin time" contract (a second load
  /// could observe later publishes and exceed the bound).
  struct Pin {
    std::shared_ptr<const Pinned> pinned;
    std::uint64_t staleness = 0;
  };

  [[nodiscard]] Pin pin_internal() const;
  void answer_oos(const stream::Snapshot& snap, std::uint64_t staleness,
                  const VertexQuery& q, QueryReply& reply) const;
  void answer_lookup(const stream::Snapshot& snap, std::uint64_t staleness,
                     graph::VertexId v, QueryReply& reply) const;

  const stream::DynamicGee* source_;
  core::Options options_;
  mutable std::mutex pin_mutex_;  // guards pinned_
  mutable std::shared_ptr<const Pinned> pinned_;
  mutable std::atomic<std::uint64_t> queries_{0};
  mutable std::atomic<std::uint64_t> batches_{0};
  mutable std::atomic<std::uint64_t> refreshes_{0};
};

}  // namespace gee::serve
