// Tests for the streaming dynamic-graph subsystem (src/stream/):
// UpdateBatch coalescing, DynamicGee batch application (serial and
// partitioned paths), epoch snapshots under a concurrent writer, and the
// drift-rebuild contract. The replay tests are the PR's acceptance
// criterion: any generated graph, replayed in B batches, must land within
// 1e-5 max-abs of the one-shot batch embedding.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "gee/gee.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/labels.hpp"
#include "gen/rmat.hpp"
#include "gen/sbm.hpp"
#include "graph/edge_list.hpp"
#include "stream/dynamic_gee.hpp"
#include "stream/update_batch.hpp"
#include "testing/random_graphs.hpp"
#include "util/rng.hpp"

namespace {

using namespace gee;
using core::Backend;
using core::Embedding;
using core::Options;
using graph::EdgeId;
using graph::EdgeList;
using graph::VertexId;
using graph::Weight;
using stream::DynamicGee;
using stream::UpdateBatch;
using testutil::with_random_weights;

/// Stream `el` into a fresh DynamicGee in `num_batches` contiguous slices.
/// (Heap-allocated: DynamicGee owns a mutex and does not move.)
std::unique_ptr<DynamicGee> replay(const EdgeList& el,
                                   std::span<const std::int32_t> labels,
                                   int num_batches, const Options& options) {
  auto dg = std::make_unique<DynamicGee>(labels, options);
  const EdgeId m = el.num_edges();
  for (int b = 0; b < num_batches; ++b) {
    const EdgeId lo = m * static_cast<EdgeId>(b) / num_batches;
    const EdgeId hi = m * static_cast<EdgeId>(b + 1) / num_batches;
    UpdateBatch batch;
    for (EdgeId e = lo; e < hi; ++e) {
      batch.add(el.src(e), el.dst(e), el.weight(e));
    }
    dg->apply(batch);
  }
  return dg;
}

// ------------------------------------------------------------ UpdateBatch

TEST(UpdateBatch, CoalescesToNetDeltas) {
  UpdateBatch batch;
  batch.add(3, 1, 2.0f);     // canonicalizes to (1, 3)
  batch.add(1, 3, 1.0f);     // merges with the previous entry
  batch.remove(1, 3, 0.5f);
  batch.add(0, 2);
  batch.remove(0, 2);        // exact churn: nets to nothing
  batch.add(4, 4, 1.5f);     // self-loop survives canonicalization

  EXPECT_EQ(batch.size(), 6u);
  EXPECT_EQ(batch.num_adds(), 4u);
  EXPECT_EQ(batch.num_removes(), 2u);
  EXPECT_EQ(batch.max_vertex(), 4u);

  const auto deltas = batch.coalesce();
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0].u, 1u);
  EXPECT_EQ(deltas[0].v, 3u);
  EXPECT_FLOAT_EQ(deltas[0].weight, 2.5f);
  EXPECT_EQ(deltas[0].count, 1);
  EXPECT_EQ(deltas[1].u, 4u);
  EXPECT_EQ(deltas[1].v, 4u);
  EXPECT_FLOAT_EQ(deltas[1].weight, 1.5f);
  EXPECT_EQ(deltas[1].count, 1);
}

TEST(UpdateBatch, Validation) {
  UpdateBatch batch;
  EXPECT_THROW(batch.add(0, 1, 0.0f), std::invalid_argument);
  EXPECT_THROW(batch.add(0, 1, -1.0f), std::invalid_argument);
  EXPECT_THROW(batch.remove(0, 1, 0.0f), std::invalid_argument);
  batch.add(0, 9);
  EXPECT_THROW(batch.validate(9), std::out_of_range);
  EXPECT_NO_THROW(batch.validate(10));
}

// -------------------------------------------------- acceptance: replay

/// The shared differential matrix (tests/testing/random_graphs.hpp) at its
/// default streaming-replay sizes.
std::vector<testutil::RandomGraph> replay_cases() {
  return testutil::random_graph_matrix(7);
}

TEST(DynamicGee, ReplayMatchesOneShotBatch) {
  for (auto& c : replay_cases()) {
    const auto reference =
        core::embed_edges(c.edges, c.labels, {.backend =
                                              Backend::kCompiledSerial});
    for (const int num_batches : {1, 7, 64}) {
      // Default options: small slices take the serial incremental path.
      // Threshold 0 forces every batch through the partitioned path.
      for (const std::int64_t threshold : {std::int64_t{1} << 40,
                                           std::int64_t{0}}) {
        Options options;
        options.stream_parallel_threshold = threshold;
        const auto dg = replay(c.edges, c.labels, num_batches, options);
        const auto snap = dg->snapshot();
        EXPECT_LT(core::max_abs_diff(*snap.z, reference.z), 1e-5)
            << c.name << " B=" << num_batches << " threshold=" << threshold;
        EXPECT_EQ(snap.epoch, dg->epoch());
      }
    }
  }
}

TEST(DynamicGee, SerialAndPartitionedPathsBitwiseEqual) {
  const auto er = gen::erdos_renyi_gnm(200, 4000, 37);
  const auto labels = gen::semi_supervised_labels(200, 5, 0.5, 41);
  Options serial_options;
  serial_options.stream_parallel_threshold = std::int64_t{1} << 40;
  Options partitioned_options;
  partitioned_options.stream_parallel_threshold = 0;
  partitioned_options.partition_blocks = 5;  // > 1 block even on 1 thread

  const auto a = replay(er, labels, 9, serial_options);
  const auto b = replay(er, labels, 9, partitioned_options);
  EXPECT_EQ(core::max_abs_diff(*a->snapshot().z, *b->snapshot().z), 0.0);
}

TEST(DynamicGee, SeededFromInitialEdgeList) {
  const auto el = with_random_weights(gen::erdos_renyi_gnm(150, 2000, 43), 47);
  const auto labels = gen::semi_supervised_labels(150, 4, 0.4, 53);

  // Seed with the first half, stream the second half.
  EdgeList head(150), tail(150);
  for (EdgeId e = 0; e < el.num_edges(); ++e) {
    (e < el.num_edges() / 2 ? head : tail)
        .add(el.src(e), el.dst(e), el.weight(e));
  }
  DynamicGee dg(head, labels);
  EXPECT_EQ(dg.num_live_edges(), head.num_edges());
  UpdateBatch batch;
  for (EdgeId e = 0; e < tail.num_edges(); ++e) {
    batch.add(tail.src(e), tail.dst(e), tail.weight(e));
  }
  dg.apply(batch);

  const auto reference =
      core::embed_edges(el, labels, {.backend = Backend::kCompiledSerial});
  EXPECT_LT(core::max_abs_diff(*dg.snapshot().z, reference.z), 1e-5);
  EXPECT_EQ(dg.num_live_edges(), el.num_edges());
}

// ------------------------------------------------- removals and rebuilds

TEST(DynamicGee, RemovalsTrackBatchOverRemainder) {
  const auto el = with_random_weights(gen::erdos_renyi_gnm(120, 1500, 59), 61);
  const auto labels = gen::semi_supervised_labels(120, 4, 0.5, 67);

  Options options;
  options.stream_rebuild_drift = 0;  // isolate pure incremental removal
  DynamicGee dg(el, labels, options);

  EdgeList remaining(120);
  UpdateBatch removals;
  for (EdgeId e = 0; e < el.num_edges(); ++e) {
    if (e % 4 == 0) {
      removals.remove(el.src(e), el.dst(e), el.weight(e));
    } else {
      remaining.add(el.src(e), el.dst(e), el.weight(e));
    }
  }
  const auto report = dg.apply(removals);
  EXPECT_FALSE(report.rebuilt);

  const auto reference = core::embed_edges(remaining, labels,
                                           {.backend =
                                            Backend::kCompiledSerial});
  EXPECT_LT(core::max_abs_diff(*dg.snapshot().z, reference.z), 1e-5);
  EXPECT_EQ(dg.num_live_edges(), remaining.num_edges());
}

TEST(DynamicGee, WeightedParallelEdgesAndSelfLoopRemoveToParity) {
  // Parallel edges with distinct weights between the same endpoints, plus
  // a weighted self-loop: each removal must subtract exactly the copy it
  // names, leaving the other copies' mass -- verified against a batch
  // embed of the remainder.
  const auto labels = gen::semi_supervised_labels(40, 3, 0.6, 25);
  EdgeList el(40);
  el.add(1, 2, 0.5f);
  el.add(1, 2, 2.0f);  // duplicate pair, different weight
  el.add(1, 2, 2.0f);  // exact duplicate
  el.add(3, 4, 1.25f);
  el.add(5, 5, 3.0f);  // weighted self-loop

  Options options;
  options.stream_rebuild_drift = 0;  // isolate pure delta removal
  DynamicGee dg(labels, options);
  UpdateBatch adds;
  for (EdgeId e = 0; e < el.num_edges(); ++e) {
    adds.add(el.src(e), el.dst(e), el.weight(e));
  }
  dg.apply(adds);
  // One copy per batch, so each removal meets the live multiset alone.
  UpdateBatch drop_parallel_copy;
  drop_parallel_copy.remove(1, 2, 2.0f);
  dg.apply(drop_parallel_copy);
  UpdateBatch drop_self_loop;
  drop_self_loop.remove(5, 5, 3.0f);
  dg.apply(drop_self_loop);

  EdgeList remaining(40);
  remaining.add(1, 2, 0.5f);
  remaining.add(1, 2, 2.0f);
  remaining.add(3, 4, 1.25f);
  const auto reference = core::embed_edges(
      remaining, labels, {.backend = Backend::kCompiledSerial});
  EXPECT_LT(core::max_abs_diff(*dg.snapshot().z, reference.z), 1e-12);
  EXPECT_EQ(dg.num_live_edges(), remaining.num_edges());
  EXPECT_EQ(dg.stats().rebuilds, 0u);
}

TEST(DynamicGee, RemovingEverythingLeavesNearZero) {
  const auto el = with_random_weights(gen::erdos_renyi_gnm(150, 2000, 27), 29);
  const auto labels = gen::semi_supervised_labels(150, 5, 0.4, 31);
  Options options;
  options.stream_rebuild_drift = 0;  // no rebuild to zero the state exactly
  DynamicGee dg(el, labels, options);

  UpdateBatch removals;
  for (EdgeId e = 0; e < el.num_edges(); ++e) {
    removals.remove(el.src(e), el.dst(e), el.weight(e));
  }
  dg.apply(removals);
  EXPECT_EQ(dg.num_live_edges(), 0u);
  // Exact inverse in real arithmetic; floating point leaves ~ulp residue.
  const Embedding zero(150, dg.projection().num_classes);
  EXPECT_LT(core::max_abs_diff(*dg.snapshot().z, zero), 1e-10);
}

TEST(DynamicGee, DriftTriggersRebuild) {
  const auto el = gen::erdos_renyi_gnm(100, 1200, 71);
  const auto labels = gen::semi_supervised_labels(100, 4, 0.5, 73);

  Options options;
  options.stream_rebuild_drift = 0.25;
  DynamicGee dg(el, labels, options);

  UpdateBatch removals;  // remove ~40% of live edges: over the 25% fraction
  EdgeList remaining(100);
  for (EdgeId e = 0; e < el.num_edges(); ++e) {
    if (e % 5 < 2) {
      removals.remove(el.src(e), el.dst(e), el.weight(e));
    } else {
      remaining.add(el.src(e), el.dst(e), el.weight(e));
    }
  }
  const auto report = dg.apply(removals);
  EXPECT_TRUE(report.rebuilt);
  EXPECT_EQ(dg.stats().rebuilds, 1u);
  EXPECT_EQ(dg.stats().removed_since_rebuild, 0u);
  // Rebuild publishes its own epoch on top of the batch's.
  EXPECT_EQ(report.epoch, 2u);

  const auto reference = core::embed_edges(remaining, labels,
                                           {.backend =
                                            Backend::kCompiledSerial});
  EXPECT_LT(core::max_abs_diff(*dg.snapshot().z, reference.z), 1e-5);
}

TEST(DynamicGee, RejectsRemovalOfAbsentEdge) {
  const std::vector<std::int32_t> labels{0, 1, 0, 1};
  DynamicGee dg(labels);
  UpdateBatch first;
  first.add(0, 1);
  dg.apply(first);

  const auto before = dg.snapshot();
  UpdateBatch bad;
  bad.add(2, 3);
  bad.remove(0, 2);  // never added
  EXPECT_THROW(dg.apply(bad), std::invalid_argument);
  // A throwing apply publishes nothing and mutates nothing.
  EXPECT_EQ(dg.epoch(), before.epoch);
  EXPECT_EQ(dg.num_live_edges(), 1u);
  EXPECT_EQ(core::max_abs_diff(*dg.snapshot().z, *before.z), 0.0);
}

TEST(DynamicGee, RejectsWhatStreamingCannotMaintain) {
  const std::vector<std::int32_t> labels{0, 1};
  EXPECT_THROW(DynamicGee(labels, Options{.laplacian = true}),
               std::invalid_argument);
  EXPECT_THROW(DynamicGee(labels, Options{.diag_augment = true}),
               std::invalid_argument);
  EXPECT_THROW(DynamicGee(labels, Options{.correlation = true}),
               std::invalid_argument);
  EXPECT_THROW(DynamicGee(std::vector<std::int32_t>{-1, -1}),
               std::invalid_argument);
  // No labeled vertex, but an explicit K: W is all zero and every row
  // stays zero, which streaming maintains trivially.
  EXPECT_NO_THROW(
      DynamicGee(std::vector<std::int32_t>{-1, -1}, Options{.num_classes = 3}));

  DynamicGee dg(labels);
  UpdateBatch out_of_range;
  out_of_range.add(0, 7);
  EXPECT_THROW(dg.apply(out_of_range), std::out_of_range);
}

// ------------------------------------------------------ epoch snapshots

TEST(DynamicGee, SnapshotsAreImmutableAndStalenessCounts) {
  const std::vector<std::int32_t> labels{0, 1, 0, 1};
  DynamicGee dg(labels);

  const auto s0 = dg.snapshot();
  EXPECT_EQ(s0.epoch, 0u);
  EXPECT_DOUBLE_EQ(s0->at(0, 1), 0.0);

  UpdateBatch batch;
  batch.add(0, 1, 2.0f);
  dg.apply(batch);

  // The old snapshot still reads the pre-apply state. The new epoch holds
  // W(1) * w = (1/2) * 2 at Z(0, 1): class 1 = {1, 3} has two members.
  EXPECT_DOUBLE_EQ(s0->at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(dg.snapshot()->at(0, 1), 1.0);
  EXPECT_EQ(dg.staleness(s0), 1u);
  EXPECT_EQ(dg.staleness(dg.snapshot()), 0u);

  for (int i = 0; i < 3; ++i) {
    UpdateBatch more;
    more.add(2, 3);
    dg.apply(more);
  }
  EXPECT_EQ(dg.staleness(s0), 4u);
}

TEST(DynamicGee, RefreshHookHonorsStalenessBound) {
  const std::vector<std::int32_t> labels{0, 1, 0, 1};
  DynamicGee dg(labels);
  const auto pinned = dg.snapshot();
  for (int i = 0; i < 3; ++i) {
    UpdateBatch batch;
    batch.add(0, 1);
    dg.apply(batch);
  }
  // Within the bound: no new snapshot; beyond it: the current epoch.
  // Either way the measured staleness rides along.
  const auto held = dg.refresh(pinned, 3);
  EXPECT_FALSE(held.fresh.has_value());
  EXPECT_EQ(held.staleness, 3u);
  const auto fresh = dg.refresh(pinned, 2);
  ASSERT_TRUE(fresh.fresh.has_value());
  EXPECT_EQ(fresh.staleness, 3u);
  EXPECT_EQ(fresh.fresh->epoch, 3u);
  EXPECT_EQ(dg.staleness(*fresh.fresh), 0u);
}

TEST(DynamicGee, PooledBuffersPromoteByDeltaReplay) {
  const auto el = gen::erdos_renyi_gnm(80, 600, 79);
  const auto labels = gen::semi_supervised_labels(80, 3, 0.5, 83);
  const auto reference_base =
      core::embed_edges(el, labels, {.backend = Backend::kCompiledSerial});

  DynamicGee dg(el, labels);
  {
    // A held snapshot forces the writer onto a second buffer...
    const auto held = dg.snapshot();
    UpdateBatch batch;
    batch.add(0, 1);
    dg.apply(batch);
    EXPECT_EQ(core::max_abs_diff(*held.z, reference_base.z), 0.0);
  }
  // ...and its release returns buffer 1; these applies recycle the two
  // buffers through the delta-replay promotion path.
  for (int i = 0; i < 6; ++i) {
    UpdateBatch batch;
    batch.add(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
    dg.apply(batch);
  }
  EXPECT_GT(dg.stats().buffer_promotions, 0u);

  EdgeList extended = el;
  extended.add(0, 1);
  for (int i = 0; i < 6; ++i) {
    extended.add(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
  }
  const auto reference = core::embed_edges(extended, labels,
                                           {.backend =
                                            Backend::kCompiledSerial});
  EXPECT_LT(core::max_abs_diff(*dg.snapshot().z, reference.z), 1e-10);
}

TEST(DynamicGee, DeeplyStaleBufferFallsBackToFullCopy) {
  const std::vector<std::int32_t> labels{0, 1, 0, 1, 0, 1};
  DynamicGee dg(labels);
  EdgeList applied(6);

  const auto copies_before = dg.stats().buffer_copies;
  {
    const auto held = dg.snapshot();  // pins buffer 0 at epoch 0
    // More applies than the delta log retains: when the held buffer
    // finally returns to the pool it cannot be promoted by replay.
    for (int i = 0; i < 24; ++i) {
      UpdateBatch batch;
      const auto u = static_cast<VertexId>(i % 5);
      batch.add(u, u + 1);
      applied.add(u, u + 1);
      dg.apply(batch);
    }
  }
  for (int i = 0; i < 2; ++i) {
    UpdateBatch batch;
    batch.add(0, 1);
    applied.add(0, 1);
    dg.apply(batch);
  }
  EXPECT_GT(dg.stats().buffer_copies, copies_before);

  const auto reference = core::embed_edges(applied, labels,
                                           {.backend =
                                            Backend::kCompiledSerial});
  EXPECT_LT(core::max_abs_diff(*dg.snapshot().z, reference.z), 1e-10);
}

// The new risk surface of this PR: reader snapshots racing the writer's
// apply. Run under TSan in CI (see .github/workflows/ci.yml).
TEST(DynamicGee, ConcurrentReadersSeeConsistentSnapshots) {
  const VertexId n = 64;
  const auto labels = gen::semi_supervised_labels(n, 4, 0.5, 89);
  DynamicGee dg(labels);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> snapshots_taken{0};
  auto reader = [&] {
    std::uint64_t last_epoch = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = dg.snapshot();
      // Epochs never go backwards for a single reader.
      EXPECT_GE(snap.epoch, last_epoch);
      last_epoch = snap.epoch;
      // A snapshot is frozen: two reads of the same cell agree even while
      // the writer publishes new epochs.
      const double first = snap->at(0, 1);
      double sum = 0;
      for (VertexId v = 0; v < n; ++v) sum += snap->at(v, 1);
      EXPECT_EQ(snap->at(0, 1), first);
      (void)sum;
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread r1(reader), r2(reader);

  util::Xoshiro256 rng(97);
  EdgeList applied(n);
  for (int b = 0; b < 400; ++b) {
    UpdateBatch batch;
    for (int i = 0; i < 8; ++i) {
      const auto u = static_cast<VertexId>(rng.next_below(n));
      const auto v = static_cast<VertexId>(rng.next_below(n));
      batch.add(u, v);
      applied.add(u, v);
    }
    dg.apply(batch);
    if (b % 16 == 0) std::this_thread::yield();  // 1-core boxes: let readers run
  }
  // Keep readers sampling the (now quiescent) stream until they have
  // demonstrably overlapped with it; on a single core the writer can
  // otherwise finish before a reader is first scheduled.
  while (snapshots_taken.load(std::memory_order_relaxed) < 16) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  EXPECT_GT(snapshots_taken.load(), 0u);

  const auto reference = core::embed_edges(applied, labels,
                                           {.backend =
                                            Backend::kCompiledSerial});
  EXPECT_LT(core::max_abs_diff(*dg.snapshot().z, reference.z), 1e-9);
  EXPECT_EQ(dg.epoch(), 400u);
}

// --------------------------------------- k-hop selective re-embedding

TEST(DynamicGeeKHop, ReplayMatchesOneShotAcrossGraphMatrix) {
  for (auto& c : replay_cases()) {
    const auto reference =
        core::embed_edges(c.edges, c.labels, {.backend =
                                              Backend::kCompiledSerial});
    for (const int num_batches : {1, 7, 64}) {
      Options options;
      options.stream_update_strategy = core::UpdateStrategy::kKHop;
      const auto dg = replay(c.edges, c.labels, num_batches, options);
      EXPECT_LT(core::max_abs_diff(*dg->snapshot().z, reference.z), 1e-5)
          << c.name << " B=" << num_batches;
      EXPECT_EQ(dg->stats().khop_batches, dg->stats().batches)
          << c.name << " B=" << num_batches;
      EXPECT_GT(dg->stats().khop_rows, 0u);
    }
  }
}

TEST(DynamicGeeKHop, FinalStateMatchesRebuildBitwise) {
  // Pure k-hop operation is rebuild-exact: every row is recomputed from
  // the exact adjacency at the last batch that touched it, so after any
  // replay (adds AND removals) the published Z must equal a from-scratch
  // rebuild of the final multiset bit for bit.
  const auto el =
      with_random_weights(gen::erdos_renyi_gnm(180, 2200, 101), 103);
  const auto labels = gen::semi_supervised_labels(180, 5, 0.4, 107);
  Options options;
  options.stream_update_strategy = core::UpdateStrategy::kKHop;
  auto dg = std::make_unique<DynamicGee>(labels, options);
  // Stream in, then remove every fourth edge.
  const EdgeId m = el.num_edges();
  for (int b = 0; b < 12; ++b) {
    const EdgeId lo = m * static_cast<EdgeId>(b) / 12;
    const EdgeId hi = m * static_cast<EdgeId>(b + 1) / 12;
    UpdateBatch batch;
    for (EdgeId e = lo; e < hi; ++e) {
      batch.add(el.src(e), el.dst(e), el.weight(e));
    }
    dg->apply(batch);
  }
  UpdateBatch removals;
  for (EdgeId e = 0; e < m; e += 4) {
    removals.remove(el.src(e), el.dst(e), el.weight(e));
  }
  dg->apply(removals);

  // Twin engine, same history, then an explicit rebuild: the gold state.
  Options delta_options;
  auto gold = std::make_unique<DynamicGee>(labels, delta_options);
  for (int b = 0; b < 12; ++b) {
    const EdgeId lo = m * static_cast<EdgeId>(b) / 12;
    const EdgeId hi = m * static_cast<EdgeId>(b + 1) / 12;
    UpdateBatch batch;
    for (EdgeId e = lo; e < hi; ++e) {
      batch.add(el.src(e), el.dst(e), el.weight(e));
    }
    gold->apply(batch);
  }
  gold->apply(removals);
  gold->rebuild();

  EXPECT_EQ(core::max_abs_diff(*dg->snapshot().z, *gold->snapshot().z), 0.0);
  // The k-hop engine never rebuilt and never accumulated drift.
  EXPECT_EQ(dg->stats().rebuilds, 0u);
  EXPECT_EQ(dg->stats().removed_since_rebuild, 0u);
}

TEST(DynamicGeeKHop, AutoSelectsByFrontierLocality) {
  const VertexId n = 400;
  const auto labels = gen::semi_supervised_labels(n, 4, 0.5, 109);
  Options options;
  options.stream_update_strategy = core::UpdateStrategy::kAuto;
  options.stream_khop_auto_ratio = 0.05;  // cap = 20 vertices
  DynamicGee dg(labels, options);

  // Broad batch: edges spread over 200 distinct vertices, far past the
  // cap -- auto must fall back to the delta path.
  UpdateBatch broad;
  for (VertexId v = 100; v < 300; v += 2) broad.add(v, v + 1);
  auto report = dg.apply(broad);
  EXPECT_EQ(report.strategy, core::UpdateStrategy::kDelta);
  EXPECT_EQ(report.khop_rows, 0u);

  // Localized batch: a 5-vertex clique disjoint from everything above --
  // its endpoints are those 5 vertices, comfortably under the cap.
  UpdateBatch local;
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) local.add(u, v);
  }
  report = dg.apply(local);
  EXPECT_EQ(report.strategy, core::UpdateStrategy::kKHop);
  EXPECT_GT(report.khop_rows, 0u);
  EXPECT_LE(report.khop_rows, 20u);

  // The fallback batch still counted toward drift bookkeeping paths while
  // the k-hop batch did not disturb correctness: final state matches a
  // one-shot embed.
  EdgeList applied(n);
  for (VertexId v = 100; v < 300; v += 2) applied.add(v, v + 1);
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) applied.add(u, v);
  }
  const auto reference = core::embed_edges(applied, labels,
                                           {.backend =
                                            Backend::kCompiledSerial});
  EXPECT_LT(core::max_abs_diff(*dg.snapshot().z, reference.z), 1e-5);
  EXPECT_EQ(dg.stats().khop_batches, 1u);
}

TEST(DynamicGeeKHop, ReportStrategyReflectsRequestedPath) {
  const std::vector<std::int32_t> labels{0, 1, 0, 1};
  UpdateBatch batch;
  batch.add(0, 1);

  Options serial;
  serial.stream_parallel_threshold = std::numeric_limits<std::int64_t>::max();
  DynamicGee a(labels, serial);
  auto report = a.apply(batch);
  EXPECT_EQ(report.strategy, core::UpdateStrategy::kDelta);
  EXPECT_FALSE(report.parallel);

  Options delta;
  delta.stream_parallel_threshold = 0;
  DynamicGee b(labels, delta);
  report = b.apply(batch);
  EXPECT_EQ(report.strategy, core::UpdateStrategy::kDelta);
  EXPECT_TRUE(report.parallel);

  Options khop;
  khop.stream_update_strategy = core::UpdateStrategy::kKHop;
  DynamicGee c(labels, khop);
  report = c.apply(batch);
  EXPECT_EQ(report.strategy, core::UpdateStrategy::kKHop);
  EXPECT_EQ(report.khop_rows, 2u);
}

TEST(DynamicGeeKHop, PooledBuffersPromoteByRowPatch) {
  const auto el = gen::erdos_renyi_gnm(80, 600, 113);
  const auto labels = gen::semi_supervised_labels(80, 3, 0.5, 127);
  Options options;
  options.stream_update_strategy = core::UpdateStrategy::kKHop;
  // Endpoint-only recomputes keep each epoch's row patch under the n/4
  // replayability bound.
  DynamicGee dg(labels, options);
  UpdateBatch seed;
  for (EdgeId e = 0; e < el.num_edges(); ++e) {
    seed.add(el.src(e), el.dst(e), el.weight(e));
  }
  dg.apply(seed);

  {
    // A held snapshot forces the writer onto a second buffer...
    const auto held = dg.snapshot();
    UpdateBatch batch;
    batch.add(0, 1);
    dg.apply(batch);
  }
  // ...whose release recycles it through the ROW-PATCH promotion path
  // (k-hop epochs log recomputed rows, not deltas).
  for (int i = 0; i < 6; ++i) {
    UpdateBatch batch;
    batch.add(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
    dg.apply(batch);
  }
  EXPECT_GT(dg.stats().buffer_promotions, 0u);

  // Promoted buffers must carry the exact published bytes: a rebuild twin
  // over the same history agrees bitwise.
  EdgeList extended = el;
  extended.add(0, 1);
  for (int i = 0; i < 6; ++i) {
    extended.add(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
  }
  DynamicGee gold(labels);
  UpdateBatch all;
  for (EdgeId e = 0; e < extended.num_edges(); ++e) {
    all.add(extended.src(e), extended.dst(e), extended.weight(e));
  }
  gold.apply(all);
  gold.rebuild();
  EXPECT_EQ(core::max_abs_diff(*dg.snapshot().z, *gold.snapshot().z), 0.0);
}

TEST(DynamicGeeKHop, OversizedSubsetFallsBackToFullCopy) {
  // 6-vertex graph: even a single edge's 2-row patch is past the n/4
  // patch bound (2 * 4 > 6), so log entries are not replayable and a
  // recycled buffer must take the full-copy path -- correctly.
  const std::vector<std::int32_t> labels{0, 1, 0, 1, 0, 1};
  Options options;
  options.stream_update_strategy = core::UpdateStrategy::kKHop;
  DynamicGee dg(labels, options);
  UpdateBatch clique;
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) clique.add(u, v);
  }
  dg.apply(clique);

  const auto copies_before = dg.stats().buffer_copies;
  {
    const auto held = dg.snapshot();
    UpdateBatch batch;
    batch.add(0, 1);
    dg.apply(batch);
  }
  UpdateBatch batch;
  batch.add(2, 3);
  dg.apply(batch);
  EXPECT_GT(dg.stats().buffer_copies, copies_before);
  EXPECT_EQ(dg.stats().buffer_promotions, 0u);

  EdgeList applied(6);
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) applied.add(u, v);
  }
  applied.add(0, 1);
  applied.add(2, 3);
  const auto reference = core::embed_edges(applied, labels,
                                           {.backend =
                                            Backend::kCompiledSerial});
  EXPECT_LT(core::max_abs_diff(*dg.snapshot().z, reference.z), 1e-10);
}

// k-hop writer racing reader snapshots: subset re-embeds and row-patch
// promotions are writer-side; readers must stay undisturbed. Run under
// TSan in CI.
TEST(DynamicGeeKHop, ConcurrentReadersWithKHopWriter) {
  const VertexId n = 64;
  const auto labels = gen::semi_supervised_labels(n, 4, 0.5, 131);
  Options options;
  options.stream_update_strategy = core::UpdateStrategy::kAuto;
  options.stream_khop_auto_ratio = 0.25;  // mixed k-hop / delta traffic
  DynamicGee dg(labels, options);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> snapshots_taken{0};
  auto reader = [&] {
    std::uint64_t last_epoch = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = dg.snapshot();
      EXPECT_GE(snap.epoch, last_epoch);
      last_epoch = snap.epoch;
      const double first = snap->at(0, 1);
      double sum = 0;
      for (VertexId v = 0; v < n; ++v) sum += snap->at(v, 1);
      EXPECT_EQ(snap->at(0, 1), first);
      (void)sum;
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread r1(reader), r2(reader);

  util::Xoshiro256 rng(137);
  EdgeList applied(n);
  for (int b = 0; b < 300; ++b) {
    UpdateBatch batch;
    // Alternate localized (k-hop) and spread (delta-fallback) batches.
    const bool localized = b % 2 == 0;
    const auto base = static_cast<VertexId>(rng.next_below(n - 8));
    for (int i = 0; i < 8; ++i) {
      const auto u = localized ? base + static_cast<VertexId>(i % 4)
                               : static_cast<VertexId>(rng.next_below(n));
      const auto v = localized ? base + static_cast<VertexId>(i / 2)
                               : static_cast<VertexId>(rng.next_below(n));
      batch.add(u, v);
      applied.add(u, v);
    }
    dg.apply(batch);
    if (b % 16 == 0) std::this_thread::yield();
  }
  while (snapshots_taken.load(std::memory_order_relaxed) < 16) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();

  EXPECT_GT(dg.stats().khop_batches, 0u);
  const auto reference = core::embed_edges(applied, labels,
                                           {.backend =
                                            Backend::kCompiledSerial});
  EXPECT_LT(core::max_abs_diff(*dg.snapshot().z, reference.z), 1e-9);
  EXPECT_EQ(dg.epoch(), 300u);
}

TEST(DynamicGee, EmptyAndChurnOnlyBatchesPublishNothing) {
  const std::vector<std::int32_t> labels{0, 1};
  DynamicGee dg(labels);
  UpdateBatch empty;
  auto report = dg.apply(empty);
  EXPECT_EQ(report.epoch, 0u);

  UpdateBatch churn;
  churn.add(0, 1, 2.0f);
  churn.remove(0, 1, 2.0f);
  report = dg.apply(churn);
  EXPECT_EQ(report.raw_ops, 2u);
  EXPECT_EQ(report.deltas, 0u);
  EXPECT_EQ(dg.epoch(), 0u);
  EXPECT_EQ(dg.num_live_edges(), 0u);
}

}  // namespace
