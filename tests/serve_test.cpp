// Tests for the serving subsystem: out-of-sample row synthesis
// (gee/oos.hpp) and the QueryEngine over DynamicGee epoch snapshots
// (src/serve/).
//
//  * Parity: embed_one_vertex on vertex v's incident edge list (in batch
//    visit order) reproduces row v of the batch embedding -- bitwise for
//    unweighted and plain-weighted inputs, tolerance-bounded when the
//    caller mirrors the Laplacian's two diagonal scalings.
//  * Engine contract: batch pinning (all replies from ONE epoch), the
//    serve_max_staleness refresh rule, freshness metadata, validation,
//    top-k ranking.
//  * Acceptance criterion: serial and parallel query_batch fan-out are
//    byte-identical across 24 random seeds.
//  * Stress (names contain "Stress"; ctest runs them under the `stress`
//    label and CI additionally under TSan): N reader threads issue
//    query_batch/lookup_batch against a live DynamicGee while the writer
//    applies batches. The graph is constructed so row 0's value is an
//    exact function of the epoch (epoch * 1/32, all doubles exact), so
//    every reply can be checked for consistency with the epoch it claims.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "gee/gee.hpp"
#include "gee/oos.hpp"
#include "gee/preprocess.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/labels.hpp"
#include "serve/query_engine.hpp"
#include "serve/request.hpp"
#include "stream/dynamic_gee.hpp"
#include "stream/update_batch.hpp"
#include "testing/random_graphs.hpp"
#include "util/rng.hpp"

namespace {

using namespace gee;
using core::Backend;
using core::NeighborRef;
using core::Options;
using core::Real;
using graph::EdgeId;
using graph::EdgeList;
using graph::VertexId;
using graph::Weight;
using serve::QueryEngine;
using serve::QueryReply;
using serve::VertexQuery;
using stream::DynamicGee;
using stream::UpdateBatch;

/// Vertex v's incident edges in the order the serial edge pass visits
/// them: per edge, the src-side update (neighbor = dst) fires before the
/// dest-side one (neighbor = src), and a self-loop contributes twice.
std::vector<NeighborRef> incident_in_batch_order(const EdgeList& el,
                                                 VertexId v) {
  std::vector<NeighborRef> neighbors;
  for (EdgeId e = 0; e < el.num_edges(); ++e) {
    if (el.src(e) == v) neighbors.emplace_back(el.dst(e), el.weight(e));
    if (el.dst(e) == v) neighbors.emplace_back(el.src(e), el.weight(e));
  }
  return neighbors;
}

// ------------------------------------------------------ out-of-sample parity

TEST(OutOfSample, EmbedOneVertexReproducesBatchRowsBitwise) {
  for (const auto& rg : testutil::random_graph_matrix(31)) {
    SCOPED_TRACE(rg.name);
    const auto reference = core::embed_edges(
        rg.edges, rg.labels, {.backend = Backend::kCompiledSerial});
    const VertexId n = rg.edges.num_vertices();
    for (const VertexId v : {VertexId{0}, n / 3, n / 2, n - 1}) {
      const auto row = core::embed_one_vertex(
          reference.projection, rg.labels, incident_in_batch_order(rg.edges, v));
      const auto batch_row = reference.z.row(v);
      for (int c = 0; c < reference.z.dim(); ++c) {
        ASSERT_EQ(row[static_cast<std::size_t>(c)], batch_row[c])
            << "v=" << v << " c=" << c;
      }
    }
  }
}

TEST(OutOfSample, LaplacianParityWithinTolerance) {
  const auto el = testutil::with_random_weights(
      gen::erdos_renyi_gnm(200, 2400, 47), 53);
  const auto labels = gen::semi_supervised_labels(200, 5, 0.4, 59);
  const auto reference = core::embed_edges(
      el, labels, {.backend = Backend::kCompiledSerial, .laplacian = true});

  // Mirror the preprocessing in double: with s = 1 / sqrt(d) (same degree
  // convention), synthesize over the raw weights with the projection
  // W * s, then scale the row by s(v).
  const auto degrees = core::weighted_degrees(el, /*diag_augment=*/false);
  core::Projection scaled = reference.projection;
  for (std::size_t u = 0; u < degrees.size(); ++u) {
    scaled.vertex_weight[u] *= 1.0 / std::sqrt(degrees[u]);
  }
  for (const VertexId v : {VertexId{0}, VertexId{99}, VertexId{199}}) {
    auto row = core::embed_one_vertex(scaled, labels,
                                      incident_in_batch_order(el, v));
    for (auto& x : row) x *= 1.0 / std::sqrt(degrees[v]);
    const auto batch_row = reference.z.row(v);
    for (int c = 0; c < reference.z.dim(); ++c) {
      EXPECT_NEAR(row[static_cast<std::size_t>(c)], batch_row[c], 1e-12)
          << "v=" << v << " c=" << c;
    }
  }
}

TEST(OutOfSample, ValidatesNeighborsAndRowLength) {
  const std::vector<std::int32_t> labels{0, 1, 0};
  const auto projection = core::build_projection(labels);
  const std::vector<NeighborRef> bad{{7, 1.0f}};
  EXPECT_THROW(core::embed_one_vertex(projection, labels, bad),
               std::out_of_range);
  std::vector<Real> short_row(1);
  const std::vector<NeighborRef> ok{{0, 1.0f}};
  EXPECT_THROW(core::embed_one_vertex(projection, labels, ok, short_row),
               std::invalid_argument);
}

// --------------------------------------------------------- engine basics

/// n=6 fixture, labels {0,1,0,1,0,1}: both class counts are 3.
struct SmallServe {
  std::vector<std::int32_t> labels{0, 1, 0, 1, 0, 1};
  DynamicGee dg{labels};

  void apply_edge(VertexId u, VertexId v, Weight w = 1.0f) {
    UpdateBatch batch;
    batch.add(u, v, w);
    dg.apply(batch);
  }
};

TEST(QueryEngine, OosQueryCarriesRowPredictionAndFreshness) {
  SmallServe s;
  s.apply_edge(0, 1);
  const QueryEngine engine(s.dg);

  // Neighbors 1 (class 1) weight 3 and 2 (class 0) weight 1:
  // row = {1 * 1/3, 3 * 1/3} -> predicted class 1.
  const VertexQuery q{{{1, 3.0f}, {2, 1.0f}}};
  const auto reply = engine.query(q);
  ASSERT_EQ(reply.row.size(), 2u);
  EXPECT_DOUBLE_EQ(reply.row[0], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(reply.row[1], 1.0);
  EXPECT_EQ(reply.predicted, 1);
  EXPECT_EQ(reply.epoch, 1u);
  EXPECT_EQ(reply.staleness, 0u);

  // Matches the library-level synthesis exactly.
  const auto direct = core::embed_one_vertex(s.dg.projection(), s.labels,
                                             q.neighbors);
  EXPECT_EQ(reply.row, direct);
}

TEST(QueryEngine, InSampleLookupReadsThePinnedRow) {
  SmallServe s;
  s.apply_edge(0, 1, 2.0f);
  const QueryEngine engine(s.dg);
  const auto reply = engine.lookup(0);
  // Z(0, 1) = W(1) * 2 = 2/3; row 0's class-0 mass is untouched.
  EXPECT_DOUBLE_EQ(reply.row[1], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(reply.row[0], 0.0);
  EXPECT_EQ(reply.predicted, 1);
  EXPECT_EQ(reply.epoch, 1u);

  const auto snap = s.dg.snapshot();
  EXPECT_EQ(reply.row[1], snap->at(0, 1));

  // An isolated vertex abstains.
  EXPECT_EQ(engine.lookup(5).predicted, -1);
}

TEST(QueryEngine, BatchPinsExactlyOneEpoch) {
  SmallServe s;
  const QueryEngine engine(s.dg);
  for (int i = 0; i < 5; ++i) s.apply_edge(0, 1);

  std::vector<VertexQuery> queries(8, VertexQuery{{{1, 1.0f}}});
  const auto replies = engine.query_batch(queries);
  ASSERT_EQ(replies.size(), queries.size());
  for (const auto& r : replies) {
    EXPECT_EQ(r.epoch, replies.front().epoch);
    EXPECT_EQ(r.staleness, replies.front().staleness);
  }
  EXPECT_EQ(replies.front().epoch, 5u);
}

TEST(QueryEngine, StalenessBoundGovernsRefresh) {
  SmallServe s;

  // Bound 2: the pin survives up to two published batches, refreshes on
  // the third.
  const QueryEngine bounded(s.dg, Options{.serve_max_staleness = 2});
  s.apply_edge(0, 1);
  s.apply_edge(2, 3);
  EXPECT_EQ(bounded.lookup(0).epoch, 0u);  // staleness 2 <= 2: pin holds
  s.apply_edge(4, 5);
  const auto refreshed = bounded.lookup(0);
  EXPECT_EQ(refreshed.epoch, 3u);  // staleness 3 > 2: repinned
  EXPECT_EQ(refreshed.staleness, 0u);
  EXPECT_EQ(bounded.stats().refreshes, 1u);

  // Bound 0 (default): every batch serves the freshest epoch.
  const QueryEngine fresh(s.dg);
  s.apply_edge(0, 1);
  EXPECT_EQ(fresh.lookup(0).epoch, 4u);

  // Negative bound: never refresh; the construction-time pin persists.
  const QueryEngine pinned(s.dg, Options{.serve_max_staleness = -1});
  s.apply_edge(0, 1);
  s.apply_edge(0, 1);
  EXPECT_EQ(pinned.lookup(0).epoch, 4u);
  EXPECT_EQ(pinned.lookup(0).staleness, 2u);
  EXPECT_EQ(pinned.stats().refreshes, 0u);
}

TEST(QueryEngine, TopKClassScores) {
  const std::vector<Real> row{0.0, 3.0, 1.0, 3.0, -2.0};
  const auto top2 = serve::top_k_classes(row, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].cls, 1);  // ties break toward the smaller class id
  EXPECT_EQ(top2[1].cls, 3);
  EXPECT_DOUBLE_EQ(top2[0].score, 3.0);

  // k <= 0 returns every positive-mass class; zero/negative mass omitted.
  const auto all = serve::top_k_classes(row, 0);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[2].cls, 2);
  EXPECT_TRUE(serve::top_k_classes(std::vector<Real>(4, 0.0), 3).empty());
}

TEST(QueryEngine, ValidatesBeforeAnsweringAnything) {
  SmallServe s;
  const QueryEngine engine(s.dg);
  EXPECT_THROW(engine.lookup(6), std::out_of_range);
  const std::vector<VertexId> bad_ids{0, 6};
  EXPECT_THROW((void)engine.lookup_batch(bad_ids), std::out_of_range);
  const std::vector<VertexQuery> bad_query{VertexQuery{{{9, 1.0f}}}};
  EXPECT_THROW((void)engine.query_batch(bad_query), std::out_of_range);
  EXPECT_THROW((void)engine.query(VertexQuery{{{9, 1.0f}}}),
               std::out_of_range);
  EXPECT_EQ(engine.stats().queries, 0u);
}

// ------------------------------------- acceptance: fan-out determinism

// The PR's acceptance criterion: out-of-sample query_batch replies are
// byte-identical between serial and parallel fan-out, across >= 20 random
// seeds (24 here).
TEST(QueryEngine, SerialAndParallelFanOutByteIdentical) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Xoshiro256 rng(9000 + seed);
    const VertexId n = 120;
    const auto labels = gen::semi_supervised_labels(
        n, 5, 0.5, util::hash_combine(seed, 1));
    const auto el = testutil::with_random_weights(
        gen::erdos_renyi_gnm(n, 1200, util::hash_combine(seed, 2)),
        util::hash_combine(seed, 3));
    const DynamicGee dg(el, labels);

    std::vector<VertexQuery> queries(64);
    for (auto& q : queries) {
      const std::size_t fanout = 1 + rng.next_below(12);
      for (std::size_t j = 0; j < fanout; ++j) {
        q.neighbors.emplace_back(
            static_cast<VertexId>(rng.next_below(n)),
            static_cast<Weight>(1 + rng.next_below(6)) * 0.5f);
      }
    }

    const QueryEngine serial(dg, Options{.num_threads = 1});
    const QueryEngine parallel(dg, Options{.num_threads = 4});
    const auto a = serial.query_batch(queries);
    const auto b = parallel.query_batch(queries);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].row, b[i].row) << "query " << i;  // bitwise
      EXPECT_EQ(a[i].predicted, b[i].predicted);
      EXPECT_EQ(a[i].epoch, b[i].epoch);
    }
  }
}

// ------------------------------------------------- reader/writer stress

// The PR's concurrency criterion, run under TSan in CI: reader threads
// hammer the engine while one writer streams batches. Construction makes
// every reply's correctness a pure function of the epoch it claims:
//  * labels alternate over n=64 vertices -> both class weights are
//    exactly 1/32 (a power of two; all sums below are exact doubles);
//  * every batch adds one copy of edge (0, 1) and random bulk edges
//    confined to [2, 60) -- so after epoch e, Z(0, 1) == Z(1, 0) ==
//    e / 32 exactly, and rows 60..63 stay identically zero.
// A reply "consistent with some published epoch" is therefore checkable
// as row-value == claimed-epoch / 32.
TEST(QueryEngineStress, RepliesConsistentWithSomePublishedEpoch) {
  constexpr VertexId kN = 64;
  constexpr int kBatches = 300;
  constexpr double kMass = 1.0 / 32.0;
  std::vector<std::int32_t> labels(kN);
  for (VertexId v = 0; v < kN; ++v) labels[v] = static_cast<std::int32_t>(v % 2);
  DynamicGee dg(labels);
  Options serve_options;
  serve_options.num_threads = 2;
  serve_options.serve_max_staleness = 2;
  const QueryEngine engine(dg, serve_options);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reader_rounds[2] = {{0}, {0}};
  auto reader = [&](int id) {
    const std::vector<VertexId> ids{0, 1, 63};
    const std::vector<VertexQuery> queries{
        VertexQuery{{{0, 1.0f}}},             // -> row[0] == 1/32
        VertexQuery{{{0, 1.0f}, {1, 2.0f}}},  // -> {1/32, 2/32}
    };
    std::uint64_t last_epoch = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto replies = engine.lookup_batch(ids);
      // One pinned epoch per batch; never behind what this reader saw.
      // (EXPECT, not ASSERT: an early return from this lambda would leave
      // the main thread spinning on reader_rounds forever.)
      EXPECT_EQ(replies[1].epoch, replies[0].epoch);
      EXPECT_EQ(replies[2].epoch, replies[0].epoch);
      const std::uint64_t epoch = replies[0].epoch;
      EXPECT_GE(epoch, last_epoch);
      EXPECT_LE(epoch, static_cast<std::uint64_t>(kBatches));
      // Reported staleness is measured by the pin's own bound check, so
      // it can never exceed serve_max_staleness.
      EXPECT_LE(replies[0].staleness, 2u);
      last_epoch = epoch;
      // Consistency with the claimed epoch, exactly.
      EXPECT_EQ(replies[0].row[1], static_cast<double>(epoch) * kMass);
      EXPECT_EQ(replies[1].row[0], static_cast<double>(epoch) * kMass);
      EXPECT_EQ(replies[0].row[1], replies[1].row[0]);  // one snapshot
      EXPECT_EQ(replies[2].predicted, -1);  // untouched vertex abstains
      for (const Real cell : replies[2].row) EXPECT_EQ(cell, 0.0);

      const auto oos = engine.query_batch(queries);
      EXPECT_EQ(oos[0].row[0], kMass);
      EXPECT_EQ(oos[1].row[0], kMass);
      EXPECT_EQ(oos[1].row[1], 2.0 * kMass);
      EXPECT_EQ(oos[1].predicted, 1);
      EXPECT_GE(oos[0].epoch, last_epoch);
      last_epoch = std::max(last_epoch, oos[0].epoch);
      reader_rounds[id].fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread r0(reader, 0), r1(reader, 1);

  util::Xoshiro256 rng(97);
  for (int b = 0; b < kBatches; ++b) {
    UpdateBatch batch;
    batch.add(0, 1);
    for (int i = 0; i < 4; ++i) {
      batch.add(static_cast<VertexId>(2 + rng.next_below(58)),
                static_cast<VertexId>(2 + rng.next_below(58)));
    }
    dg.apply(batch);
    if (b % 16 == 0) std::this_thread::yield();  // 1-core boxes
  }
  // Keep serving from the quiescent stream until both readers demonstrably
  // overlapped it (a single core can starve them entirely otherwise).
  while (reader_rounds[0].load(std::memory_order_relaxed) < 8 ||
         reader_rounds[1].load(std::memory_order_relaxed) < 8) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  r0.join();
  r1.join();

  EXPECT_EQ(dg.epoch(), static_cast<std::uint64_t>(kBatches));
  EXPECT_EQ(dg.snapshot()->at(0, 1), kBatches * kMass);
  const auto stats = engine.stats();
  EXPECT_GT(stats.queries, 0u);
  EXPECT_GT(stats.batches, 0u);
  // The final lookup serves within the staleness bound of the final epoch.
  const auto last = engine.lookup(0);
  EXPECT_GE(last.epoch + 2, static_cast<std::uint64_t>(kBatches));
  EXPECT_EQ(last.row[1], static_cast<double>(last.epoch) * kMass);
}

}  // namespace
