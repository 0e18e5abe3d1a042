// Tests for the sharded serving tier (src/shard/).
//
//  * ShardMap: boundary invariants, degree-weighted balance, ownership
//    lookup, clamping.
//  * AdmissionQueue: admit-up-to-budget, shed-beyond-budget with a
//    retry-after hint, exactly-once execution, drain semantics.
//  * ShardSet: update routing (kOwned: per-endpoint fan-out; kReplicated:
//    every shard), endpoint validation.
//  * Router: both planes -- the synchronous one against a single unsharded
//    QueryEngine (bitwise, with the exhaustive matrix sweep living in
//    backend_conformance_test), and the admission-controlled one
//    (callbacks fire with the same answers; capacity-zero lanes shed).
//  * Stress (names contain "Stress"; ctest runs them under the `stress`
//    label and CI additionally under TSan): reader threads drive both
//    router planes while the writer applies batches through
//    ShardSet::apply.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "gen/erdos_renyi.hpp"
#include "gen/labels.hpp"
#include "serve/query_engine.hpp"
#include "serve/request.hpp"
#include "shard/admission.hpp"
#include "shard/router.hpp"
#include "shard/shard_map.hpp"
#include "shard/shard_set.hpp"
#include "stream/dynamic_gee.hpp"
#include "stream/update_batch.hpp"
#include "testing/random_graphs.hpp"
#include "util/rng.hpp"

namespace {

using namespace gee;
using graph::EdgeId;
using graph::EdgeList;
using graph::VertexId;
using graph::Weight;
using serve::QueryEngine;
using serve::VertexQuery;
using shard::AdmissionQueue;
using shard::Router;
using shard::ShardMap;
using shard::ShardMode;
using shard::ShardSet;
using stream::DynamicGee;
using stream::UpdateBatch;

EdgeList star_graph(VertexId n) {
  EdgeList el;
  for (VertexId v = 1; v < n; ++v) el.add(0, v, 1.0f);
  return el;
}

// ----------------------------------------------------------------- ShardMap

TEST(ShardMap, BoundariesPartitionTheVertexRange) {
  const auto el = gen::erdos_renyi_gnm(500, 4000, 7);
  const auto map = ShardMap::build(el, 500, 4);
  ASSERT_EQ(map.num_shards(), 4);
  ASSERT_EQ(map.num_vertices(), 500u);
  const auto starts = map.starts();
  ASSERT_EQ(starts.size(), 5u);
  EXPECT_EQ(starts.front(), 0u);
  EXPECT_EQ(starts.back(), 500u);
  for (std::size_t i = 1; i < starts.size(); ++i) {
    EXPECT_LE(starts[i - 1], starts[i]);
  }
  // Every vertex belongs to exactly the shard whose range contains it.
  for (VertexId v = 0; v < 500; ++v) {
    const int s = map.shard_of(v);
    const auto [lo, hi] = map.range(s);
    EXPECT_LE(lo, v);
    EXPECT_LT(v, hi);
  }
}

TEST(ShardMap, DegreeWeightedSplitIsolatesTheHub) {
  // Star graph: vertex 0 carries half the endpoint mass, so the split
  // hands the hub's shard far fewer vertices than the other (the exact
  // width includes the +1-per-vertex term that keeps isolated runs from
  // collapsing, so assert the shape, not a constant).
  const auto el = star_graph(1000);
  const auto map = ShardMap::build(el, 1000, 2);
  const auto [lo0, hi0] = map.range(0);
  const auto [lo1, hi1] = map.range(1);
  EXPECT_EQ(map.shard_of(0), 0);
  EXPECT_LT(hi0 - lo0, (hi1 - lo1) / 2) << "hub shard should be narrow";
  // And the split mass (endpoints + 1 per vertex) balances to ~half.
  const auto mass = [&](VertexId lo, VertexId hi) {
    std::uint64_t w = hi - lo;
    for (EdgeId e = 0; e < el.num_edges(); ++e) {
      w += (el.src(e) >= lo && el.src(e) < hi) ? 1u : 0u;
      w += (el.dst(e) >= lo && el.dst(e) < hi) ? 1u : 0u;
    }
    return w;
  };
  const auto m0 = mass(lo0, hi0), m1 = mass(lo1, hi1);
  EXPECT_NEAR(static_cast<double>(m0), static_cast<double>(m1),
              0.05 * static_cast<double>(m0 + m1));
}

TEST(ShardMap, UniformAndClamping) {
  const auto map = ShardMap::uniform(10, 3);
  EXPECT_EQ(map.num_shards(), 3);
  EXPECT_EQ(map.shard_of(0), 0);
  EXPECT_EQ(map.shard_of(9), 2);

  // More shards than vertices: trailing shards own empty ranges, and
  // every vertex still resolves to a shard whose range contains it.
  const auto wide = ShardMap::uniform(2, 5);
  EXPECT_EQ(wide.num_shards(), 5);
  for (VertexId v = 0; v < 2; ++v) {
    const auto [lo, hi] = wide.range(wide.shard_of(v));
    EXPECT_LE(lo, v);
    EXPECT_LT(v, hi);
  }

  EXPECT_EQ(ShardMap::uniform(10, 0).num_shards(), 1);  // clamp up
  EXPECT_EQ(ShardMap::uniform(10, shard::kMaxShards + 50).num_shards(),
            shard::kMaxShards);  // clamp down
}

// ----------------------------------------------------------- AdmissionQueue

TEST(AdmissionQueue, RunsAdmittedTasksExactlyOnceAndDrains) {
  AdmissionQueue q("gee.test.lane_basic", {.capacity = 64, .workers = 2});
  std::atomic<int> runs{0};
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(q.try_submit([&] { runs.fetch_add(1); }));
  }
  q.drain();
  EXPECT_EQ(runs.load(), 40);
  EXPECT_EQ(q.depth(), 0u);
  q.drain();  // idempotent on an empty queue
}

TEST(AdmissionQueue, ShedsBeyondCapacityWithRetryAfter) {
  AdmissionQueue q("gee.test.lane_shed", {.capacity = 2, .workers = 1});
  // Block the worker so queued entries cannot drain under us.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  ASSERT_TRUE(q.try_submit([gate] { gate.wait(); }));
  // The blocker may or may not have been dequeued yet; fill to the budget.
  int admitted = 1;
  while (q.try_submit([gate] { gate.wait(); })) ++admitted;
  EXPECT_LE(admitted, 4);  // capacity + in-flight, with scheduling slack
  EXPECT_FALSE(q.try_submit([] {}));  // at budget: shed
  EXPECT_GE(q.retry_after_seconds(), 100e-6);  // floor even before any EMA
  release.set_value();
  q.drain();
  EXPECT_TRUE(q.try_submit([] {}));  // budget frees up after the drain
  q.drain();
  EXPECT_GT(q.ema_task_seconds(), 0.0);
}

TEST(AdmissionQueue, CapacityZeroShedsEverything) {
  AdmissionQueue q("gee.test.lane_zero", {.capacity = 0, .workers = 1});
  EXPECT_FALSE(q.try_submit([] { FAIL() << "capacity-0 lane ran a task"; }));
  q.drain();
}

// Regression for the EMA lost-update race: the pre-fix update was a
// relaxed load-then-store read-modify-write, so two workers finishing
// concurrently could each read the same `prev` and one observation
// silently vanished. The CAS loop makes record() exactly-once, and since
// every record here applies the SAME monotone contraction
// f(v) = v + alpha*(target - v), the final value is f^N(seed) regardless
// of thread interleaving -- while even one lost update lands at
// f^(N-1)(seed), which differs by ~alpha (1e-9, far above double eps at
// this magnitude, far below convergence). So the assertion is an exact
// equality that any lost update breaks.
TEST(AdmissionQueue, EmaConcurrentRecordsFoldInExactlyOnce) {
  constexpr double kAlpha = 1e-9;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  shard::ServiceTimeEma ema(kAlpha);
  ema.record(1.0);  // deterministic seed, away from the 2.0 fixed point

  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) ema.record(2.0);
    });
  }
  for (auto& t : recorders) t.join();

  double expected = 1.0;
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    expected = expected + kAlpha * (2.0 - expected);
  }
  EXPECT_EQ(ema.seconds(), expected);
}

TEST(AdmissionQueue, EmaSeedsOnceEvenAtZeroServiceTime) {
  // A sub-us request can measure exactly 0.0 on a coarse steady_clock; the
  // pre-fix code treated value==0.0 as "unseeded" and re-seeded forever,
  // so the EMA tracked the LAST observation instead of smoothing.
  shard::ServiceTimeEma ema(0.05);
  EXPECT_EQ(ema.seconds(), 0.0);  // unseeded reads as zero
  ema.record(0.0);                // seeds (exactly-zero observation)
  EXPECT_EQ(ema.seconds(), 0.0);
  ema.record(1.0);  // must SMOOTH from the 0.0 seed, not re-seed to 1.0
  EXPECT_EQ(ema.seconds(), 0.05);
  ema.record(1.0);
  EXPECT_EQ(ema.seconds(), 0.05 + 0.05 * (1.0 - 0.05));
}

TEST(AdmissionQueue, ClosedLaneShedsUntilReopened) {
  AdmissionQueue q("gee.test.lane_closed", {.capacity = 8, .workers = 1});
  EXPECT_FALSE(q.closed());
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.try_submit([] { FAIL() << "closed lane ran a task"; }));
  EXPECT_GE(q.retry_after_seconds(), 100e-6);  // sheds still carry a hint
  q.drain();
  q.reopen();
  std::atomic<int> runs{0};
  EXPECT_TRUE(q.try_submit([&] { runs.fetch_add(1); }));
  q.drain();
  EXPECT_EQ(runs.load(), 1);
}

// Regression for the unbounded-drain defect: drain() used to have no way
// to quiesce admission, so a producer submitting in a loop could extend
// the wait forever. After close(), only the already-admitted backlog runs,
// so drain() must return while the producer is STILL submitting.
TEST(AdmissionQueue, DrainIsBoundedAfterCloseUnderContinuedSubmissions) {
  AdmissionQueue q("gee.test.lane_drain_bound", {.capacity = 32, .workers = 2});
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      q.try_submit([] {});
    }
  });
  for (int i = 0; i < 100; ++i) q.try_submit([] {});
  q.close();
  q.drain();  // must complete with the producer still running
  EXPECT_EQ(q.depth(), 0u);
  stop.store(true, std::memory_order_release);
  producer.join();
  q.reopen();
}

// ----------------------------------------------------------------- ShardSet

TEST(ShardSet, AppliesRouteToOwningShardsOnly) {
  const auto el = gen::erdos_renyi_gnm(300, 2000, 11);
  const auto labels = gen::semi_supervised_labels(300, 4, 0.3, 13);
  ShardSet set(el, labels, 3);
  const auto [lo1, hi1] = set.map().range(1);

  UpdateBatch same_shard;  // both endpoints inside shard 1
  same_shard.add(lo1, lo1 + 1);
  auto report = set.apply(same_shard);
  EXPECT_EQ(report.raw_ops, 1u);
  EXPECT_EQ(report.routed_ops, 1u);
  EXPECT_EQ(report.shards_touched, 1u);

  UpdateBatch cross_shard;  // endpoints owned by different shards
  cross_shard.add(0, hi1 - 1);
  report = set.apply(cross_shard);
  EXPECT_EQ(report.raw_ops, 1u);
  EXPECT_EQ(report.routed_ops, 2u);
  EXPECT_EQ(report.shards_touched, 2u);
}

TEST(ShardSet, ReplicatedModeAppliesEverywhere) {
  const auto el = gen::erdos_renyi_gnm(200, 1500, 17);
  const auto labels = gen::semi_supervised_labels(200, 4, 0.3, 19);
  ShardSet set(el, labels, 3, ShardMode::kReplicated);
  UpdateBatch batch;
  batch.add(0, 199);
  batch.add(5, 6);
  const auto report = set.apply(batch);
  EXPECT_EQ(report.raw_ops, 2u);
  EXPECT_EQ(report.routed_ops, 6u);
  EXPECT_EQ(report.shards_touched, 3u);
  // Every replica advanced.
  for (int s = 0; s < 3; ++s) EXPECT_EQ(set.gee(s).epoch(), 1u);
}

TEST(ShardSet, RejectsOutOfRangeEndpointsBeforeMutating) {
  const auto el = gen::erdos_renyi_gnm(100, 600, 23);
  const auto labels = gen::semi_supervised_labels(100, 4, 0.3, 29);
  ShardSet set(el, labels, 2);
  UpdateBatch bad;
  bad.add(0, 1);
  bad.add(50, 999);  // out of range
  EXPECT_THROW(set.apply(bad), std::out_of_range);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(set.gee(s).epoch(), 0u) << "validation must precede mutation";
  }
}

// ------------------------------------------------------------------- Router

class RouterTest : public ::testing::Test {
 protected:
  static constexpr VertexId kN = 400;

  RouterTest()
      : edges_(gen::erdos_renyi_gnm(kN, 3200, 31)),
        labels_(gen::semi_supervised_labels(kN, 5, 0.3, 37)),
        reference_gee_(edges_, labels_),
        reference_(reference_gee_),
        set_(edges_, labels_, 3),
        router_(set_) {}

  VertexQuery random_query(util::Xoshiro256& rng) const {
    VertexQuery q;
    for (int j = 0; j < 6; ++j) {
      q.neighbors.emplace_back(static_cast<VertexId>(rng.next_below(kN)),
                               static_cast<Weight>(1 + rng.next_below(3)));
    }
    return q;
  }

  EdgeList edges_;
  std::vector<std::int32_t> labels_;
  DynamicGee reference_gee_;
  QueryEngine reference_;
  ShardSet set_;
  Router router_;
};

TEST_F(RouterTest, LookupMatchesUnshardedEngineBitwise) {
  for (const VertexId v : {VertexId{0}, kN / 2, kN - 1}) {
    const auto sharded = router_.lookup(v);
    const auto reference = reference_.lookup(v);
    EXPECT_EQ(sharded.row, reference.row) << "v=" << v;
    EXPECT_EQ(sharded.predicted, reference.predicted);
  }
  EXPECT_THROW(router_.lookup(kN), std::out_of_range);
}

TEST_F(RouterTest, LookupBatchScattersRepliesBackToRequestOrder) {
  util::Xoshiro256 rng(41);
  std::vector<VertexId> ids(257);
  for (auto& v : ids) v = static_cast<VertexId>(rng.next_below(kN));
  const auto replies = router_.lookup_batch(ids);
  ASSERT_EQ(replies.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(replies[i].row, reference_.lookup(ids[i]).row) << "i=" << i;
  }
  ids.push_back(kN);
  EXPECT_THROW(router_.lookup_batch(ids), std::out_of_range);
}

TEST_F(RouterTest, QueriesAreShardInvariant) {
  util::Xoshiro256 rng(43);
  std::vector<VertexQuery> queries;
  for (int i = 0; i < 64; ++i) queries.push_back(random_query(rng));
  // Singles round-robin across shards; every answer must match anyway.
  for (const auto& q : queries) {
    EXPECT_EQ(router_.query(q).row, reference_.query(q).row);
  }
  const auto batched = router_.query_batch(queries);
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i].row, reference_.query(queries[i]).row) << "i=" << i;
  }
}

TEST_F(RouterTest, TopKVerticesMergeMatchesFullScan) {
  for (const std::int32_t cls : {0, 2, 4}) {
    for (const int k : {1, 5, 64, 0}) {  // 0 = unbounded
      const auto merged = router_.top_k_vertices(cls, k);
      const auto reference = reference_.top_k_vertices(cls, k);
      EXPECT_EQ(merged, reference) << "cls=" << cls << " k=" << k;
    }
  }
  EXPECT_THROW(router_.top_k_vertices(99, 5), std::out_of_range);
}

TEST_F(RouterTest, TopKClassesMatchesReference) {
  util::Xoshiro256 rng(47);
  const auto q = random_query(rng);
  const auto via_query = router_.top_k_classes(q, 3);
  const auto expected = serve::top_k_classes(reference_.query(q).row, 3);
  ASSERT_EQ(via_query.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(via_query[i].cls, expected[i].cls);
    EXPECT_EQ(via_query[i].score, expected[i].score);
  }
  EXPECT_FALSE(router_.top_k_classes(VertexId{0}, 3).empty());
}

TEST_F(RouterTest, SubmitAnswersThroughTheLaneWorkers) {
  Router::Request req;
  req.kind = Router::Request::Kind::kLookup;
  req.vertex = kN / 3;
  std::promise<Router::Response> answered;
  auto future = answered.get_future();
  const auto ticket = router_.submit(
      req, [&](Router::Response r) { answered.set_value(std::move(r)); });
  ASSERT_TRUE(ticket.admitted);
  EXPECT_EQ(ticket.retry_after_s, 0.0);
  const auto response = future.get();
  EXPECT_EQ(response.kind, Router::Request::Kind::kLookup);
  EXPECT_EQ(response.reply.row, reference_.lookup(req.vertex).row);
  router_.drain();

  Router::Request scan;
  scan.kind = Router::Request::Kind::kTopKVertices;
  scan.cls = 1;
  scan.k = 7;
  std::promise<Router::Response> ranked;
  auto ranked_future = ranked.get_future();
  ASSERT_TRUE(router_
                  .submit(scan, [&](Router::Response r) {
                    ranked.set_value(std::move(r));
                  })
                  .admitted);
  EXPECT_EQ(ranked_future.get().ranked, reference_.top_k_vertices(1, 7));
  router_.drain();
}

TEST_F(RouterTest, CapacityZeroRouterShedsWithRetryAfter) {
  Router::Config config;
  config.admission.capacity = 0;
  Router shedding(set_, config);
  const auto ticket = shedding.submit(
      Router::Request{}, [](Router::Response) {
        FAIL() << "shed request must not answer";
      });
  EXPECT_FALSE(ticket.admitted);
  EXPECT_GE(ticket.retry_after_s, 100e-6);
  shedding.drain();
}

TEST_F(RouterTest, CloseShedsEveryLaneAndReopenRestores) {
  router_.close();
  const auto ticket = router_.submit(
      Router::Request{},
      [](Router::Response) { FAIL() << "closed router must not answer"; });
  EXPECT_FALSE(ticket.admitted);
  EXPECT_GE(ticket.retry_after_s, 100e-6);
  router_.drain();  // bounded: all lanes closed

  router_.reopen();
  std::promise<Router::Response> answered;
  auto future = answered.get_future();
  Router::Request req;
  req.kind = Router::Request::Kind::kLookup;
  req.vertex = 1;
  ASSERT_TRUE(router_
                  .submit(req, [&](Router::Response r) {
                    answered.set_value(std::move(r));
                  })
                  .admitted);
  EXPECT_EQ(future.get().reply.row, reference_.lookup(1).row);
  router_.drain();
}

// ------------------------------------------------------------------- stress

// Reader threads hammer both router planes while the single writer
// applies update batches through ShardSet::apply. Assertions are minimal
// (replies well-formed, at least one async answer); the value is TSan
// coverage of the full stack:
// lane workers, snapshot pinning, per-shard epoch publication.
TEST(ShardStress, RoutedReadsDuringShardedWrites) {
  const VertexId n = 300;
  const auto el = gen::erdos_renyi_gnm(n, 2400, 51);
  const auto labels = gen::semi_supervised_labels(n, 4, 0.3, 53);
  core::Options options;
  options.serve_max_staleness = 2;
  ShardSet set(el, labels, 3, ShardMode::kOwned, options);
  Router router(set);
  const auto k = static_cast<std::size_t>(set.num_classes());

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      util::Xoshiro256 rng(100 + static_cast<std::uint64_t>(r));
      while (!done.load(std::memory_order_acquire)) {
        const auto v = static_cast<VertexId>(rng.next_below(n));
        const auto reply = router.lookup(v);
        ASSERT_EQ(reply.row.size(), k);
        Router::Request req;
        req.kind = Router::Request::Kind::kLookup;
        req.vertex = v;
        (void)router.submit(req, [&, expected_epoch = reply.epoch](
                                     Router::Response resp) {
          ASSERT_EQ(resp.reply.row.size(), k);
          // Same shard, submitted after the sync reply: epochs are
          // per-shard monotone, so the async answer can't be older.
          ASSERT_GE(resp.reply.epoch, expected_epoch);
          answered.fetch_add(1, std::memory_order_relaxed);
        });
        (void)router.top_k_vertices(
            static_cast<std::int32_t>(rng.next_below(4)), 5);
      }
    });
  }

  // At least 60 batches, then keep writing until an async answer has
  // landed: on a loaded machine the batches can all finish before either
  // reader is scheduled, and the assertion below is about the router
  // stack, not the scheduler. The deadline bounds a broken router.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto keep_writing = [&](int b) {
    return b < 60 || (answered.load(std::memory_order_relaxed) == 0 &&
                      std::chrono::steady_clock::now() < deadline);
  };
  util::Xoshiro256 rng(57);
  for (int b = 0; keep_writing(b); ++b) {
    UpdateBatch batch;
    for (int i = 0; i < 64; ++i) {
      batch.add(static_cast<VertexId>(rng.next_below(n)),
                static_cast<VertexId>(rng.next_below(n)));
    }
    set.apply(batch);
    if (b % 8 == 0) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  router.drain();
  EXPECT_GT(answered.load(), 0u);
}

}  // namespace
