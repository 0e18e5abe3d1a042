// Property-based differential conformance harness: every Backend in
// kAllBackends, on random SBM / R-MAT / Erdős–Rényi graphs across the
// preprocessing-option matrix, against the kCompiledSerial reference.
// Failure messages always carry the generator seed (it is embedded in the
// fixture name) so any red case replays from one number.
//
// Equality classes -- asserted per (backend, input path, thread count):
//
//  * BITWISE (max_abs_diff == 0): holds exactly when the backend commits
//    each Z cell's contributions in the same order as the reference on
//    that path. kPartitioned guarantees it by construction for any block
//    and thread count (stable bucketing; DESIGN.md section 5). Serial
//    executions of order-preserving traversals also qualify: all backends
//    walk the CSR in row order at one thread (graph path), and the
//    flat/interpreted kernels walk the raw edge array in order (edge-list
//    path). kParallelPull qualifies on the undirected graph path at ANY
//    thread count: each row is owned by one worker that scans the sorted
//    in-CSR, so per-cell order is thread-invariant.
//  * ULP TOLERANCE: reassociation-only differences. Engine backends on
//    the edge-list path regroup the edges by source when building the
//    temporary CSR, and atomic backends at > 1 thread interleave
//    nondeterministically -- same multiset of IEEE adds per cell, any
//    order, so the difference is bounded by accumulated rounding (1e-10
//    is ~6 orders of magnitude of headroom at these scales).
//  * EXCLUDED: kParallelUnsafe at > 1 thread. Racy load/add/store may
//    DROP updates entirely (the paper's atomics-off experiment); no
//    tolerance bounds that, so it only runs pinned to one thread here.
//
// The harness deliberately re-derives nothing from the backends' own
// claims: expectations are a hand-maintained table, so a new Backend
// fails to compile here until someone classifies it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gee/gee.hpp"
#include "graph/builder.hpp"
#include "serve/query_engine.hpp"
#include "serve/request.hpp"
#include "shard/router.hpp"
#include "shard/shard_set.hpp"
#include "simd/simd.hpp"
#include "stream/dynamic_gee.hpp"
#include "stream/update_batch.hpp"
#include "testing/random_graphs.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace {

using namespace gee;
using core::Backend;
using core::Options;
using core::max_abs_diff;

/// Differences that only reassociate the same per-cell add multiset stay
/// within a few ulps of ~1e-16-magnitude rounding; 1e-10 is generous.
constexpr double kUlpTol = 1e-10;

/// Seeds swept by default; the stress ctest entry raises this to 20+ via
/// the environment (see CMakeLists.txt).
int conformance_seeds() {
  return static_cast<int>(
      std::max<std::int64_t>(1, util::env_or("GEE_CONFORMANCE_SEEDS",
                                             std::int64_t{6})));
}

/// Small per-seed graphs: the sweep multiplies out to thousands of embeds.
testutil::GraphMatrixParams small_params() {
  testutil::GraphMatrixParams p;
  p.sbm_n = 180;
  p.rmat_n = 200;
  p.rmat_m = 1600;
  p.er_n = 220;
  p.er_m = 2200;
  return p;
}

struct Expectation {
  bool run_multi = false;       ///< also run at 4 threads
  bool bitwise_graph_1t = false;
  bool bitwise_graph_mt = false;
  bool bitwise_edges_1t = false;
  bool bitwise_edges_mt = false;
};

Expectation expectation(Backend backend) {
  switch (backend) {
    case Backend::kCompiledSerial:  // the reference itself
      return {false, true, false, true, false};
    case Backend::kInterpreted:  // serial regardless of thread count
      return {false, true, false, true, false};
    case Backend::kLigraSerial:  // engine pinned to 1 thread internally
      return {false, true, false, false, false};
    case Backend::kLigraParallel:
      return {true, true, false, false, false};
    case Backend::kParallelUnsafe:  // 1 thread only (may drop updates)
      return {false, true, false, false, false};
    case Backend::kParallelPull:  // row-owned: thread-invariant order
      return {true, true, true, false, false};
    case Backend::kFlatParallel:
      return {true, true, false, true, false};
    case Backend::kPartitioned:  // bitwise by construction, everywhere
      return {true, true, true, true, true};
  }
  ADD_FAILURE() << "unclassified backend " << core::to_string(backend);
  return {};
}

void check(double diff, bool bitwise, const char* path) {
  if (bitwise) {
    EXPECT_EQ(diff, 0.0) << path << " path: expected bitwise equality";
  } else {
    EXPECT_LT(diff, kUlpTol) << path << " path: reassociation bound blown";
  }
}

TEST(BackendConformance, EveryBackendMatchesCompiledSerial) {
  const int seeds = conformance_seeds();
  for (int s = 0; s < seeds; ++s) {
    for (const auto& rg :
         testutil::random_graph_matrix(1000 + s, small_params())) {
      const graph::Graph g =
          graph::Graph::build(rg.edges, graph::GraphKind::kUndirected);
      for (const auto& [combo, serial] :
           testutil::option_combos(Backend::kCompiledSerial)) {
        const auto ref_graph = core::embed(g, rg.labels, serial);
        const auto ref_edges = core::embed_edges(rg.edges, rg.labels, serial);
        for (const Backend backend : core::kAllBackends) {
          if (backend == Backend::kCompiledSerial) continue;
          const Expectation x = expectation(backend);
          for (const int threads : {1, 4}) {
            if (threads > 1 && !x.run_multi) continue;
            SCOPED_TRACE(rg.name + " / " + combo + " / " +
                         core::to_string(backend) + " / threads=" +
                         std::to_string(threads));
            Options options = serial;
            options.backend = backend;
            options.num_threads = threads;
            const auto got_graph = core::embed(g, rg.labels, options);
            check(max_abs_diff(got_graph.z, ref_graph.z),
                  threads == 1 ? x.bitwise_graph_1t : x.bitwise_graph_mt,
                  "graph");
            const auto got_edges =
                core::embed_edges(rg.edges, rg.labels, options);
            check(max_abs_diff(got_edges.z, ref_edges.z),
                  threads == 1 ? x.bitwise_edges_1t : x.bitwise_edges_mt,
                  "edge-list");
          }
        }
      }
    }
  }
}

// The SIMD layer's documented equality classes, observed end-to-end
// through embed(): the edge pass itself is scalar scatter (no lane math),
// so plain embeddings are bitwise-invariant to the runtime SIMD switch;
// row normalization (correlation) reduces with lane partials, so SIMD
// on-vs-off lands in the ulp class there.
TEST(BackendConformance, SimdOnOffClasses) {
  const bool prev = simd::enabled();
  for (const auto& rg : testutil::random_graph_matrix(5151, small_params())) {
    const graph::Graph g =
        graph::Graph::build(rg.edges, graph::GraphKind::kUndirected);
    for (const Backend backend :
         {Backend::kCompiledSerial, Backend::kPartitioned}) {
      SCOPED_TRACE(rg.name + " / " + core::to_string(backend));
      const Options plain{.backend = backend, .num_threads = 4};
      Options corr = plain;
      corr.correlation = true;

      simd::set_enabled(false);
      const auto plain_scalar = core::embed(g, rg.labels, plain);
      const auto corr_scalar = core::embed(g, rg.labels, corr);
      simd::set_enabled(true);
      const auto plain_simd = core::embed(g, rg.labels, plain);
      const auto corr_simd = core::embed(g, rg.labels, corr);
      simd::set_enabled(prev);

      EXPECT_EQ(max_abs_diff(plain_simd.z, plain_scalar.z), 0.0)
          << "plain embeddings must be bitwise-invariant to the SIMD switch";
      EXPECT_LT(max_abs_diff(corr_simd.z, corr_scalar.z), kUlpTol)
          << "correlation normalization is the reassociating (ulp) class";
    }
  }
  simd::set_enabled(prev);
}

// Backends whose output is a pure function of (input, thread count) must
// reproduce themselves exactly across runs. The atomic push backends
// (kLigraParallel, kFlatParallel, kParallelUnsafe) are excluded above one
// thread: scheduling picks the interleaving.
TEST(BackendConformance, DeterministicBackendsReproduceAcrossRuns) {
  const Backend deterministic[] = {
      Backend::kInterpreted, Backend::kLigraSerial, Backend::kParallelPull,
      Backend::kPartitioned,
  };
  for (const auto& rg : testutil::random_graph_matrix(77, small_params())) {
    const graph::Graph g =
        graph::Graph::build(rg.edges, graph::GraphKind::kUndirected);
    for (const Backend backend : deterministic) {
      SCOPED_TRACE(rg.name + " / " + core::to_string(backend));
      const Options options{.backend = backend, .num_threads = 4};
      const auto first = core::embed(g, rg.labels, options);
      const auto second = core::embed(g, rg.labels, options);
      EXPECT_EQ(max_abs_diff(first.z, second.z), 0.0);
    }
  }
}

// The sharded serving tier's conformance contract (DESIGN.md section 11):
// for ANY shard count and either placement mode, every answer the Router
// serves -- in-sample lookups, out-of-sample synthesis, class rankings,
// cross-shard top-k vertex merges -- is bitwise equal to a single
// unsharded QueryEngine over the same graph, before AND after a stream
// batch lands on both sides. Same harness scaling as the backend sweep:
// GEE_CONFORMANCE_SEEDS widens it in the stress ctest entry.
TEST(ShardConformance, RouterMatchesUnshardedEngineBitwise) {
  using serve::VertexQuery;
  using shard::Router;
  using shard::ShardMode;
  using shard::ShardSet;

  const int seeds = conformance_seeds();
  for (int s = 0; s < seeds; ++s) {
    for (const auto& rg :
         testutil::random_graph_matrix(9000 + s, small_params())) {
      const graph::VertexId n = rg.edges.num_vertices();
      util::Xoshiro256 rng(util::hash_combine(rg.seed, 101));

      // One stream batch, pre-drawn so every shard configuration and the
      // references see the identical op sequence.
      stream::UpdateBatch batch;
      for (int i = 0; i < 48; ++i) {
        batch.add(static_cast<graph::VertexId>(rng.next_below(n)),
                  static_cast<graph::VertexId>(rng.next_below(n)),
                  static_cast<graph::Weight>(1 + rng.next_below(4)) * 0.5f);
      }

      // Unsharded references for both sides of the batch.
      stream::DynamicGee before_gee(rg.edges, rg.labels);
      const serve::QueryEngine before(before_gee);
      stream::DynamicGee after_gee(rg.edges, rg.labels);
      after_gee.apply(batch);
      const serve::QueryEngine after(after_gee);

      std::vector<graph::VertexId> probes{0, n / 3, n / 2, n - 1};
      std::vector<VertexQuery> oos(3);
      for (auto& q : oos) {
        for (int j = 0; j < 5; ++j) {
          q.neighbors.emplace_back(
              static_cast<graph::VertexId>(rng.next_below(n)),
              static_cast<graph::Weight>(1 + rng.next_below(3)));
        }
      }

      auto expect_parity = [&](const Router& router,
                               const serve::QueryEngine& reference) {
        for (const auto v : probes) {
          ASSERT_EQ(router.lookup(v).row, reference.lookup(v).row)
              << "lookup v=" << v;
        }
        for (const auto& q : oos) {
          ASSERT_EQ(router.query(q).row, reference.query(q).row);
        }
        const auto ranked_classes = router.top_k_classes(probes[1], 3);
        const auto expected_classes =
            serve::top_k_classes(reference.lookup(probes[1]).row, 3);
        ASSERT_EQ(ranked_classes.size(), expected_classes.size());
        for (std::size_t i = 0; i < expected_classes.size(); ++i) {
          ASSERT_EQ(ranked_classes[i].cls, expected_classes[i].cls);
          ASSERT_EQ(ranked_classes[i].score, expected_classes[i].score);
        }
        const int classes = reference.num_classes();
        for (const std::int32_t cls : {0, classes - 1}) {
          for (const int k : {1, 7, 0}) {
            ASSERT_EQ(router.top_k_vertices(cls, k),
                      reference.top_k_vertices(cls, k))
                << "cls=" << cls << " k=" << k;
          }
        }
      };

      for (const int shards : {1, 2, 3, 7}) {
        for (const ShardMode mode :
             {ShardMode::kOwned, ShardMode::kReplicated}) {
          SCOPED_TRACE(rg.name + " / shards=" + std::to_string(shards) +
                       " / " + shard::to_string(mode));
          ShardSet set(rg.edges, rg.labels, shards, mode);
          Router router(set);
          expect_parity(router, before);
          set.apply(batch);
          expect_parity(router, after);
        }
      }
    }
  }
}

}  // namespace
