// Tests for the Ligra-like engine: VertexSubset representations and
// edgeMap mode selection and equivalence (sparse == dense ==
// dense-forward) against serial oracles.
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "graph/csr.hpp"
#include "ligra/edge_map.hpp"
#include "ligra/vertex_subset.hpp"
#include "parallel/atomics.hpp"
#include "util/rng.hpp"

namespace {

using namespace gee::graph;
using namespace gee::ligra;
using gee::util::Xoshiro256;

EdgeList random_edges(VertexId n, EdgeId m, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  EdgeList el(n);
  for (EdgeId e = 0; e < m; ++e) {
    el.add(static_cast<VertexId>(rng.next_below(n)),
           static_cast<VertexId>(rng.next_below(n)));
  }
  return el;
}

// -------------------------------------------------------------- VertexSubset

TEST(VertexSubset, FactoriesAndCounts) {
  const auto e = VertexSubset::empty(10);
  EXPECT_EQ(e.size(), 0u);
  EXPECT_TRUE(e.is_empty());
  EXPECT_EQ(e.universe(), 10u);

  const auto a = VertexSubset::all(10);
  EXPECT_EQ(a.size(), 10u);
  EXPECT_TRUE(a.is_dense());
  EXPECT_TRUE(a.contains(0));
  EXPECT_TRUE(a.contains(9));

  const auto s = VertexSubset::single(10, 3);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(4));
}

TEST(VertexSubset, SparseMembersSorted) {
  const auto s = VertexSubset::from_sparse(10, {7, 1, 4});
  const auto members = s.sparse_members();
  EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
  EXPECT_EQ(s.size(), 3u);
}

TEST(VertexSubset, DenseSparseRoundTrip) {
  auto s = VertexSubset::from_sparse(100, {5, 50, 99});
  s.to_dense();
  EXPECT_TRUE(s.is_dense());
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(50));
  EXPECT_FALSE(s.contains(51));
  s.to_sparse();
  EXPECT_FALSE(s.is_dense());
  const auto members = s.sparse_members();
  EXPECT_EQ(std::vector<VertexId>(members.begin(), members.end()),
            (std::vector<VertexId>{5, 50, 99}));
}

TEST(VertexSubset, FromDenseCountsFlags) {
  std::vector<std::uint8_t> flags(50, 0);
  flags[2] = flags[30] = 1;
  const auto s = VertexSubset::from_dense(std::move(flags));
  EXPECT_EQ(s.size(), 2u);
}

TEST(VertexSubset, ForEachVisitsExactlyMembers) {
  auto s = VertexSubset::from_sparse(1000, {1, 10, 100});
  std::set<VertexId> seen;
  s.for_each([&](VertexId v) { seen.insert(v); });
  EXPECT_EQ(seen, (std::set<VertexId>{1, 10, 100}));
  s.to_dense();
  std::vector<std::uint8_t> hits(1000, 0);
  s.for_each([&](VertexId v) { hits[v] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 3);
}

TEST(VertexSubset, ConversionIsIdempotent) {
  auto s = VertexSubset::all(20);
  s.to_dense();  // already dense: no-op
  EXPECT_EQ(s.size(), 20u);
  s.to_sparse();
  s.to_sparse();
  EXPECT_EQ(s.size(), 20u);
}

// ------------------------------------------------------------------ edgeMap

/// Counts per-target activations; update returns true always.
struct CountFunctor {
  double* acc;
  bool update(VertexId /*u*/, VertexId v, Weight w) {
    acc[v] += w;
    return true;
  }
  bool update_atomic(VertexId /*u*/, VertexId v, Weight w) {
    gee::par::write_add(acc[v], static_cast<double>(w));
    return true;
  }
  static bool cond(VertexId /*v*/) { return true; }
};

class EdgeMapModeTest : public ::testing::TestWithParam<EdgeMapMode> {};

TEST_P(EdgeMapModeTest, AllModesMatchSerialOracle) {
  const VertexId n = 500;
  const auto el = random_edges(n, 5000, 3);
  const Graph g = Graph::build(el, GraphKind::kDirected);

  // Frontier: every third vertex.
  std::vector<VertexId> members;
  for (VertexId v = 0; v < n; v += 3) members.push_back(v);
  VertexSubset frontier = VertexSubset::from_sparse(n, members);

  std::vector<double> acc(n, 0.0);
  EdgeMapStats stats;
  VertexSubset out = edge_map(g, frontier, CountFunctor{acc.data()},
                              {.mode = GetParam()}, &stats);
  EXPECT_EQ(stats.mode_used, GetParam());

  // Serial oracle over the raw edge list.
  std::vector<double> expected(n, 0.0);
  std::vector<std::uint8_t> active(n, 0);
  std::set<VertexId> fset(members.begin(), members.end());
  for (EdgeId e = 0; e < el.num_edges(); ++e) {
    if (fset.count(el.src(e)) != 0) {
      expected[el.dst(e)] += 1.0;
      active[el.dst(e)] = 1;
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_DOUBLE_EQ(acc[v], expected[v]) << "vertex " << v;
    ASSERT_EQ(out.contains(v), active[v] != 0) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, EdgeMapModeTest,
                         ::testing::Values(EdgeMapMode::kSparse,
                                           EdgeMapMode::kDense,
                                           EdgeMapMode::kDenseForward));

TEST(EdgeMap, AutoPicksSparseForTinyFrontier) {
  const auto el = random_edges(1000, 20000, 9);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  VertexSubset frontier = VertexSubset::single(1000, 0);
  std::vector<double> acc(1000, 0.0);
  EdgeMapStats stats;
  edge_map(g, frontier, CountFunctor{acc.data()}, {}, &stats);
  EXPECT_EQ(stats.mode_used, EdgeMapMode::kSparse);
}

TEST(EdgeMap, AutoPicksDenseForFullFrontier) {
  const auto el = random_edges(1000, 20000, 10);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  VertexSubset frontier = VertexSubset::all(1000);
  std::vector<double> acc(1000, 0.0);
  EdgeMapStats stats;
  edge_map(g, frontier, CountFunctor{acc.data()}, {}, &stats);
  EXPECT_EQ(stats.mode_used, EdgeMapMode::kDense);
  EXPECT_EQ(stats.frontier_degree, 20000u);
}

TEST(EdgeMap, AutoFallsBackToPushWithoutInCsr) {
  const auto el = random_edges(1000, 20000, 11);
  const Graph g =
      Graph::build(el, GraphKind::kDirected, {.build_in_csr = false});
  VertexSubset frontier = VertexSubset::all(1000);
  std::vector<double> acc(1000, 0.0);
  EdgeMapStats stats;
  edge_map(g, frontier, CountFunctor{acc.data()}, {}, &stats);
  EXPECT_EQ(stats.mode_used, EdgeMapMode::kDenseForward);
}

TEST(EdgeMap, ProduceOutputFalseSkipsFrontier) {
  const auto el = random_edges(100, 1000, 12);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  VertexSubset frontier = VertexSubset::all(100);
  std::vector<double> acc(100, 0.0), acc2(100, 0.0);
  const VertexSubset out = edge_map(g, frontier, CountFunctor{acc.data()},
                                    {.produce_output = false});
  EXPECT_TRUE(out.is_empty());
  // Accumulation must still happen.
  edge_map(g, frontier, CountFunctor{acc2.data()}, {});
  EXPECT_EQ(acc, acc2);
}

TEST(EdgeMap, CondShortCircuitsDensePull) {
  // cond(v) false => v receives no updates in any mode.
  struct CondFunctor {
    double* acc;
    bool update(VertexId, VertexId v, Weight w) {
      acc[v] += w;
      return true;
    }
    bool update_atomic(VertexId u, VertexId v, Weight w) {
      return update(u, v, w);
    }
    static bool cond(VertexId v) { return v % 2 == 0; }
  };
  const auto el = random_edges(200, 4000, 13);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  for (auto mode :
       {EdgeMapMode::kSparse, EdgeMapMode::kDense, EdgeMapMode::kDenseForward}) {
    VertexSubset frontier = VertexSubset::all(200);
    std::vector<double> acc(200, 0.0);
    edge_map(g, frontier, CondFunctor{acc.data()}, {.mode = mode});
    for (VertexId v = 1; v < 200; v += 2) {
      ASSERT_EQ(acc[v], 0.0) << "mode " << static_cast<int>(mode);
    }
  }
}

TEST(EdgeMap, WeightsReachFunctor) {
  EdgeList el(3);
  el.add(0, 1, 2.5f);
  el.add(0, 2, 0.5f);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  VertexSubset frontier = VertexSubset::single(3, 0);
  std::vector<double> acc(3, 0.0);
  edge_map(g, frontier, CountFunctor{acc.data()},
           {.mode = EdgeMapMode::kSparse});
  EXPECT_DOUBLE_EQ(acc[1], 2.5);
  EXPECT_DOUBLE_EQ(acc[2], 0.5);
}

TEST(VertexMapAndFilter, Basics) {
  auto s = VertexSubset::from_sparse(10, {1, 2, 3, 8});
  std::vector<int> hits(10, 0);
  vertex_map(s, [&](VertexId v) { hits[v] = 1; });
  EXPECT_EQ(hits[1] + hits[2] + hits[3] + hits[8], 4);

  const auto f = vertex_filter(s, [](VertexId v) { return v % 2 == 0; });
  EXPECT_EQ(f.size(), 2u);
  EXPECT_TRUE(f.contains(2));
  EXPECT_TRUE(f.contains(8));
  EXPECT_FALSE(f.contains(1));
}

TEST(EdgeMap, ThresholdBoundarySelectsCorrectMode) {
  // m = 20000, threshold m/20 = 1000: a frontier whose size+degree is just
  // below stays sparse; just above goes dense.
  const auto el = random_edges(2000, 20000, 31);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  std::vector<double> acc(2000, 0.0);

  // Collect vertices until out-degree sum + count crosses the threshold.
  std::vector<VertexId> below, above;
  EdgeId degree_sum = 0;
  for (VertexId v = 0; v < 2000; ++v) {
    const EdgeId next = degree_sum + g.out().degree(v) + 1;
    if (next + 50 < 1000) {  // margin keeps the test robust
      below.push_back(v);
      degree_sum = next;
    }
  }
  VertexSubset small = VertexSubset::from_sparse(2000, below);
  EdgeMapStats stats;
  edge_map(g, small, CountFunctor{acc.data()}, {}, &stats);
  EXPECT_EQ(stats.mode_used, EdgeMapMode::kSparse);

  VertexSubset big = VertexSubset::all(2000);
  edge_map(g, big, CountFunctor{acc.data()}, {}, &stats);
  EXPECT_EQ(stats.mode_used, EdgeMapMode::kDense);
}

TEST(EdgeMap, EmptyFrontierIsNoOpInEveryMode) {
  const auto el = random_edges(100, 1000, 41);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  for (auto mode : {EdgeMapMode::kSparse, EdgeMapMode::kDense,
                    EdgeMapMode::kDenseForward, EdgeMapMode::kAuto}) {
    VertexSubset frontier = VertexSubset::empty(100);
    std::vector<double> acc(100, 0.0);
    const VertexSubset out =
        edge_map(g, frontier, CountFunctor{acc.data()}, {.mode = mode});
    EXPECT_TRUE(out.is_empty()) << "mode " << static_cast<int>(mode);
    for (VertexId v = 0; v < 100; ++v) {
      ASSERT_EQ(acc[v], 0.0) << "mode " << static_cast<int>(mode);
    }
  }
}

TEST(EdgeMap, OutputDeduplicatesMultiplePredecessors) {
  // Ten frontier sources all point at vertex 10; the output frontier must
  // carry it once, in every mode, even though update fires ten times.
  EdgeList el(11);
  for (VertexId u = 0; u < 10; ++u) el.add(u, 10);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  for (auto mode :
       {EdgeMapMode::kSparse, EdgeMapMode::kDense, EdgeMapMode::kDenseForward}) {
    VertexSubset frontier = VertexSubset::from_sparse(11, {0, 1, 2, 3, 4, 5,
                                                           6, 7, 8, 9});
    std::vector<double> acc(11, 0.0);
    VertexSubset out =
        edge_map(g, frontier, CountFunctor{acc.data()}, {.mode = mode});
    EXPECT_EQ(out.size(), 1u) << "mode " << static_cast<int>(mode);
    EXPECT_TRUE(out.contains(10));
    out.to_sparse();
    const auto members = out.sparse_members();
    ASSERT_EQ(members.size(), 1u);
    EXPECT_EQ(members[0], 10u);
    EXPECT_DOUBLE_EQ(acc[10], 10.0);  // all updates ran; output still deduped
  }
}

}  // namespace
