// Tests for the graph substrate: EdgeList, CSR builder, transpose,
// transforms, and validation. Structural invariants are checked on random
// graphs via parameterized sweeps. Row layouts are pinned exactly: sorted
// rows follow (target, weight), unsorted rows follow input order, and both
// are byte-identical across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "graph/transform.hpp"
#include "graph/validation.hpp"
#include "parallel/parallel_for.hpp"
#include "util/rng.hpp"

namespace {

using namespace gee::graph;
using gee::par::ThreadScope;
using gee::util::Xoshiro256;

EdgeList random_edges(VertexId n, EdgeId m, std::uint64_t seed,
                      bool weighted = false) {
  Xoshiro256 rng(seed);
  EdgeList el(n);
  for (EdgeId e = 0; e < m; ++e) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>(rng.next_below(n));
    if (weighted) {
      el.add(u, v, static_cast<Weight>(rng.next_below(9) + 1));
    } else {
      el.add(u, v);
    }
  }
  return el;
}

// ------------------------------------------------------------------ EdgeList

TEST(EdgeList, GrowsVertexCount) {
  EdgeList el;
  el.add(3, 7);
  EXPECT_EQ(el.num_vertices(), 8u);
  el.add(10, 2);
  EXPECT_EQ(el.num_vertices(), 11u);
  EXPECT_EQ(el.num_edges(), 2u);
}

TEST(EdgeList, UnweightedReportsUnitWeights) {
  EdgeList el;
  el.add(0, 1);
  EXPECT_FALSE(el.weighted());
  EXPECT_EQ(el.weight(0), 1.0f);
  EXPECT_TRUE(el.weights().empty());
}

TEST(EdgeList, LateWeightMaterializesEarlierUnits) {
  EdgeList el;
  el.add(0, 1);
  el.add(1, 2);
  el.add(2, 3, 5.0f);  // switch to weighted
  ASSERT_TRUE(el.weighted());
  EXPECT_EQ(el.weight(0), 1.0f);
  EXPECT_EQ(el.weight(1), 1.0f);
  EXPECT_EQ(el.weight(2), 5.0f);
}

TEST(EdgeList, AdoptValidatesLengths) {
  EXPECT_THROW(EdgeList::adopt(4, {0, 1}, {1}), std::invalid_argument);
  EXPECT_THROW(EdgeList::adopt(4, {0, 1}, {1, 2}, {1.0f}),
               std::invalid_argument);
  const auto el = EdgeList::adopt(4, {0, 1}, {1, 2});
  EXPECT_EQ(el.num_edges(), 2u);
  EXPECT_FALSE(el.weighted());
}

TEST(EdgeList, EdgeAccessor) {
  EdgeList el;
  el.add(2, 5, 1.5f);
  const Edge e = el.edge(0);
  EXPECT_EQ(e, (Edge{2, 5, 1.5f}));
}

// --------------------------------------------------------------------- build

TEST(BuildCsr, SmallHandCheckedGraph) {
  EdgeList el(4);
  el.add(0, 1);
  el.add(0, 2);
  el.add(1, 2);
  el.add(3, 0);
  el.add(0, 3);
  const Csr csr = build_csr(el, 4);

  EXPECT_EQ(csr.num_vertices(), 4u);
  EXPECT_EQ(csr.num_edges(), 5u);
  EXPECT_EQ(csr.degree(0), 3u);
  EXPECT_EQ(csr.degree(1), 1u);
  EXPECT_EQ(csr.degree(2), 0u);
  EXPECT_EQ(csr.degree(3), 1u);
  const auto row0 = csr.neighbors(0);
  EXPECT_EQ(std::vector<VertexId>(row0.begin(), row0.end()),
            (std::vector<VertexId>{1, 2, 3}));
  EXPECT_TRUE(validate(csr).empty());
}

TEST(BuildCsr, RejectsOutOfRangeVertices) {
  EdgeList el(3);
  el.add(0, 1);
  EXPECT_THROW(build_csr(el, 1), std::out_of_range);
}

TEST(BuildCsr, EmptyGraph) {
  const Csr csr = build_csr(EdgeList(5), 5);
  EXPECT_EQ(csr.num_vertices(), 5u);
  EXPECT_EQ(csr.num_edges(), 0u);
  EXPECT_TRUE(validate(csr).empty());
  EXPECT_EQ(csr.degree(4), 0u);
}

TEST(BuildCsr, PreservesWeights) {
  EdgeList el(3);
  el.add(0, 2, 2.5f);
  el.add(0, 1, 1.5f);
  const Csr csr = build_csr(el, 3);
  ASSERT_TRUE(csr.weighted());
  // sorted by target: (0,1,1.5) then (0,2,2.5)
  const auto w = csr.edge_weights(0);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], 1.5f);
  EXPECT_EQ(w[1], 2.5f);
}

TEST(BuildCsr, ParallelMultigraphKeepsAllCopies) {
  EdgeList el(2);
  for (int i = 0; i < 5; ++i) el.add(0, 1);
  const Csr csr = build_csr(el, 2);
  EXPECT_EQ(csr.degree(0), 5u);
}

/// Row u of `csr` as (target, weight) pairs in storage order.
std::vector<std::pair<VertexId, Weight>> row_pairs(const Csr& csr,
                                                   VertexId u) {
  std::vector<std::pair<VertexId, Weight>> row;
  const auto targets = csr.neighbors(u);
  const auto weights = csr.edge_weights(u);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    row.push_back({targets[i], weights.empty() ? Weight{1} : weights[i]});
  }
  return row;
}

class BuildSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BuildSweep, MatchesSerialOracle) {
  const auto [n, m] = GetParam();
  const auto el = random_edges(static_cast<VertexId>(n),
                               static_cast<EdgeId>(m), 42, /*weighted=*/true);
  const Csr csr = build_csr(el, static_cast<VertexId>(n));
  const Csr unsorted =
      build_csr(el, static_cast<VertexId>(n), {.sort_neighbors = false});
  EXPECT_TRUE(validate(csr).empty());
  EXPECT_TRUE(validate(unsorted).empty());
  EXPECT_EQ(csr.num_edges(), el.num_edges());
  EXPECT_TRUE(has_sorted_rows(csr));

  // Oracle: each row's (target, weight) pairs in input order, built
  // serially; the sorted build must hold them sorted by (target, weight).
  std::vector<std::vector<std::pair<VertexId, Weight>>> oracle(
      static_cast<std::size_t>(n));
  for (EdgeId e = 0; e < el.num_edges(); ++e) {
    oracle[el.src(e)].push_back({el.dst(e), el.weight(e)});
  }
  for (VertexId u = 0; u < static_cast<VertexId>(n); ++u) {
    ASSERT_EQ(row_pairs(unsorted, u), oracle[u]) << "unsorted row " << u;
    std::sort(oracle[u].begin(), oracle[u].end());
    ASSERT_EQ(row_pairs(csr, u), oracle[u]) << "sorted row " << u;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BuildSweep,
                         ::testing::Values(std::tuple{1, 0}, std::tuple{2, 1},
                                           std::tuple{10, 50},
                                           std::tuple{100, 1000},
                                           std::tuple{1000, 100000}));

TEST(BuildCsr, DeterministicAcrossThreadCounts) {
  const auto el = random_edges(2000, 200000, 7, true);
  for (const bool sorted : {true, false}) {
    const BuildOptions options{.sort_neighbors = sorted};
    Csr ref;
    {
      ThreadScope scope(1);
      ref = build_csr(el, 2000, options);
    }
    for (int t : {2, 7, 8}) {
      ThreadScope scope(t);
      const Csr got = build_csr(el, 2000, options);
      ASSERT_TRUE(std::ranges::equal(got.offsets(), ref.offsets()))
          << "sorted=" << sorted << " threads=" << t;
      ASSERT_TRUE(std::ranges::equal(got.targets(), ref.targets()))
          << "sorted=" << sorted << " threads=" << t;
      ASSERT_TRUE(std::ranges::equal(got.weights(), ref.weights()))
          << "sorted=" << sorted << " threads=" << t;
    }
  }
}

// ----------------------------------------------------------------- transpose

TEST(Transpose, InvertsEdges) {
  const auto el = random_edges(300, 5000, 11, true);
  const Csr fwd = build_csr(el, 300);
  const Csr rev = transpose(fwd);
  EXPECT_EQ(rev.num_edges(), fwd.num_edges());
  EXPECT_TRUE(validate(rev).empty());

  // Exact layout: row v lists the sources of v's in-arcs ascending, ties
  // between parallel arcs broken by weight.
  std::vector<std::vector<std::pair<VertexId, Weight>>> oracle(300);
  for (VertexId u = 0; u < 300; ++u) {
    for (const auto& [v, w] : row_pairs(fwd, u)) oracle[v].push_back({u, w});
  }
  for (VertexId v = 0; v < 300; ++v) {
    std::sort(oracle[v].begin(), oracle[v].end());
    ASSERT_EQ(row_pairs(rev, v), oracle[v]) << "row " << v;
  }
}

TEST(Transpose, DoubleTransposeIsIdentity) {
  const auto el = random_edges(200, 3000, 13);
  const Csr a = build_csr(el, 200);
  const Csr b = transpose(transpose(a));
  EXPECT_TRUE(std::ranges::equal(a.offsets(), b.offsets()));
  EXPECT_TRUE(std::ranges::equal(a.targets(), b.targets()));
}

// --------------------------------------------------------------------- Graph

TEST(Graph, UndirectedSharesSymmetricCsr) {
  EdgeList el(3);
  el.add(0, 1);
  el.add(1, 2);
  const Graph g = Graph::build(el, GraphKind::kUndirected);
  EXPECT_FALSE(g.directed());
  EXPECT_EQ(g.num_arcs(), 4u);  // each edge stored twice
  EXPECT_TRUE(is_symmetric(g.out()));
  EXPECT_EQ(&g.out(), &g.in());  // shared storage
}

TEST(Graph, DirectedBuildsTranspose) {
  EdgeList el(3);
  el.add(0, 1);
  el.add(0, 2);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  EXPECT_TRUE(g.directed());
  ASSERT_TRUE(g.has_in());
  EXPECT_EQ(g.out().degree(0), 2u);
  EXPECT_EQ(g.in().degree(1), 1u);
  EXPECT_EQ(g.in().degree(0), 0u);
}

TEST(Graph, DirectedWithoutInCsr) {
  EdgeList el(2);
  el.add(0, 1);
  const Graph g =
      Graph::build(el, GraphKind::kDirected, {.build_in_csr = false});
  EXPECT_FALSE(g.has_in());
}

TEST(Graph, SymmetrizedKindSkipsMirroring) {
  EdgeList el(2);
  el.add(0, 1);
  el.add(1, 0);
  const Graph g = Graph::build(el, GraphKind::kSymmetrized);
  EXPECT_EQ(g.num_arcs(), 2u);
  EXPECT_TRUE(is_symmetric(g.out()));
}

// ---------------------------------------------------------------- transforms

TEST(Symmetrize, MirrorsEverythingIncludingLoops) {
  EdgeList el(3);
  el.add(0, 1, 2.0f);
  el.add(2, 2, 3.0f);  // self-loop: emitted twice (degree convention + GEE)
  const EdgeList sym = symmetrize(el);
  EXPECT_EQ(sym.num_edges(), 4u);  // (0,1), (1,0), (2,2) x2
  std::multiset<std::tuple<VertexId, VertexId, Weight>> got;
  for (EdgeId e = 0; e < sym.num_edges(); ++e)
    got.insert({sym.src(e), sym.dst(e), sym.weight(e)});
  EXPECT_EQ(got, (std::multiset<std::tuple<VertexId, VertexId, Weight>>{
                     {0, 1, 2.0f}, {1, 0, 2.0f}, {2, 2, 3.0f}, {2, 2, 3.0f}}));
}

TEST(RemoveSelfLoops, DropsOnlyLoops) {
  EdgeList el(3);
  el.add(0, 0);
  el.add(0, 1);
  el.add(1, 1);
  el.add(2, 1);
  const EdgeList out = remove_self_loops(el);
  EXPECT_EQ(out.num_edges(), 2u);
  EXPECT_EQ(out.src(0), 0u);
  EXPECT_EQ(out.dst(0), 1u);
  EXPECT_EQ(out.src(1), 2u);
}

TEST(AddSelfLoops, AppendsOnePerVertex) {
  EdgeList el(3);
  el.add(0, 1, 2.0f);
  const EdgeList out = add_self_loops(el, 0.5f);
  EXPECT_EQ(out.num_edges(), 4u);
  EXPECT_EQ(out.edge(1), (Edge{0, 0, 0.5f}));
  EXPECT_EQ(out.edge(3), (Edge{2, 2, 0.5f}));
}

TEST(DedupEdges, SumsWeights) {
  EdgeList el(3);
  el.add(0, 1, 1.0f);
  el.add(0, 1, 2.5f);
  el.add(1, 2, 1.0f);
  const EdgeList out = dedup_edges(el);
  EXPECT_EQ(out.num_edges(), 2u);
  EXPECT_EQ(out.edge(0), (Edge{0, 1, 3.5f}));
  EXPECT_EQ(out.edge(1), (Edge{1, 2, 1.0f}));
}

TEST(DedupEdges, UnweightedDuplicatesBecomeMultiplicity) {
  EdgeList el(3);
  el.add(0, 1);
  el.add(0, 1);
  el.add(0, 1);
  el.add(1, 2);
  const EdgeList out = dedup_edges(el);
  ASSERT_TRUE(out.weighted());
  EXPECT_EQ(out.edge(0), (Edge{0, 1, 3.0f}));
  EXPECT_EQ(out.edge(1), (Edge{1, 2, 1.0f}));
}

TEST(DedupEdges, NoDuplicatesStaysUnweighted) {
  EdgeList el(3);
  el.add(1, 2);
  el.add(0, 1);
  const EdgeList out = dedup_edges(el);
  EXPECT_FALSE(out.weighted());
  EXPECT_EQ(out.num_edges(), 2u);
  // Output sorted by (src, dst).
  EXPECT_EQ(out.src(0), 0u);
}

TEST(RandomPermutation, IsBijection) {
  const auto perm = random_permutation(1000, 5);
  std::set<VertexId> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 999u);
}

TEST(RandomPermutation, SeedDeterminism) {
  EXPECT_EQ(random_permutation(100, 9), random_permutation(100, 9));
  EXPECT_NE(random_permutation(100, 9), random_permutation(100, 10));
}

TEST(RelabelVertices, PreservesStructure) {
  const auto el = random_edges(50, 500, 3);
  const auto perm = random_permutation(50, 4);
  const EdgeList rel = relabel_vertices(el, perm);
  ASSERT_EQ(rel.num_edges(), el.num_edges());
  for (EdgeId e = 0; e < el.num_edges(); ++e) {
    EXPECT_EQ(rel.src(e), perm[el.src(e)]);
    EXPECT_EQ(rel.dst(e), perm[el.dst(e)]);
  }
}

TEST(ShuffleEdges, SameMultisetDifferentOrder) {
  const auto el = random_edges(50, 2000, 21);
  const EdgeList sh = shuffle_edges(el, 77);
  ASSERT_EQ(sh.num_edges(), el.num_edges());
  std::multiset<std::pair<VertexId, VertexId>> a, b;
  bool any_moved = false;
  for (EdgeId e = 0; e < el.num_edges(); ++e) {
    a.insert({el.src(e), el.dst(e)});
    b.insert({sh.src(e), sh.dst(e)});
    any_moved |= (el.src(e) != sh.src(e) || el.dst(e) != sh.dst(e));
  }
  EXPECT_EQ(a, b);
  EXPECT_TRUE(any_moved);
}

// ---------------------------------------------------------------- validation

TEST(Validate, DetectsBrokenOffsets) {
  // Construct through the throwing constructor -> must throw.
  EXPECT_THROW(Csr({0, 2, 1}, {0, 1}), std::invalid_argument);
  EXPECT_THROW(Csr({1, 2}, {0, 1}), std::invalid_argument);
  EXPECT_THROW(Csr({0, 1}, {0}, {1.0f, 2.0f}), std::invalid_argument);
}

TEST(Validate, CleanGraphHasNoIssues) {
  const auto el = random_edges(100, 1000, 1);
  EXPECT_TRUE(validate(build_csr(el, 100)).empty());
}

TEST(HasEdge, BinarySearchOnSortedRows) {
  EdgeList el(4);
  el.add(0, 3);
  el.add(0, 1);
  const Csr csr = build_csr(el, 4);
  EXPECT_TRUE(has_edge(csr, 0, 1));
  EXPECT_TRUE(has_edge(csr, 0, 3));
  EXPECT_FALSE(has_edge(csr, 0, 2));
  EXPECT_FALSE(has_edge(csr, 1, 0));
}

TEST(IsSymmetric, DetectsAsymmetry) {
  EdgeList sym(3);
  sym.add(0, 1);
  sym.add(1, 0);
  EXPECT_TRUE(is_symmetric(build_csr(sym, 3)));

  EdgeList asym(3);
  asym.add(0, 1);
  EXPECT_FALSE(is_symmetric(build_csr(asym, 3)));
}

TEST(DegreeStats, HandComputed) {
  EdgeList el(4);
  el.add(0, 1);
  el.add(0, 2);
  el.add(0, 3);
  el.add(1, 0);
  const auto s = degree_stats(build_csr(el, 4));
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 1.0);
  EXPECT_EQ(s.isolated, 2u);
}

TEST(Describe, MentionsCounts) {
  const auto el = random_edges(100, 500, 2);
  const std::string d = describe(build_csr(el, 100));
  EXPECT_NE(d.find("n="), std::string::npos);
  EXPECT_NE(d.find("m="), std::string::npos);
}

}  // namespace
