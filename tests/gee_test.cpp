// Core GEE tests: hand-computed embeddings, backend equivalence against an
// independent oracle, option semantics (Laplacian / DiagA / Correlation),
// input validation, self-loop and multi-edge handling, and determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "gee/gee.hpp"
#include "gee/preprocess.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/labels.hpp"
#include "gen/rmat.hpp"
#include "graph/transform.hpp"
#include "parallel/parallel_for.hpp"
#include "util/rng.hpp"

namespace {

using namespace gee::core;
using namespace gee::graph;
using gee::par::ThreadScope;

/// Backends that must reproduce Algorithm 1 exactly (kParallelUnsafe is
/// deliberately lossy under contention -- see its dedicated tests below).
constexpr Backend kExactBackends[] = {
    Backend::kInterpreted,  Backend::kCompiledSerial,
    Backend::kLigraSerial,  Backend::kLigraParallel,
    Backend::kParallelPull, Backend::kFlatParallel,
    Backend::kPartitioned,
};

/// Independent oracle: Algorithm 1 exactly as printed in the paper, over
/// the raw edge list, dense W, no cleverness.
std::vector<double> oracle_embedding(const EdgeList& edges,
                                     std::span<const std::int32_t> labels,
                                     int k) {
  const std::size_t n = edges.num_vertices();
  std::vector<double> counts(static_cast<std::size_t>(k), 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (labels[v] >= 0) counts[static_cast<std::size_t>(labels[v])] += 1;
  }
  std::vector<double> w(n * static_cast<std::size_t>(k), 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    if (labels[v] >= 0 && counts[static_cast<std::size_t>(labels[v])] > 0) {
      w[v * k + static_cast<std::size_t>(labels[v])] =
          1.0 / counts[static_cast<std::size_t>(labels[v])];
    }
  }
  std::vector<double> z(n * static_cast<std::size_t>(k), 0.0);
  for (EdgeId e = 0; e < edges.num_edges(); ++e) {
    const auto u = edges.src(e);
    const auto v = edges.dst(e);
    const double weight = edges.weight(e);
    if (labels[v] >= 0) {
      z[static_cast<std::size_t>(u) * k + static_cast<std::size_t>(labels[v])] +=
          w[static_cast<std::size_t>(v) * k +
            static_cast<std::size_t>(labels[v])] *
          weight;
    }
    if (labels[u] >= 0) {
      z[static_cast<std::size_t>(v) * k + static_cast<std::size_t>(labels[u])] +=
          w[static_cast<std::size_t>(u) * k +
            static_cast<std::size_t>(labels[u])] *
          weight;
    }
  }
  return z;
}

double max_diff_vs_oracle(const Embedding& z, const std::vector<double>& oracle) {
  double worst = 0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    worst = std::max(worst, std::abs(z.data()[i] - oracle[i]));
  }
  return worst;
}

EdgeList random_edges(VertexId n, EdgeId m, std::uint64_t seed,
                      bool weighted = false, bool loops = false) {
  gee::util::Xoshiro256 rng(seed);
  EdgeList el(n);
  for (EdgeId e = 0; e < m; ++e) {
    auto u = static_cast<VertexId>(rng.next_below(n));
    auto v = static_cast<VertexId>(rng.next_below(n));
    if (!loops) {
      while (u == v) v = static_cast<VertexId>(rng.next_below(n));
    }
    if (weighted) {
      el.add(u, v, static_cast<Weight>(rng.next_below(8) + 1) * 0.5f);
    } else {
      el.add(u, v);
    }
  }
  el.ensure_vertices(n);
  return el;
}

// ----------------------------------------------------------- hand computed

TEST(Gee, HandComputedTriangle) {
  // Path 0-1, 1-2. Labels: Y = {0, 1, 0}. Class counts: c0 = 2, c1 = 1.
  // W: W(0,0) = 1/2, W(1,1) = 1, W(2,0) = 1/2.
  // Edge (0,1): Z(0,1) += W(1,1)*1 = 1;   Z(1,0) += W(0,0)*1 = 1/2.
  // Edge (1,2): Z(1,0) += W(2,0)*1 = 1/2; Z(2,1) += W(1,1)*1 = 1.
  EdgeList el(3);
  el.add(0, 1);
  el.add(1, 2);
  const std::vector<std::int32_t> y{0, 1, 0};

  for (Backend backend : kExactBackends) {
    const auto result = embed_edges(el, y, {.backend = backend});
    SCOPED_TRACE(to_string(backend));
    ASSERT_EQ(result.z.dim(), 2);
    EXPECT_DOUBLE_EQ(result.z.at(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(result.z.at(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(result.z.at(1, 0), 1.0);  // 1/2 + 1/2
    EXPECT_DOUBLE_EQ(result.z.at(1, 1), 0.0);
    EXPECT_DOUBLE_EQ(result.z.at(2, 0), 0.0);
    EXPECT_DOUBLE_EQ(result.z.at(2, 1), 1.0);
  }
}

TEST(Gee, HandComputedWeightedDirected) {
  // Single directed edge (0, 1, w=4), Y = {1, 0}: c0 = c1 = 1.
  // Z(0, Y(1)=0) += W(1,0)*4 = 4; Z(1, Y(0)=1) += W(0,1)*4 = 4.
  EdgeList el(2);
  el.add(0, 1, 4.0f);
  const std::vector<std::int32_t> y{1, 0};
  const Graph g = Graph::build(el, GraphKind::kDirected);
  const auto result = embed(g, y, {.backend = Backend::kCompiledSerial});
  EXPECT_DOUBLE_EQ(result.z.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(result.z.at(1, 1), 4.0);
  EXPECT_DOUBLE_EQ(result.z.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(result.z.at(1, 0), 0.0);
}

/// Thread counts a backend runs at in the graph-path sweeps below:
/// kParallelUnsafe may drop updates above one thread, so it runs at one
/// (backend_conformance_test's expectation() table excludes it there too).
std::vector<int> sweep_threads(Backend backend) {
  if (backend == Backend::kParallelUnsafe) return {1};
  return {1, 4};
}

std::string sweep_name(GraphKind kind, Backend backend, int threads) {
  return std::string(kind == GraphKind::kDirected ? "directed" : "undirected") +
         " / " + to_string(backend) + " / threads=" + std::to_string(threads);
}

TEST(Gee, UnlabeledVerticesContributeNothing) {
  // Y(1) = -1: edge (0,1) must add nothing to Z(0,:), but Z(1, Y(0)) still
  // accumulates (unlabeled vertices are embedded, they just donate no mass).
  EdgeList el(2);
  el.add(0, 1);
  const std::vector<std::int32_t> y{0, -1};
  const auto result = embed_edges(el, y, {.backend = Backend::kCompiledSerial});
  ASSERT_EQ(result.z.dim(), 1);
  EXPECT_DOUBLE_EQ(result.z.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(result.z.at(1, 0), 1.0);

  // The graph path, where the engine backends walk only the labelled rows
  // of an undirected graph and every row of a directed one.
  for (const GraphKind kind : {GraphKind::kUndirected, GraphKind::kDirected}) {
    const Graph g = Graph::build(el, kind);
    for (const Backend backend : kAllBackends) {
      for (const int threads : sweep_threads(backend)) {
        SCOPED_TRACE(sweep_name(kind, backend, threads));
        const auto got =
            embed(g, y, {.backend = backend, .num_threads = threads});
        ASSERT_EQ(got.z.dim(), 1);
        EXPECT_DOUBLE_EQ(got.z.at(0, 0), 0.0);
        EXPECT_DOUBLE_EQ(got.z.at(1, 0), 1.0);
      }
    }
  }
}

TEST(Gee, MostlyUnlabeledGraphMatchesSerialInItsClass) {
  // 10% labels: the labelled frontier skips nine rows in ten. The classes
  // are backend_conformance_test's: bitwise at one thread (every backend
  // commits each cell's adds in row order), within 1e-10 at four (atomic
  // interleavings only reassociate). That table covers undirected graphs;
  // on a directed one kParallelPull runs line 10 and line 11 as two
  // passes, which reorders a cell's adds even at one thread.
  const auto el = random_edges(400, 6000, 61, /*weighted=*/true);
  const auto y = gee::gen::semi_supervised_labels(400, 6, 0.1, 8);
  for (const GraphKind kind : {GraphKind::kUndirected, GraphKind::kDirected}) {
    const Graph g = Graph::build(el, kind);
    const auto ref = embed(g, y, {.backend = Backend::kCompiledSerial});
    for (const Backend backend : kAllBackends) {
      for (const int threads : sweep_threads(backend)) {
        SCOPED_TRACE(sweep_name(kind, backend, threads));
        const auto got =
            embed(g, y, {.backend = backend, .num_threads = threads});
        const double diff = max_abs_diff(got.z, ref.z);
        const bool split_pull = kind == GraphKind::kDirected &&
                                backend == Backend::kParallelPull;
        if (threads == 1 && !split_pull) {
          EXPECT_EQ(diff, 0.0);
        } else {
          EXPECT_LT(diff, 1e-10);
        }
      }
    }
  }
}

TEST(Gee, AllUnlabeledGraphEmbedsToZero) {
  // No vertex is labelled, so the engine's frontier is empty: every
  // backend must return an all-zero K-column Z without throwing.
  const auto el = random_edges(200, 2000, 67);
  const std::vector<std::int32_t> y(200, -1);
  for (const GraphKind kind : {GraphKind::kUndirected, GraphKind::kDirected}) {
    const Graph g = Graph::build(el, kind);
    for (const Backend backend : kAllBackends) {
      for (const int threads : sweep_threads(backend)) {
        SCOPED_TRACE(sweep_name(kind, backend, threads));
        Result got;
        ASSERT_NO_THROW(got = embed(g, y,
                                    {.backend = backend,
                                     .num_classes = 3,
                                     .num_threads = threads}));
        ASSERT_EQ(got.z.dim(), 3);
        ASSERT_EQ(got.z.num_vertices(), 200u);
        for (std::size_t i = 0; i < got.z.size(); ++i) {
          ASSERT_EQ(got.z.data()[i], 0.0) << "cell " << i;
        }
      }
    }
  }
}

TEST(Gee, SelfLoopFiresBothLines) {
  // Loop (0,0,w=3), Y = {0}: Z(0,0) += W(0,0)*3 twice = 6.
  EdgeList el(1);
  el.add(0, 0, 3.0f);
  const std::vector<std::int32_t> y{0};
  for (Backend backend : kExactBackends) {
    SCOPED_TRACE(to_string(backend));
    const auto via_edges = embed_edges(el, y, {.backend = backend});
    EXPECT_DOUBLE_EQ(via_edges.z.at(0, 0), 6.0);
    const Graph g = Graph::build(el, GraphKind::kUndirected);
    const auto via_graph = embed(g, y, {.backend = backend});
    EXPECT_DOUBLE_EQ(via_graph.z.at(0, 0), 6.0);
  }
}

TEST(Gee, MultiEdgesAccumulate) {
  EdgeList el(2);
  el.add(0, 1);
  el.add(0, 1);
  el.add(0, 1);
  const std::vector<std::int32_t> y{0, 1};
  const auto result = embed_edges(el, y, {.backend = Backend::kCompiledSerial});
  EXPECT_DOUBLE_EQ(result.z.at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(result.z.at(1, 0), 3.0);
}

// ------------------------------------------------------ backend equivalence

class BackendSweep : public ::testing::TestWithParam<Backend> {};

TEST_P(BackendSweep, EdgeListPathMatchesOracle) {
  const auto el = random_edges(400, 6000, 11, /*weighted=*/true);
  const auto y = gee::gen::semi_supervised_labels(400, 7, 0.3, 5);
  const auto oracle = oracle_embedding(el, y, 7);
  const auto result = embed_edges(el, y, {.backend = GetParam()});
  EXPECT_LT(max_diff_vs_oracle(result.z, oracle), 1e-12);
}

TEST_P(BackendSweep, UndirectedGraphPathMatchesOracle) {
  const auto el = random_edges(300, 4000, 13);
  const auto y = gee::gen::semi_supervised_labels(300, 5, 0.5, 7);
  const auto oracle = oracle_embedding(el, y, 5);
  const Graph g = Graph::build(el, GraphKind::kUndirected);
  const auto result = embed(g, y, {.backend = GetParam()});
  EXPECT_LT(max_diff_vs_oracle(result.z, oracle), 1e-12);
}

TEST_P(BackendSweep, DirectedGraphPathMatchesOracle) {
  const auto el = random_edges(300, 4000, 17, /*weighted=*/true);
  const auto y = gee::gen::semi_supervised_labels(300, 4, 0.4, 9);
  const auto oracle = oracle_embedding(el, y, 4);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  const auto result = embed(g, y, {.backend = GetParam()});
  EXPECT_LT(max_diff_vs_oracle(result.z, oracle), 1e-12);
}

TEST_P(BackendSweep, SkewedGraphMatchesOracle) {
  // R-MAT exercises the high-contention case (hub rows).
  const auto el = gee::gen::rmat(10, 8, 3);
  const auto y =
      gee::gen::semi_supervised_labels(el.num_vertices(), 10, 0.1, 3);
  const auto oracle = oracle_embedding(el, y, 10);
  const auto result = embed_edges(el, y, {.backend = GetParam()});
  EXPECT_LT(max_diff_vs_oracle(result.z, oracle), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendSweep, ::testing::ValuesIn(kExactBackends),
    [](const ::testing::TestParamInfo<Backend>& info) {
      std::string name = to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ------------------------------------------------- kParallelUnsafe contract
// The atomics-off backend races by design (the paper's section IV ablation:
// "we ran the program with atomics off, performing unsafe updates"). Its
// contract: exact when single-threaded; under contention it can only LOSE
// updates (all contributions are non-negative), never invent mass.

TEST(GeeUnsafe, ExactWhenSingleThreaded) {
  const auto el = random_edges(400, 6000, 11, /*weighted=*/true);
  const auto y = gee::gen::semi_supervised_labels(400, 7, 0.3, 5);
  const auto oracle = oracle_embedding(el, y, 7);
  const auto result = embed_edges(
      el, y, {.backend = Backend::kParallelUnsafe, .num_threads = 1});
  EXPECT_LT(max_diff_vs_oracle(result.z, oracle), 1e-12);
}

TEST(GeeUnsafe, LosesButNeverInventsMassUnderContention) {
  const auto el = random_edges(400, 60000, 19);
  const auto y = gee::gen::semi_supervised_labels(400, 5, 0.5, 5);
  const auto oracle = oracle_embedding(el, y, 5);
  const auto result =
      embed_edges(el, y, {.backend = Backend::kParallelUnsafe});
  double total = 0, oracle_total = 0;
  for (std::size_t i = 0; i < result.z.size(); ++i) {
    // Cell-wise: a lost update only shrinks the sum of non-negative terms.
    ASSERT_LE(result.z.data()[i], oracle[i] + 1e-9);
    total += result.z.data()[i];
    oracle_total += oracle[i];
  }
  // Sanity: the pass still did the bulk of the work.
  EXPECT_GT(total, 0.5 * oracle_total);
}

TEST(Gee, ThreadCountSweepMatchesSerial) {
  const auto el = random_edges(500, 20000, 23);
  const auto y = gee::gen::semi_supervised_labels(500, 6, 0.2, 2);
  const Graph g = Graph::build(el, GraphKind::kUndirected);
  Embedding ref;
  {
    ThreadScope scope(1);
    ref = embed(g, y, {.backend = Backend::kLigraParallel}).z;
  }
  for (int threads : {2, 4, 8, 16}) {
    const auto result =
        embed(g, y, {.backend = Backend::kLigraParallel,
                     .num_threads = threads});
    EXPECT_LT(max_abs_diff(result.z, ref), 1e-12) << threads << " threads";
  }
}

TEST(Gee, PullBackendBitwiseDeterministic) {
  const auto el = random_edges(400, 10000, 29);
  const auto y = gee::gen::semi_supervised_labels(400, 8, 0.3, 4);
  const Graph g = Graph::build(el, GraphKind::kUndirected);
  Embedding ref;
  {
    ThreadScope scope(1);
    ref = embed(g, y, {.backend = Backend::kParallelPull}).z;
  }
  for (int threads : {3, 8}) {
    const auto result = embed(
        g, y, {.backend = Backend::kParallelPull, .num_threads = threads});
    // Exact: each row is accumulated by one worker in a fixed order.
    EXPECT_EQ(max_abs_diff(result.z, ref), 0.0) << threads << " threads";
  }
}

TEST(Gee, PullOnDirectedWithoutInCsrThrows) {
  EdgeList el(2);
  el.add(0, 1);
  const Graph g =
      Graph::build(el, GraphKind::kDirected, {.build_in_csr = false});
  EXPECT_THROW(
      embed(g, std::vector<std::int32_t>{0, 0},
            {.backend = Backend::kParallelPull}),
      std::invalid_argument);
}

// ----------------------------------------------------------------- options

TEST(Gee, NumClassesDeduction) {
  EdgeList el(3);
  el.add(0, 1);
  el.add(1, 2);
  const std::vector<std::int32_t> y{2, -1, 0};
  const auto result = embed_edges(el, y, {});
  EXPECT_EQ(result.z.dim(), 3);
  EXPECT_EQ(result.projection.num_classes, 3);
}

TEST(Gee, ExplicitNumClassesAllowsEmptyClasses) {
  EdgeList el(2);
  el.add(0, 1);
  const std::vector<std::int32_t> y{0, 0};
  const auto result = embed_edges(el, y, {.num_classes = 5});
  EXPECT_EQ(result.z.dim(), 5);
  EXPECT_EQ(result.projection.class_counts[0], 2u);
  EXPECT_EQ(result.projection.class_counts[4], 0u);
}

TEST(Gee, InputValidation) {
  EdgeList el(3);
  el.add(0, 1);
  // label >= K
  EXPECT_THROW(
      embed_edges(el, std::vector<std::int32_t>{0, 5, 0}, {.num_classes = 2}),
      std::invalid_argument);
  // label < -1
  EXPECT_THROW(embed_edges(el, std::vector<std::int32_t>{0, -2, 0}, {}),
               std::invalid_argument);
  // labels shorter than n
  EXPECT_THROW(embed_edges(el, std::vector<std::int32_t>{0}, {}),
               std::invalid_argument);
  // nothing labeled and K not given
  EXPECT_THROW(embed_edges(el, std::vector<std::int32_t>{-1, -1, -1}, {}),
               std::invalid_argument);
  // ...but fine with explicit K (Z is all zeros).
  const auto result = embed_edges(el, std::vector<std::int32_t>{-1, -1, -1},
                                  {.num_classes = 2});
  EXPECT_EQ(result.z.at(0, 0), 0.0);
}

TEST(Gee, LaplacianHandComputed) {
  // Path 0-1-2, unweighted, Y = {0, 1, 0}.
  // Degrees (both-columns convention): d = {1, 2, 1}.
  // w'(0,1) = 1/sqrt(1*2); w'(1,2) = 1/sqrt(2*1).
  // Z(0,1) = W(1,1) * w'(0,1) = 1/sqrt(2)
  // Z(1,0) = 1/2 / sqrt(2) + 1/2 / sqrt(2) = 1/sqrt(2)
  // Z(2,1) = 1/sqrt(2)
  EdgeList el(3);
  el.add(0, 1);
  el.add(1, 2);
  const std::vector<std::int32_t> y{0, 1, 0};
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);

  for (Backend backend : {Backend::kCompiledSerial, Backend::kLigraParallel,
                          Backend::kParallelPull}) {
    SCOPED_TRACE(to_string(backend));
    const auto via_edges =
        embed_edges(el, y, {.backend = backend, .laplacian = true});
    EXPECT_NEAR(via_edges.z.at(0, 1), inv_sqrt2, 1e-6);
    EXPECT_NEAR(via_edges.z.at(1, 0), inv_sqrt2, 1e-6);
    EXPECT_NEAR(via_edges.z.at(2, 1), inv_sqrt2, 1e-6);

    const Graph g = Graph::build(el, GraphKind::kUndirected);
    const auto via_graph = embed(g, y, {.backend = backend, .laplacian = true});
    EXPECT_NEAR(via_graph.z.at(0, 1), inv_sqrt2, 1e-6);
    EXPECT_NEAR(via_graph.z.at(1, 0), inv_sqrt2, 1e-6);
  }
}

TEST(Gee, DiagAugmentHandComputed) {
  // Single edge 0-1, Y = {0, 1}. DiagA adds 2 * W(v) * 1 to Z(v, Y(v)).
  EdgeList el(2);
  el.add(0, 1);
  const std::vector<std::int32_t> y{0, 1};
  const auto plain = embed_edges(el, y, {});
  const auto aug = embed_edges(el, y, {.diag_augment = true});
  EXPECT_DOUBLE_EQ(aug.z.at(0, 0), plain.z.at(0, 0) + 2.0);  // W(0)=1
  EXPECT_DOUBLE_EQ(aug.z.at(1, 1), plain.z.at(1, 1) + 2.0);
  EXPECT_DOUBLE_EQ(aug.z.at(0, 1), plain.z.at(0, 1));
}

TEST(Gee, CorrelationNormalizesRows) {
  const auto el = random_edges(100, 2000, 31);
  const auto y = gee::gen::semi_supervised_labels(100, 4, 0.5, 1);
  const auto result = embed_edges(el, y, {.correlation = true});
  for (VertexId v = 0; v < 100; ++v) {
    const auto row = result.z.row(v);
    double sq = 0;
    for (const double x : row) sq += x * x;
    if (sq > 0) {
      EXPECT_NEAR(sq, 1.0, 1e-9) << "row " << v;
    }
  }
}

TEST(Gee, LaplacianWithDiagAugment) {
  // DiagA before Laplacian: degrees include the +2 loop contribution and
  // the loop weight becomes 1/d(v).
  EdgeList el(2);
  el.add(0, 1);
  const std::vector<std::int32_t> y{0, 1};
  const auto result =
      embed_edges(el, y, {.laplacian = true, .diag_augment = true});
  // d = {3, 3}; edge w' = 1/3; loop adds 2 * 1 * (1/3). Tolerance reflects
  // float storage of transformed weights (graph::Weight is float).
  EXPECT_NEAR(result.z.at(0, 0), 2.0 / 3.0, 1e-6);
  EXPECT_NEAR(result.z.at(0, 1), 1.0 / 3.0, 1e-6);
}

TEST(Gee, LaplacianEquivalentAcrossBackends) {
  // Random weighted graph: every exact backend must agree on the
  // Laplacian-transformed embedding (tolerance covers float edge storage).
  const auto el = random_edges(250, 3000, 47, /*weighted=*/true);
  const auto y = gee::gen::semi_supervised_labels(250, 6, 0.4, 3);
  const Graph g = Graph::build(el, GraphKind::kUndirected);
  const auto reference = embed(
      g, y, {.backend = Backend::kCompiledSerial, .laplacian = true});
  for (Backend backend : kExactBackends) {
    SCOPED_TRACE(to_string(backend));
    const auto result = embed(g, y, {.backend = backend, .laplacian = true});
    EXPECT_LT(max_abs_diff(result.z, reference.z), 1e-9);
  }
}

TEST(Gee, EdgeListAndGraphPathsAgreeWithAllOptions) {
  const auto el = random_edges(200, 2500, 53, /*weighted=*/true,
                               /*loops=*/true);
  const auto y = gee::gen::semi_supervised_labels(200, 5, 0.5, 7);
  const Options options{.backend = Backend::kLigraParallel,
                        .laplacian = true,
                        .diag_augment = true,
                        .correlation = true};
  const auto via_edges = embed_edges(el, y, options);
  const Graph g = Graph::build(el, GraphKind::kUndirected);
  const auto via_graph = embed(g, y, options);
  EXPECT_LT(max_abs_diff(via_edges.z, via_graph.z), 1e-6);
}

TEST(Gee, DenseGraphAllVerticesLabeled) {
  // Complete graph, every vertex labeled: Z(v, k) sums W over class-k
  // vertices adjacent to v = (count_k - [Y(v)=k]) / count_k.
  const VertexId n = 20;
  EdgeList el(n);
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = i + 1; j < n; ++j) el.add(i, j);
  }
  std::vector<std::int32_t> y(n);
  for (VertexId v = 0; v < n; ++v) y[v] = static_cast<std::int32_t>(v % 4);
  const auto result = embed_edges(el, y, {});
  for (VertexId v = 0; v < n; ++v) {
    for (int c = 0; c < 4; ++c) {
      const double count = 5.0;  // 20 vertices, 4 classes
      const double expected = (count - (y[v] == c ? 1.0 : 0.0)) / count;
      ASSERT_NEAR(result.z.at(v, c), expected, 1e-12)
          << "vertex " << v << " class " << c;
    }
  }
}

TEST(Gee, SingleClassGraphRowsEqualWeightedDegrees) {
  // One class: Z(v, 0) = deg(v) / n_labeled for fully labeled graphs.
  const auto el = random_edges(100, 1200, 59);
  const std::vector<std::int32_t> y(100, 0);
  const auto result = embed_edges(el, y, {});
  std::vector<double> degree(100, 0);
  for (EdgeId e = 0; e < el.num_edges(); ++e) {
    degree[el.src(e)] += 1;
    degree[el.dst(e)] += 1;
  }
  for (VertexId v = 0; v < 100; ++v) {
    ASSERT_NEAR(result.z.at(v, 0), degree[v] / 100.0, 1e-9);
  }
}

// -------------------------------------------------------------- components

TEST(Projection, WeightsAndCounts) {
  const std::vector<std::int32_t> y{0, 1, 0, -1, 1, 1};
  const auto p = build_projection(y);
  EXPECT_EQ(p.num_classes, 2);
  EXPECT_EQ(p.class_counts, (std::vector<std::uint64_t>{2, 3}));
  EXPECT_DOUBLE_EQ(p.vertex_weight[0], 0.5);
  EXPECT_DOUBLE_EQ(p.vertex_weight[1], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(p.vertex_weight[3], 0.0);
}

TEST(Projection, DenseMatchesCompact) {
  const auto y = gee::gen::semi_supervised_labels(1000, 10, 0.4, 3);
  const auto p = build_projection(y);
  const auto dense = build_dense_w(p, y);
  for (std::size_t v = 0; v < 1000; ++v) {
    for (int c = 0; c < 10; ++c) {
      const double expected =
          (y[v] == c) ? p.vertex_weight[v] : 0.0;
      ASSERT_DOUBLE_EQ(dense[v * 10 + static_cast<std::size_t>(c)], expected);
    }
  }
}

TEST(WeightedDegrees, EdgeListBothColumns) {
  EdgeList el(3);
  el.add(0, 1, 2.0f);
  el.add(1, 1, 3.0f);  // loop counts twice
  const auto d = gee::core::weighted_degrees(el, false);
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 8.0);  // 2 + 3 + 3
  EXPECT_DOUBLE_EQ(d[2], 0.0);
  const auto daug = gee::core::weighted_degrees(el, true);
  EXPECT_DOUBLE_EQ(daug[2], 2.0);
}

TEST(WeightedDegrees, GraphMatchesEdgeListConvention) {
  const auto el = random_edges(50, 500, 37, /*weighted=*/true, /*loops=*/true);
  const auto from_list = gee::core::weighted_degrees(el, false);
  const Graph g = Graph::build(el, GraphKind::kUndirected);
  const auto from_graph = gee::core::weighted_degrees(g, false);
  for (VertexId v = 0; v < 50; ++v) {
    ASSERT_NEAR(from_graph[v], from_list[v], 1e-9) << "vertex " << v;
  }
  const Graph gd = Graph::build(el, GraphKind::kDirected);
  const auto from_directed = gee::core::weighted_degrees(gd, false);
  for (VertexId v = 0; v < 50; ++v) {
    ASSERT_NEAR(from_directed[v], from_list[v], 1e-9) << "vertex " << v;
  }
}

TEST(Embedding, BasicAccessorsAndNormalize) {
  Embedding z(3, 2);
  EXPECT_EQ(z.num_vertices(), 3u);
  EXPECT_EQ(z.dim(), 2);
  z.at(1, 0) = 3.0;
  z.at(1, 1) = 4.0;
  EXPECT_EQ(argmax_row(z, 1), 1);
  EXPECT_EQ(argmax_row(z, 0), -1);  // all-zero row
  normalize_rows(z);
  EXPECT_DOUBLE_EQ(z.at(1, 0), 0.6);
  EXPECT_DOUBLE_EQ(z.at(1, 1), 0.8);
  EXPECT_DOUBLE_EQ(z.at(0, 0), 0.0);  // zero rows untouched
  z.clear();
  EXPECT_DOUBLE_EQ(z.at(1, 0), 0.0);
}

TEST(Gee, TimingsPopulated) {
  const auto el = random_edges(200, 5000, 41);
  const auto y = gee::gen::semi_supervised_labels(200, 5, 0.2, 1);
  const Graph g = Graph::build(el, GraphKind::kUndirected);
  const auto check = [](const Timings& t) {
    EXPECT_GT(t.total, 0.0);
    EXPECT_GT(t.z_init, 0.0);
    EXPECT_GT(t.edge_pass, 0.0);
    // The phases are disjoint intervals inside the call.
    EXPECT_LE(t.projection + t.z_init + t.graph_build + t.edge_pass +
                  t.postprocess,
              t.total);
  };
  {
    SCOPED_TRACE("embed_edges");
    const auto result =
        embed_edges(el, y, {.backend = Backend::kLigraParallel});
    check(result.timings);
    EXPECT_GT(result.timings.graph_build, 0.0);  // engine path built a graph
    EXPECT_EQ(result.backend, Backend::kLigraParallel);
  }
  {
    SCOPED_TRACE("embed");
    const auto result = embed(g, y, {.backend = Backend::kLigraParallel});
    check(result.timings);
    EXPECT_EQ(result.backend, Backend::kLigraParallel);
  }
}

TEST(Gee, ResultRowsLiveInClassSimplexScaledSpace) {
  // Property: sum over all of Z of contributions equals, per class k,
  // (number of edge-endpoint incidences into class k) / count(k) summed --
  // concretely each labeled vertex v donates deg(v) * W(v) mass in total.
  const auto el = random_edges(300, 3000, 43);
  const auto y = gee::gen::semi_supervised_labels(300, 5, 0.5, 6);
  const auto result = embed_edges(el, y, {});
  double total = 0;
  for (std::size_t i = 0; i < result.z.size(); ++i) total += result.z.data()[i];

  std::vector<double> degree(300, 0);
  for (EdgeId e = 0; e < el.num_edges(); ++e) {
    degree[el.src(e)] += 1;
    degree[el.dst(e)] += 1;
  }
  double expected = 0;
  for (VertexId v = 0; v < 300; ++v) {
    expected += degree[v] * result.projection.vertex_weight[v];
  }
  EXPECT_NEAR(total, expected, 1e-8);
}

}  // namespace
