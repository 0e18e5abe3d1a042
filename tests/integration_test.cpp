// Cross-module integration tests: the statistical claims that motivate the
// paper, exercised end to end on generated graphs.
//
//  1. Semi-supervised GEE on an SBM separates the planted blocks (argmax
//     classification of unlabeled vertices, and k-means ARI on Z).
//  2. The fully unsupervised pipeline Louvain -> GEE -> k-means recovers
//     blocks without any ground-truth labels (paper section II: Y "may be
//     derived from unsupervised clustering").
//  3. GEE's block recovery is comparable to adjacency spectral embedding
//     (the expensive baseline GEE approximates; paper section I).
//  4. Generator -> builder -> engine -> embedding round trip at a size
//     that forces every parallel code path.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/kmeans.hpp"
#include "cluster/louvain.hpp"
#include "cluster/metrics.hpp"
#include "gee/gee.hpp"
#include "gen/labels.hpp"
#include "gen/rmat.hpp"
#include "gen/sbm.hpp"
#include "graph/builder.hpp"
#include "graph/validation.hpp"
#include "spectral/eigen.hpp"

namespace {

using namespace gee;
using cluster::adjusted_rand_index;
using core::Backend;
using graph::Graph;
using graph::GraphKind;
using graph::VertexId;

struct SbmFixture {
  Graph graph;
  std::vector<std::int32_t> truth;
  std::vector<std::int32_t> observed;  // 10% of truth
  int k;
};

SbmFixture make_sbm(VertexId n, int k, double p_in, double p_out,
                    std::uint64_t seed) {
  auto result = gen::sbm(gen::SbmParams::balanced(n, k, p_in, p_out), seed);
  SbmFixture f;
  f.graph = Graph::build(result.edges, GraphKind::kUndirected);
  f.observed = gen::observe_labels(result.labels, 0.10, seed + 1);
  f.truth = std::move(result.labels);
  f.k = k;
  return f;
}

TEST(Integration, SemiSupervisedGeeClassifiesSbmVertices) {
  const auto f = make_sbm(2000, 4, 0.08, 0.005, 21);
  const auto result =
      core::embed(f.graph, f.observed, {.backend = Backend::kLigraParallel});

  // Argmax-class prediction on vertices the model never saw labels for.
  VertexId correct = 0, evaluated = 0;
  for (VertexId v = 0; v < 2000; ++v) {
    if (f.observed[v] >= 0) continue;  // only held-out vertices
    const int predicted = core::argmax_row(result.z, v);
    if (predicted < 0) continue;  // isolated vertex
    ++evaluated;
    if (predicted == f.truth[v]) ++correct;
  }
  ASSERT_GT(evaluated, 1500u);
  // 4 balanced classes: chance = 25%. Demand near-perfect recovery.
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(evaluated),
            0.95);
}

TEST(Integration, KMeansOnGeeEmbeddingRecoversBlocks) {
  const auto f = make_sbm(1500, 3, 0.10, 0.008, 23);
  const auto result = core::embed(
      f.graph, f.observed,
      {.backend = Backend::kLigraParallel, .correlation = true});
  const auto clusters =
      cluster::kmeans(std::span<const double>(result.z.data(), result.z.size()),
                      1500, static_cast<std::size_t>(result.z.dim()), 3,
                      {.seed = 5});
  EXPECT_GT(adjusted_rand_index(clusters.assignment, f.truth), 0.9);
}

TEST(Integration, UnsupervisedLouvainGeePipeline) {
  const auto f = make_sbm(1200, 3, 0.10, 0.006, 29);
  // No ground truth used anywhere below.
  const auto communities = cluster::louvain(f.graph.out(), {.seed = 2});
  const auto result = core::embed(
      f.graph, communities.community,
      {.backend = Backend::kLigraParallel, .correlation = true});
  const auto clusters =
      cluster::kmeans(std::span<const double>(result.z.data(), result.z.size()),
                      1200, static_cast<std::size_t>(result.z.dim()), 3,
                      {.seed = 7});
  EXPECT_GT(adjusted_rand_index(clusters.assignment, f.truth), 0.85);
}

TEST(Integration, GeeComparableToSpectralOnSbm) {
  const auto f = make_sbm(800, 2, 0.12, 0.015, 31);

  const auto gee_result = core::embed(
      f.graph, f.observed,
      {.backend = Backend::kLigraParallel, .correlation = true});
  const auto gee_clusters = cluster::kmeans(
      std::span<const double>(gee_result.z.data(), gee_result.z.size()), 800,
      static_cast<std::size_t>(gee_result.z.dim()), 2, {.seed = 3});
  const double gee_ari =
      adjusted_rand_index(gee_clusters.assignment, f.truth);

  const auto ase = spectral::adjacency_spectral_embedding(f.graph.out(), 2);
  const auto ase_clusters = cluster::kmeans(ase, 800, 2, 2, {.seed = 3});
  const double ase_ari =
      adjusted_rand_index(ase_clusters.assignment, f.truth);

  // Paper's premise: GEE matches spectral quality. Allow a modest gap.
  EXPECT_GT(ase_ari, 0.9);
  EXPECT_GT(gee_ari, ase_ari - 0.1);
}

TEST(Integration, LargeRmatEndToEnd) {
  // Forces parallel CSR build, parallel edgeMap, atomic accumulation, and
  // the full-frontier path at a size where every module runs parallel code.
  const auto el = gen::rmat(16, 16, 3);  // 65K vertices, 1M edges
  const Graph g = Graph::build(el, GraphKind::kUndirected);
  ASSERT_TRUE(graph::validate(g.out()).empty());

  const auto labels =
      gen::semi_supervised_labels(g.num_vertices(), 50, 0.10, 7);
  const auto parallel =
      core::embed(g, labels, {.backend = Backend::kLigraParallel});
  const auto serial =
      core::embed(g, labels, {.backend = Backend::kCompiledSerial});
  EXPECT_LT(core::max_abs_diff(parallel.z, serial.z), 1e-9);
}

TEST(Integration, EmbeddingQualityImprovesWithMoreLabels) {
  const auto f = make_sbm(1000, 4, 0.10, 0.01, 37);
  double prev_accuracy = 0;
  for (const double fraction : {0.02, 0.30}) {
    const auto observed = gen::observe_labels(f.truth, fraction, 41);
    const auto result = core::embed(f.graph, observed,
                                    {.num_classes = 4});
    VertexId correct = 0, evaluated = 0;
    for (VertexId v = 0; v < 1000; ++v) {
      if (observed[v] >= 0) continue;
      const int predicted = core::argmax_row(result.z, v);
      if (predicted < 0) continue;
      ++evaluated;
      if (predicted == f.truth[v]) ++correct;
    }
    const double accuracy =
        static_cast<double>(correct) / static_cast<double>(evaluated);
    EXPECT_GT(accuracy, prev_accuracy);  // more supervision, better accuracy
    prev_accuracy = accuracy;
  }
  EXPECT_GT(prev_accuracy, 0.9);
}

}  // namespace
