// The edge-partition execution subsystem (src/partition/) and the backend
// built on it.
//
//  * Partitioner invariants: boundaries cover the row space, blocks'
//    entries land only in rows the block owns (the ownership invariant),
//    entry counts match the update-side semantics, plans are cached on the
//    Graph and reused.
//  * Backend contract: kPartitioned is BITWISE equal to kCompiledSerial
//    (stable bucketing preserves every cell's accumulation order) on SBM /
//    R-MAT / Erdős–Rényi graphs across weighted/unweighted x
//    laplacian/diag_augment/correlation.
//  * Determinism: two runs at a fixed block count produce identical Z, and
//    so do different block counts and thread counts.
#include <gtest/gtest.h>

#include <vector>

#include "gee/gee.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/labels.hpp"
#include "gen/rmat.hpp"
#include "gen/sbm.hpp"
#include "partition/partitioner.hpp"
#include "testing/random_graphs.hpp"
#include "util/rng.hpp"

namespace {

using namespace gee::core;
using namespace gee::graph;
using gee::partition::EdgePartitionPlan;
using gee::partition::UpdateSides;
using gee::testutil::option_combos;
using gee::testutil::with_random_weights;

/// The differential graph matrix (tests/testing/random_graphs.hpp) at this
/// file's historical sizes -- larger than the conformance harness's
/// defaults so the partitioner sees nontrivial block shapes.
std::vector<gee::testutil::RandomGraph> test_graphs() {
  gee::testutil::GraphMatrixParams p;
  p.sbm_n = 600;
  p.sbm_p_in = 0.05;
  p.sbm_p_out = 0.005;
  p.rmat_n = 1024;
  p.rmat_m = 8192;
  p.er_n = 500;
  p.er_m = 6000;
  return gee::testutil::random_graph_matrix(7, p);
}

// ------------------------------------------------------------- partitioner

TEST(Partitioner, BoundariesCoverRowSpaceAndEntriesMatchSemantics) {
  const auto el = gee::gen::rmat(9, 8, 5);
  const Graph g = Graph::build(el, GraphKind::kUndirected);
  for (const UpdateSides sides :
       {UpdateSides::kDestOnly, UpdateSides::kBoth}) {
    for (const int blocks : {1, 3, 8, 64}) {
      const auto plan = gee::partition::build_plan(g.out(), sides, blocks);
      ASSERT_EQ(plan.num_blocks, blocks);
      ASSERT_EQ(plan.row_starts.size(), static_cast<std::size_t>(blocks) + 1);
      EXPECT_EQ(plan.row_starts.front(), 0u);
      EXPECT_EQ(plan.row_starts.back(), g.num_vertices());
      for (int p = 0; p < blocks; ++p) {
        EXPECT_LE(plan.row_starts[p], plan.row_starts[p + 1]);
        EXPECT_LE(plan.entry_offsets[p], plan.entry_offsets[p + 1]);
      }
      const EdgeId expected = sides == UpdateSides::kBoth
                                  ? 2 * g.num_arcs()
                                  : g.num_arcs();
      EXPECT_EQ(plan.num_entries(), expected);
    }
  }
}

TEST(Partitioner, OwnershipInvariant) {
  // Every entry of block p writes a row in [row_starts[p], row_starts[p+1]):
  // the invariant that makes plain (non-atomic) adds race-free.
  const auto el = gee::gen::rmat(9, 10, 13);
  const Graph g = Graph::build(el, GraphKind::kUndirected);
  const auto plan =
      gee::partition::build_plan(g.out(), UpdateSides::kDestOnly, 7);
  for (int p = 0; p < plan.num_blocks; ++p) {
    const auto block = plan.block(p);
    for (const VertexId row : block.rows) {
      ASSERT_GE(row, block.row_lo);
      ASSERT_LT(row, block.row_hi);
    }
  }
}

TEST(Partitioner, BlocksAreEntryBalanced) {
  // Degree-weighted boundaries: no block exceeds its fair share by more
  // than the heaviest single row (row ownership cannot split a hub).
  const auto el = gee::gen::rmat(10, 16, 17);  // skewed: the hard case
  const Graph g = Graph::build(el, GraphKind::kUndirected);
  const int blocks = 8;
  const auto plan =
      gee::partition::build_plan(g.out(), UpdateSides::kDestOnly, blocks);
  EdgeId max_row_weight = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    max_row_weight = std::max(max_row_weight, g.out().degree(v));
  }
  const EdgeId fair = plan.num_entries() / blocks;
  for (int p = 0; p < blocks; ++p) {
    const EdgeId got = plan.entry_offsets[p + 1] - plan.entry_offsets[p];
    EXPECT_LE(got, fair + max_row_weight) << "block " << p;
  }
}

TEST(Partitioner, EdgeListPlanCountsBothSides) {
  EdgeList el(4);
  el.add(0, 1);
  el.add(1, 2, 2.0f);
  el.add(3, 3);  // self-loop: both entries land on row 3
  const auto plan = gee::partition::build_plan(el, 2);
  EXPECT_EQ(plan.num_entries(), 6u);
  EXPECT_TRUE(plan.weighted());
}

TEST(Partitioner, PlanIsCachedOnTheGraph) {
  const auto el = gee::gen::erdos_renyi_gnm(200, 2000, 31);
  const Graph g = Graph::build(el, GraphKind::kUndirected);
  const auto a = gee::partition::plan_for(g, UpdateSides::kDestOnly, 4);
  const auto b = gee::partition::plan_for(g, UpdateSides::kDestOnly, 4);
  EXPECT_EQ(a.get(), b.get()) << "second call must hit the AuxCache";
  const auto c = gee::partition::plan_for(g, UpdateSides::kDestOnly, 8);
  EXPECT_NE(a.get(), c.get()) << "different block count, different plan";
  const Graph copy = g;  // copies share the cache
  const auto d = gee::partition::plan_for(copy, UpdateSides::kDestOnly, 4);
  EXPECT_EQ(a.get(), d.get());
}

// Regression: cached partition plans must not survive graph mutation. A
// plan built before Graph::rebuild described the OLD adjacency; the
// mutation hook detaches the graph from its AuxCache so the next lookup
// partitions the new arcs, while pre-mutation copies keep the old
// (cache, CSR) pairing.
TEST(Partitioner, GraphMutationInvalidatesCachedPlans) {
  const auto el = gee::gen::erdos_renyi_gnm(200, 2000, 31);
  Graph g = Graph::build(el, GraphKind::kUndirected);
  const Graph copy = g;  // shares cache AND adjacency pre-mutation
  const auto stale = gee::partition::plan_for(g, UpdateSides::kDestOnly, 4);
  EXPECT_EQ(g.generation(), 0u);

  const auto smaller = gee::gen::erdos_renyi_gnm(200, 500, 37);
  g.rebuild(smaller, GraphKind::kUndirected);
  EXPECT_EQ(g.generation(), 1u);

  const auto fresh = gee::partition::plan_for(g, UpdateSides::kDestOnly, 4);
  EXPECT_NE(stale.get(), fresh.get())
      << "plan cached on the pre-mutation adjacency leaked through rebuild";
  EXPECT_EQ(fresh->num_entries(), g.num_arcs());
  EXPECT_EQ(stale->num_entries(), copy.num_arcs());

  // The pre-mutation copy still pairs the old adjacency with the old plan.
  EXPECT_NE(copy.num_arcs(), g.num_arcs());
  EXPECT_EQ(copy.generation(), 0u);
  const auto held =
      gee::partition::plan_for(copy, UpdateSides::kDestOnly, 4);
  EXPECT_EQ(held.get(), stale.get());

  // Embedding through the partitioned backend after mutation matches the
  // serial reference on the NEW adjacency (the end-to-end staleness bug).
  const auto labels = gee::gen::semi_supervised_labels(200, 4, 0.5, 41);
  const auto serial =
      embed(g, labels, {.backend = Backend::kCompiledSerial});
  const auto partitioned =
      embed(g, labels, {.backend = Backend::kPartitioned});
  EXPECT_EQ(max_abs_diff(partitioned.z, serial.z), 0.0);
}

// ------------------------------------------------------ sparse delta plans

TEST(Partitioner, DeltaPlanMatchesDensePlanSemantics) {
  const auto el = with_random_weights(
      gee::gen::erdos_renyi_gnm(300, 4000, 43), 47);
  for (const int blocks : {1, 3, 8}) {
    const auto dense = gee::partition::build_plan(el, blocks);
    const auto sparse = gee::partition::build_delta_plan(el, blocks);
    EXPECT_EQ(sparse.num_blocks, blocks);
    EXPECT_EQ(sparse.num_entries(), dense.num_entries());
    EXPECT_EQ(sparse.num_vertices(), el.num_vertices());

    // Ownership invariant: every entry's row inside its block's range.
    for (int p = 0; p < blocks; ++p) {
      const auto block = sparse.block(p);
      for (const VertexId row : block.rows) {
        EXPECT_GE(row, block.row_lo);
        EXPECT_LT(row, block.row_hi);
      }
    }
  }
}

TEST(Partitioner, DeltaPlanHandlesEmptyAndSignedWeights) {
  EdgeList empty(10);
  const auto plan = gee::partition::build_delta_plan(empty, 4);
  EXPECT_EQ(plan.num_entries(), 0u);
  EXPECT_EQ(plan.num_vertices(), 10u);

  EdgeList deltas(8);
  deltas.add(1, 2, 1.5f);
  deltas.add(2, 1, -1.5f);  // removal delta: negative weight passes through
  deltas.add(7, 7, 2.0f);
  const auto signed_plan = gee::partition::build_delta_plan(deltas, 2);
  EXPECT_EQ(signed_plan.num_entries(), 6u);
  double net = 0;
  for (int p = 0; p < signed_plan.num_blocks; ++p) {
    for (const Weight w : signed_plan.block(p).weights) net += w;
  }
  EXPECT_DOUBLE_EQ(net, 4.0);  // +-1.5 cancels twice; the loop counts 2x2.0
}

TEST(Partitioner, ResolveNumBlocks) {
  EXPECT_EQ(gee::partition::resolve_num_blocks(5), 5);
  EXPECT_GE(gee::partition::resolve_num_blocks(0), 1);
  EXPECT_GE(gee::partition::resolve_num_blocks(-3), 1);
  EXPECT_EQ(gee::partition::resolve_num_blocks(1 << 30), 1 << 20);
}

// ----------------------------------------------- backend equality contract

double max_diff(const Embedding& a, const Embedding& b) {
  return max_abs_diff(a, b);
}

TEST(PartitionedBackend, BitwiseEqualToCompiledSerialOnGraphPath) {
  for (const auto& tg : test_graphs()) {
    const Graph g = Graph::build(tg.edges, GraphKind::kUndirected);
    const auto y = gee::gen::semi_supervised_labels(g.num_vertices(), 9,
                                                    0.3, 5);
    for (const auto& [combo_name, base] : option_combos(Backend::kPartitioned)) {
      SCOPED_TRACE(std::string(tg.name) + " / " + combo_name);
      Options serial = base;
      serial.backend = Backend::kCompiledSerial;
      const auto reference = embed(g, y, serial);
      const auto result = embed(g, y, base);
      // Bitwise: stable bucketing preserves each cell's accumulation order.
      EXPECT_EQ(max_diff(result.z, reference.z), 0.0);
    }
  }
}

TEST(PartitionedBackend, BitwiseEqualToCompiledSerialOnEdgeListPath) {
  for (const auto& tg : test_graphs()) {
    const auto y = gee::gen::semi_supervised_labels(tg.edges.num_vertices(),
                                                    6, 0.4, 9);
    for (const auto& [combo_name, base] : option_combos(Backend::kPartitioned)) {
      SCOPED_TRACE(std::string(tg.name) + " / " + combo_name);
      Options serial = base;
      serial.backend = Backend::kCompiledSerial;
      const auto reference = embed_edges(tg.edges, y, serial);
      const auto result = embed_edges(tg.edges, y, base);
      EXPECT_EQ(max_diff(result.z, reference.z), 0.0);
    }
  }
}

TEST(PartitionedBackend, BitwiseEqualOnDirectedGraphs) {
  const auto el = with_random_weights(gee::gen::rmat(9, 8, 41), 43);
  const Graph g = Graph::build(el, GraphKind::kDirected);
  const auto y = gee::gen::semi_supervised_labels(g.num_vertices(), 5, 0.5, 3);
  const auto reference = embed(g, y, {.backend = Backend::kCompiledSerial});
  const auto result = embed(g, y, {.backend = Backend::kPartitioned});
  EXPECT_EQ(max_diff(result.z, reference.z), 0.0);
}

// ------------------------------------------------------------- determinism

TEST(PartitionedBackend, DeterministicAtFixedBlockCount) {
  const auto el = gee::gen::rmat(10, 8, 51);
  const Graph g = Graph::build(el, GraphKind::kUndirected);
  const auto y = gee::gen::semi_supervised_labels(g.num_vertices(), 10,
                                                  0.2, 7);
  const Options options{.backend = Backend::kPartitioned,
                        .partition_blocks = 6};
  const auto first = embed(g, y, options);
  const auto second = embed(g, y, options);
  EXPECT_EQ(max_diff(first.z, second.z), 0.0);
}

TEST(PartitionedBackend, IdenticalAcrossBlockAndThreadCounts) {
  // Stronger than the acceptance criterion: because a cell's accumulation
  // order is the arc order for ANY block count, Z equals the serial
  // reference across P and across thread counts, on both input paths --
  // not merely across runs at fixed P.
  const auto el = gee::gen::erdos_renyi_gnm(400, 8000, 61);
  const Graph g = Graph::build(el, GraphKind::kUndirected);
  const auto y = gee::gen::semi_supervised_labels(g.num_vertices(), 8,
                                                  0.3, 11);
  const Options serial{.backend = Backend::kCompiledSerial};
  const auto ref_graph = embed(g, y, serial);
  const auto ref_edges = embed_edges(el, y, serial);
  for (const int blocks : {2, 5, 16}) {
    for (const int threads : {2, 7}) {
      const Options options{.backend = Backend::kPartitioned,
                            .num_threads = threads,
                            .partition_blocks = blocks};
      EXPECT_EQ(max_diff(embed(g, y, options).z, ref_graph.z), 0.0)
          << "graph path: " << blocks << " blocks, " << threads
          << " threads";
      EXPECT_EQ(max_diff(embed_edges(el, y, options).z, ref_edges.z), 0.0)
          << "edge-list path: " << blocks << " blocks, " << threads
          << " threads";
    }
  }
}

// --------------------------------------------------------------- plumbing

TEST(PartitionedBackend, RepeatEmbedHitsThePlanCache) {
  const auto el = gee::gen::erdos_renyi_gnm(300, 5000, 81);
  const Graph g = Graph::build(el, GraphKind::kUndirected);
  const auto y = gee::gen::semi_supervised_labels(g.num_vertices(), 5,
                                                  0.3, 3);
  const Options options{.backend = Backend::kPartitioned,
                        .partition_blocks = 4};
  const auto first = embed(g, y, options);
  EXPECT_GT(first.timings.graph_build, 0.0) << "first call builds the plan";
  EXPECT_EQ(g.aux().size(), 1u);
  const auto second = embed(g, y, options);
  EXPECT_EQ(g.aux().size(), 1u) << "second call must not rebuild";
  EXPECT_EQ(max_diff(first.z, second.z), 0.0);
}

TEST(Backends, ToStringCoversNewValues) {
  EXPECT_EQ(to_string(Backend::kPartitioned), "partitioned");
}

}  // namespace
