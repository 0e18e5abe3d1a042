// Ablation A3 -- what the graph engine buys.
//
// The paper attributes part of GEE-Ligra's win to "asynchronous execution
// in the Ligra graph engine". This bench isolates the engine's choices by
// comparing, on a uniform (ER) and a skewed (R-MAT) graph:
//   * ligra-parallel: engine edgeMap over the labelled frontier (sparse
//     push), dynamic per-vertex scheduling;
//   * flat-parallel: same updates, plain static-partitioned parallel for
//     over every row;
//   * parallel-pull: race-free two-pass decomposition;
//   * flat over the raw edge array (embed_edges): no adjacency locality.
// So the engine column differs from flat-parallel in two ways: its
// frontier skips the unlabelled rows, whose arcs add nothing, and it
// schedules rows dynamically. On skewed graphs static partitioning strands
// whole hub rows on one thread; dynamic scheduling repairs it.
#include "bench/common.hpp"

#include "gen/erdos_renyi.hpp"
#include "util/log.hpp"

int main() {
  using gee::core::Backend;
  namespace bench = gee::bench;

  const auto d = static_cast<double>(bench::scale_denominator());
  const auto n = static_cast<gee::graph::VertexId>(16e6 / d);
  const auto m = static_cast<gee::graph::EdgeId>(256e6 / d);

  gee::util::TextTable table("A3 -- engine ablation (seconds)");
  table.set_header({"graph", "engine (labelled, dynamic)",
                    "flat csr (all rows, static)", "pull (two-pass)",
                    "flat edge array", "flat/engine"});

  struct Shape {
    const char* name;
    gee::graph::EdgeList edges;
  };
  gee::util::log_info("A3: generating workloads");
  Shape shapes[] = {
      {"erdos-renyi (uniform)", gee::gen::erdos_renyi_gnm(n, m, 9)},
      {"rmat (skewed hubs)", gee::gen::rmat_approx(n, m, 9)},
  };

  for (auto& shape : shapes) {
    bench::PreparedGraph prepared;
    prepared.graph = gee::graph::Graph::build(
        shape.edges, gee::graph::GraphKind::kUndirected);
    prepared.labels = gee::gen::semi_supervised_labels(
        n, bench::kNumClasses, bench::kLabelFraction, 29);

    const double engine =
        bench::time_backend(prepared, Backend::kLigraParallel);
    const double flat_csr =
        bench::time_backend(prepared, Backend::kFlatParallel);
    const double pull = bench::time_backend(prepared, Backend::kParallelPull);

    // Raw edge-array pass (no CSR locality): embed_edges + kFlatParallel.
    double flat_edges = 1e300;
    for (int r = 0; r < bench::repeats(); ++r) {
      const auto result =
          gee::core::embed_edges(shape.edges, prepared.labels,
                                 {.backend = Backend::kFlatParallel});
      flat_edges = std::min(flat_edges, result.timings.projection +
                                            result.timings.edge_pass);
    }

    table.begin_row();
    table.cell(shape.name);
    table.cell(engine, 4);
    table.cell(flat_csr, 4);
    table.cell(pull, 4);
    table.cell(flat_edges, 4);
    table.cell(flat_csr / engine, 3);
  }
  bench::emit(table, "ablation_engine.csv");
  return 0;
}
