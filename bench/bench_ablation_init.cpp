// Ablation A2 -- when does the O(nK) projection initialization dominate?
//
// Paper, section III: "For most graphs and choices of K < 50, s > nk.
// However, O(nk) becomes the dominant component of the runtime when graphs
// have a high n and a very low average degree." This bench fixes the edge
// count and sweeps the average degree downward (raising n), reporting the
// dense O(nK) W build (Algorithm 2 lines 3-6), the compact O(n) build this
// library uses by default, and the O(s) edge pass -- the crossover where
// init overtakes the edge pass reproduces the paper's observation.
#include "bench/common.hpp"

#include "gen/erdos_renyi.hpp"
#include "gee/projection.hpp"
#include "util/log.hpp"

int main() {
  using gee::core::Backend;
  namespace bench = gee::bench;

  const auto d = static_cast<double>(bench::scale_denominator());
  const auto m = static_cast<gee::graph::EdgeId>(128e6 / d);

  gee::util::TextTable table(
      "A2 -- O(nK) init vs O(s) edge pass, fixed m=" +
      gee::util::format_count(m) + ", K=50");
  table.set_header({"avg degree", "n", "dense W init (s)", "compact W (s)",
                    "edge pass (s)", "dense init / edge pass"});

  for (const int degree : {64, 16, 4, 1}) {
    const auto n = static_cast<gee::graph::VertexId>(
        m / static_cast<gee::graph::EdgeId>(degree));
    gee::util::log_info("A2: degree " + std::to_string(degree));
    const auto edges = gee::gen::erdos_renyi_gnm(n, m, 300 + degree);
    const auto g =
        gee::graph::Graph::build(edges, gee::graph::GraphKind::kUndirected);
    const auto labels = gee::gen::semi_supervised_labels(
        n, bench::kNumClasses, bench::kLabelFraction, 23);

    // Projection builds, timed separately from the pass.
    double compact_time = 1e300, dense_time = 1e300;
    gee::core::Projection projection;
    for (int r = 0; r < bench::repeats(); ++r) {
      gee::util::Timer timer;
      projection = gee::core::build_projection(labels);
      compact_time = std::min(compact_time, timer.seconds());
    }
    for (int r = 0; r < bench::repeats(); ++r) {
      gee::util::Timer timer;
      const auto dense = gee::core::build_dense_w(
          projection.vertex_weight, projection.num_classes, labels);
      dense_time = std::min(dense_time, timer.seconds());
    }

    double edge_pass = 1e300;
    for (int r = 0; r < bench::repeats(); ++r) {
      const auto result = gee::core::embed(g, labels,
                                           {.backend = Backend::kLigraParallel});
      edge_pass = std::min(edge_pass, result.timings.edge_pass);
    }

    table.begin_row();
    table.cell(static_cast<long long>(degree));
    table.cell(gee::util::format_count(n));
    table.cell(dense_time, 4);
    table.cell(compact_time, 4);
    table.cell(edge_pass, 4);
    table.cell(dense_time / edge_pass, 3);
  }
  bench::emit(table, "ablation_init.csv");
  return 0;
}
