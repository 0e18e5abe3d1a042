// Ablation A1 -- the cost of correctness: lock-free atomic writeAdd versus
// racy plain adds versus the race-free alternatives (pull decomposition,
// ownership via edge partitioning).
//
// The paper (section IV): "we ran the program with atomics off, performing
// unsafe updates, and saw no appreciable performance difference", concluding
// the workload is memory-bound. This bench quantifies that claim on two
// graph shapes (uniform ER = low contention, skewed R-MAT = hub contention)
// and also reports how much mass the unsafe variant actually loses. The
// partitioned column extends the ablation with the contention-free design
// from src/partition/: if the paper's memory-bound conclusion holds,
// ownership should match atomics; if hub contention bites (skewed graph,
// many threads), ownership should win.
#include "bench/common.hpp"

#include "gen/erdos_renyi.hpp"
#include "util/log.hpp"

namespace {

double total_mass(const gee::core::Embedding& z) {
  double total = 0;
  for (std::size_t i = 0; i < z.size(); ++i) total += z.data()[i];
  return total;
}

}  // namespace

int main() {
  using gee::core::Backend;
  namespace bench = gee::bench;

  const auto d = bench::scale_denominator();
  const auto n = static_cast<gee::graph::VertexId>(16e6 / static_cast<double>(d));
  const auto m = static_cast<gee::graph::EdgeId>(256e6 / static_cast<double>(d));

  gee::util::TextTable table(
      "A1 -- atomic vs unsafe vs race-free designs (edge-pass seconds)");
  table.set_header({"graph", "atomics", "unsafe", "pull", "partitioned",
                    "unsafe/atomics", "partitioned/atomics",
                    "mass kept by unsafe"});

  struct Shape {
    const char* name;
    gee::graph::EdgeList edges;
  };
  gee::util::log_info("A1: generating workloads");
  Shape shapes[] = {
      {"erdos-renyi (uniform)", gee::gen::erdos_renyi_gnm(n, m, 5)},
      {"rmat (skewed hubs)", gee::gen::rmat_approx(n, m, 5)},
  };

  for (auto& shape : shapes) {
    bench::PreparedGraph prepared;
    prepared.graph = gee::graph::Graph::build(
        shape.edges, gee::graph::GraphKind::kUndirected);
    prepared.labels = gee::gen::semi_supervised_labels(
        n, bench::kNumClasses, bench::kLabelFraction, 17);

    const double atomic =
        bench::time_backend(prepared, Backend::kLigraParallel);
    const double unsafe =
        bench::time_backend(prepared, Backend::kParallelUnsafe);
    const double pull = bench::time_backend(prepared, Backend::kParallelPull);
    // First kPartitioned call also builds the partition plan; time_backend's
    // best-of-N reporting (projection + edge_pass only) matches the other
    // columns, and later repeats hit the plan cached on the graph.
    const double partitioned =
        bench::time_backend(prepared, Backend::kPartitioned);

    // Quantify the dropped updates of one unsafe run against the exact
    // pull result.
    const auto exact = gee::core::embed(prepared.graph, prepared.labels,
                                        {.backend = Backend::kParallelPull});
    const auto racy = gee::core::embed(prepared.graph, prepared.labels,
                                       {.backend = Backend::kParallelUnsafe});
    const double kept = total_mass(racy.z) / total_mass(exact.z);

    table.begin_row();
    table.cell(shape.name);
    table.cell(atomic, 4);
    table.cell(unsafe, 4);
    table.cell(pull, 4);
    table.cell(partitioned, 4);
    table.cell(unsafe / atomic, 3);
    table.cell(partitioned / atomic, 3);
    table.cell(gee::util::format_double(100.0 * kept, 4) + "%");
  }
  bench::emit(table, "ablation_atomics.csv");
  return 0;
}
