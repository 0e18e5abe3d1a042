// scaling_demo -- the paper's headline measurement at interactive scale:
// every backend on one skewed (R-MAT) graph, then the edge-parallel backend
// across a thread sweep. A miniature of Table I + Figure 3 you can run in
// seconds and point at any machine.
//
//   ./examples/scaling_demo --scale 20 --edge-factor 16
#include <cstdio>
#include <iostream>
#include <optional>

#include "gee/gee.hpp"
#include "gen/labels.hpp"
#include "gen/rmat.hpp"
#include "graph/validation.hpp"
#include "parallel/parallel_for.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  gee::util::ArgParser args("scaling_demo",
                            "all GEE backends + thread sweep on an R-MAT graph");
  args.add_option("scale", "log2 of the vertex count", "19");
  args.add_option("edge-factor", "edges per vertex", "16");
  args.add_option("classes", "number of classes K", "50");
  args.add_option("seed", "random seed", "1");
  args.add_option("backend",
                  "sweep only this backend (one of: " +
                      gee::util::backend_choices() + ")");
  args.add_flag("skip-interpreted", "skip the slow interpreted baseline");
  if (!args.parse(argc, argv)) return 1;

  std::optional<gee::core::Backend> only;
  if (args.has("backend")) {
    only = gee::util::parse_backend(args.get("backend"));
    if (!only) {
      std::fprintf(stderr, "unknown backend '%s' (choices: %s)\n",
                   args.get("backend").c_str(),
                   gee::util::backend_choices().c_str());
      return 1;
    }
  }

  const int scale = static_cast<int>(args.get_int("scale"));
  const auto ef = static_cast<gee::graph::EdgeId>(args.get_int("edge-factor"));
  const int k = static_cast<int>(args.get_int("classes"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

  gee::util::Timer timer;
  const auto el = gee::gen::rmat(scale, ef, seed);
  const auto g =
      gee::graph::Graph::build(el, gee::graph::GraphKind::kUndirected);
  std::printf("graph: %s (generated+built in %s)\n",
              gee::graph::describe(g.out()).c_str(),
              gee::util::format_seconds(timer.restart()).c_str());
  const auto labels =
      gee::gen::semi_supervised_labels(g.num_vertices(), k, 0.10, seed + 1);

  using gee::core::Backend;
  gee::util::TextTable table("backends, " + std::to_string(k) + " classes");
  table.set_header({"backend", "edge pass", "total", "vs compiled-serial"});
  double compiled_serial_time = 0;
  for (const Backend backend : gee::core::kAllBackends) {
    if (only && backend != *only && backend != Backend::kCompiledSerial) {
      continue;  // keep the serial baseline for the speedup column
    }
    if (backend == Backend::kInterpreted && args.get_flag("skip-interpreted")) {
      continue;
    }
    const auto result = gee::core::embed(g, labels, {.backend = backend});
    if (backend == Backend::kCompiledSerial) {
      compiled_serial_time = result.timings.edge_pass;
    }
    table.begin_row();
    table.cell(gee::core::to_string(backend));
    table.cell(gee::util::format_seconds(result.timings.edge_pass));
    table.cell(gee::util::format_seconds(result.timings.total));
    table.cell(compiled_serial_time > 0
                   ? gee::util::format_double(
                         compiled_serial_time / result.timings.edge_pass, 3) +
                         "x"
                   : "-");
  }
  table.print(std::cout);

  gee::util::TextTable sweep("edge-parallel thread sweep");
  sweep.set_header({"threads", "edge pass", "speedup vs 1 thread"});
  double t1 = 0;
  for (int threads = 1; threads <= gee::par::num_threads(); threads *= 2) {
    const auto result = gee::core::embed(
        g, labels,
        {.backend = Backend::kLigraParallel, .num_threads = threads});
    if (threads == 1) t1 = result.timings.edge_pass;
    sweep.begin_row();
    sweep.cell(static_cast<long long>(threads));
    sweep.cell(gee::util::format_seconds(result.timings.edge_pass));
    sweep.cell(gee::util::format_double(t1 / result.timings.edge_pass, 3));
  }
  sweep.print(std::cout);
  return 0;
}
