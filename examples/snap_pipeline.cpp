// snap_pipeline -- file-based workflow on a real graph: load a SNAP-format
// edge list from disk (Zachary's karate club ships in data/), reveal a
// handful of faction labels, embed, and predict every member's faction.
//
//   ./examples/snap_pipeline --graph data/karate.txt
//                            --labels data/karate_labels.txt
#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "cluster/louvain.hpp"
#include "cluster/metrics.hpp"
#include "gee/gee.hpp"
#include "gen/labels.hpp"
#include "graph/io.hpp"
#include "graph/validation.hpp"
#include "obs/obs.hpp"
#include "stream/dynamic_gee.hpp"
#include "stream/update_batch.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

std::vector<std::int32_t> read_labels(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open labels file '" + path + "'");
  std::vector<std::int32_t> labels;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    labels.push_back(static_cast<std::int32_t>(std::stol(line)));
  }
  return labels;
}

}  // namespace

int main(int argc, char** argv) {
  gee::util::ArgParser args("snap_pipeline",
                            "embed a SNAP-format edge list from disk");
  args.add_option("graph", "path to whitespace edge list", "data/karate.txt");
  args.add_option("labels", "path to ground-truth labels (one per line)",
                  "data/karate_labels.txt");
  args.add_option("label-fraction", "fraction of labels revealed to GEE",
                  "0.30");
  args.add_option("seed", "random seed", "3");
  args.add_option("strategy",
                  "DynamicGee update strategy for --replay (" +
                      gee::core::update_strategy_choices() + ")",
                  "delta");
  args.add_option("replay",
                  "stream the edge list through DynamicGee in this many "
                  "batches and report final-vs-batch max-abs error (0 = off)",
                  "0");
  args.add_option("trace",
                  "capture a Chrome trace of the pipeline to this path "
                  "(load in ui.perfetto.dev; tracing-enabled builds)",
                  "");
  if (!args.parse(argc, argv)) return 1;

  if (!args.get("trace").empty()) gee::obs::set_tracing_enabled(true);

  gee::graph::EdgeList el;
  std::vector<std::int32_t> truth;
  try {
    el = gee::graph::read_edge_list_text(args.get("graph"));
    truth = read_labels(args.get("labels"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n(run from the repository root, or pass "
                 "--graph/--labels paths)\n", e.what());
    return 1;
  }
  if (truth.size() < el.num_vertices()) {
    std::fprintf(stderr, "error: %zu labels for %u vertices\n", truth.size(),
                 el.num_vertices());
    return 1;
  }

  const auto g =
      gee::graph::Graph::build(el, gee::graph::GraphKind::kUndirected);
  std::printf("loaded %s: %s\n", args.get("graph").c_str(),
              gee::graph::describe(g.out()).c_str());

  auto observed = gee::gen::observe_labels_exact(
      truth, args.get_double("label-fraction"),
      static_cast<std::uint64_t>(args.get_int("seed")));
  // Guarantee every class at least one revealed label: its highest-degree
  // member (for karate: the instructor and the club president).
  const int num_classes = gee::gen::num_classes(truth);
  for (std::int32_t c = 0; c < num_classes; ++c) {
    bool seen = false;
    gee::graph::VertexId best = 0;
    gee::graph::EdgeId best_degree = 0;
    for (gee::graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      if (truth[v] != c) continue;
      seen |= observed[v] >= 0;
      if (g.out().degree(v) >= best_degree) {
        best_degree = g.out().degree(v);
        best = v;
      }
    }
    if (!seen) observed[best] = c;
  }
  std::printf("revealed %u of %u labels to GEE\n",
              gee::gen::num_labeled(observed), g.num_vertices());

  // --replay B: re-ingest the file as a stream of B update batches through
  // the dynamic engine and check it lands on the one-shot batch embedding.
  // This is the dynamic-pipeline smoke test on a real graph: identical
  // linearity, different accumulation order, so the error is pure
  // floating-point reassociation (expect ~1e-12 at karate scale).
  if (const auto num_batches = args.get_int("replay"); num_batches > 0) {
    const auto strategy = gee::core::parse_update_strategy(args.get("strategy"));
    if (!strategy) {
      std::fprintf(stderr, "unknown --strategy '%s' (choices: %s)\n",
                   args.get("strategy").c_str(),
                   gee::core::update_strategy_choices().c_str());
      return 1;
    }
    gee::core::Options stream_options;
    stream_options.stream_update_strategy = *strategy;
    gee::stream::DynamicGee dynamic(observed, stream_options);
    const auto m = el.num_edges();
    for (std::int64_t b = 0; b < num_batches; ++b) {
      const auto lo = static_cast<gee::graph::EdgeId>(
          m * static_cast<gee::graph::EdgeId>(b) /
          static_cast<gee::graph::EdgeId>(num_batches));
      const auto hi = static_cast<gee::graph::EdgeId>(
          m * static_cast<gee::graph::EdgeId>(b + 1) /
          static_cast<gee::graph::EdgeId>(num_batches));
      gee::stream::UpdateBatch batch;
      for (gee::graph::EdgeId e = lo; e < hi; ++e) {
        batch.add(el.src(e), el.dst(e), el.weight(e));
      }
      dynamic.apply(batch);
    }
    const auto one_shot = gee::core::embed_edges(
        el, observed, {.backend = gee::core::Backend::kCompiledSerial});
    const auto snap = dynamic.snapshot();
    std::printf("replayed %llu edges in %lld batches (epoch %llu): "
                "final-vs-batch max-abs error %.3g\n",
                static_cast<unsigned long long>(m),
                static_cast<long long>(num_batches),
                static_cast<unsigned long long>(snap.epoch),
                gee::core::max_abs_diff(*snap.z, one_shot.z));
  }

  const auto result = gee::core::embed(
      g, observed,
      {.backend = gee::core::Backend::kLigraParallel, .correlation = true});

  gee::util::TextTable table("per-vertex prediction");
  table.set_header({"vertex", "truth", "observed?", "predicted", "ok"});
  gee::graph::VertexId correct = 0, evaluated = 0;
  for (gee::graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    const int predicted = gee::core::argmax_row(result.z, v);
    const bool was_observed = observed[v] >= 0;
    if (!was_observed) {
      // A -1 prediction (no labeled neighbor) counts as a miss: the model
      // genuinely cannot classify that vertex.
      ++evaluated;
      if (predicted == truth[v]) ++correct;
    }
    table.begin_row();
    table.cell(static_cast<std::size_t>(v));
    table.cell(static_cast<long long>(truth[v]));
    table.cell(was_observed ? "yes" : "");
    table.cell(predicted >= 0 ? std::to_string(predicted) : "?");
    table.cell(!was_observed ? (predicted == truth[v] ? "+" : "MISS") : "");
  }
  table.print(std::cout);
  std::printf("\nhold-out accuracy: %u / %u\n", correct, evaluated);

  const auto louvain = gee::cluster::louvain(g.out());
  std::printf("louvain on the same graph: %d communities, modularity %.3f, "
              "ARI vs factions %.3f\n",
              louvain.num_communities, louvain.modularity,
              gee::cluster::adjusted_rand_index(louvain.community, truth));

  if (const auto path = args.get("trace"); !path.empty()) {
    if (gee::obs::write_trace_json(path)) {
      std::printf("chrome trace written to %s (load in ui.perfetto.dev)\n",
                  path.c_str());
    }
  }
  return 0;
}
