// embed-dense / embed-sparse-lap: core::embed on one R-MAT graph.
//
// Both workloads time the default backend (kLigraParallel) against the
// kCompiledSerial reference on the same graph and labels, interleaved so
// machine noise lands on both. embed-dense (edge factor 16, plain GEE) is
// the paper's setting: skewed degrees and atomic contention on hub rows,
// with the edge pass a large share of each call. embed-sparse-lap (edge
// factor 2, the reference code's Laplacian + diagonal augmentation +
// correlation options) has 8x fewer arcs over the same n x K, so Z
// allocation, the Laplacian reweight copy and postprocessing dominate: an
// edge-pass gain should not move it, an O(n K) gain should move it more.
#include <cstdint>
#include <vector>

#include "gee/embedding.hpp"
#include "gee/gee.hpp"
#include "gee/preprocess.hpp"
#include "gen/labels.hpp"
#include "gen/rmat.hpp"
#include "graph/csr.hpp"
#include "obs/trace.hpp"
#include "suite.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace gee::suite {

namespace {

constexpr int kClasses = 50;
constexpr double kLabelledFraction = 0.10;
/// The conformance harness's tolerance for reassociated sums.
constexpr double kTolerance = 1e-10;
constexpr int kSetupRepeats = 3;
constexpr int kWarmups = 2;
/// Default-backend calls per serial call in the measurement loop.
constexpr int kCallsPerSerial = 3;
constexpr int kMinCalls = 6;
constexpr int kMinSerialCalls = 3;

double phase_sum(const core::Timings& t) {
  return t.projection + t.graph_build + t.edge_pass + t.postprocess;
}

/// Bytes the edge pass must move at minimum (computed, not measured):
/// per arc its target id (and weight, when weighted); per arc whose
/// source is labelled, one read-modify-write of a Z cell; per vertex its
/// offset, label and W entry.
double computed_edge_pass_bytes(const graph::Graph& g,
                                std::span<const std::int32_t> labels) {
  const graph::Csr& csr = g.out();
  double labelled_arcs = 0;
  for (graph::VertexId u = 0; u < csr.num_vertices(); ++u) {
    if (labels[u] >= 0) labelled_arcs += static_cast<double>(csr.degree(u));
  }
  const double per_arc = g.weighted() ? 8.0 : 4.0;
  return static_cast<double>(g.num_arcs()) * per_arc + labelled_arcs * 16.0 +
         static_cast<double>(g.num_vertices()) * (8.0 + 4.0 + 8.0);
}

}  // namespace

Outcome run_embed(const Params& params, bool sparse_laplacian) {
  const int scale = params.smoke ? 14 : 20;
  const graph::EdgeId edge_factor = sparse_laplacian ? 2 : 16;
  const graph::VertexId n = graph::VertexId{1} << scale;

  // Inputs: not part of any metric.
  const auto edges = gen::rmat(scale, edge_factor, params.seed);
  const auto labels = gen::semi_supervised_labels(
      n, kClasses, kLabelledFraction, util::hash_combine(params.seed, 1));

  Tracer tracer;
  Tracer* const tr = params.trace ? &tracer : nullptr;
  obs::set_tracing_enabled(params.trace);
  Outcome out;

  // setup_s: building the CSR the embedding reads.
  std::vector<double> setup;
  graph::Graph g;
  for (int i = 0; i < kSetupRepeats; ++i) {
    g = graph::Graph();  // free the previous build before timing the next
    Tracer::Scope span(tr, "graph.build");
    const double t0 = now_s();
    g = graph::Graph::build(edges, graph::GraphKind::kUndirected);
    setup.push_back(now_s() - t0);
  }
  util::log_info("gee-suite: rmat(" + std::to_string(scale) + ", " +
                 std::to_string(edge_factor) + "): n=" + std::to_string(n) +
                 " arcs=" + std::to_string(g.num_arcs()));

  core::Options options;
  if (sparse_laplacian) {
    options.laplacian = true;
    options.diag_augment = true;
    options.correlation = true;
  }
  core::Options serial_options = options;
  serial_options.backend = core::Backend::kCompiledSerial;

  const core::Result reference = core::embed(g, labels, serial_options);
  const int k = reference.projection.num_classes;

  // One timed call: the previous result is freed first, outside the timed
  // region, so only embed() itself is measured.
  core::Result result;
  const auto timed_embed = [&](const core::Options& o, const char* name) {
    result = core::Result{};
    Tracer::Scope span(tr, name);
    const double t0 = now_s();
    result = core::embed(g, labels, o);
    const double seconds = now_s() - t0;
    span.end();
    ++out.attempted;
    const double diff = core::max_abs_diff(result.z, reference.z);
    if (!(diff < kTolerance)) {
      out.mismatch(1, std::string(name) + " max_abs_diff " +
                          std::to_string(diff) + " vs kCompiledSerial");
    }
    return seconds;
  };

  for (int i = 0; i < kWarmups; ++i) (void)timed_embed(options, "gee.embed");

  std::vector<double> wall, serial_wall, traced_wall, untraced_wall;
  std::vector<core::Timings> timings, serial_timings;
  const double start = now_s();
  while (now_s() - start < params.seconds ||
         static_cast<int>(wall.size()) < kMinCalls ||
         static_cast<int>(serial_wall.size()) < kMinSerialCalls) {
    for (int i = 0; i < kCallsPerSerial; ++i) {
      // Trace runs alternate spans on/off to measure their overhead.
      const bool traced = tr != nullptr && wall.size() % 2 == 0;
      tracer.set_enabled(traced);
      obs::set_tracing_enabled(traced);
      const double seconds = timed_embed(options, "gee.embed");
      wall.push_back(seconds);
      timings.push_back(result.timings);
      (traced ? traced_wall : untraced_wall).push_back(seconds);
    }
    tracer.set_enabled(true);
    obs::set_tracing_enabled(params.trace);
    serial_wall.push_back(timed_embed(serial_options, "gee.embed.serial"));
    serial_timings.push_back(result.timings);
  }
  result = core::Result{};

  const double arcs = static_cast<double>(g.num_arcs());
  double wall_total = 0;
  for (const double s : wall) wall_total += s;

  out.set("setup_s", median(setup));
  out.set("op_p50_s", median(wall));
  out.set("op_p90_s", quantile(wall, 0.9));
  out.set("ops_per_sec", arcs * static_cast<double>(wall.size()) / wall_total);
  out.set("ref_p50_s", median(serial_wall));
  util::log_info("gee-suite: " + std::to_string(wall.size()) + " embed calls, " +
                 std::to_string(serial_wall.size()) + " serial calls");
  if (!params.trace) return out;

  // ---- per-layer numbers (trace run only)
  const auto field_median = [](const std::vector<core::Timings>& ts,
                               auto field) {
    std::vector<double> v;
    for (const auto& t : ts) v.push_back(field(t));
    return median(v);
  };
  const auto unattributed = [](const std::vector<double>& w,
                               const std::vector<core::Timings>& ts) {
    std::vector<double> v;
    for (std::size_t i = 0; i < w.size(); ++i) v.push_back(w[i] - phase_sum(ts[i]));
    return median(v);
  };

  // Z allocation, timed directly (embed() does it between its phases; the
  // free is not part of the call, so it is not part of the span either).
  for (int i = 0; i < 5; ++i) {
    core::Embedding z;
    Tracer::Scope span(tr, "gee.z_init");
    z = core::Embedding(n, k);
    span.end();
  }
  // The Laplacian reweight copy, timed directly (sparse-lap only runs it).
  if (sparse_laplacian) {
    for (int i = 0; i < 3; ++i) {
      Tracer::Scope span(tr, "gee.laplacian");
      const auto degrees = core::weighted_degrees(g, options.diag_augment);
      const auto reweighted = core::reweight_laplacian(g, degrees);
    }
  }
  // Edge-pass thread sweep.
  double edge_pass_by_threads[3] = {};
  const int thread_counts[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    core::Options swept = options;
    swept.num_threads = thread_counts[i];
    std::vector<core::Timings> ts;
    for (int r = 0; r < 3; ++r) {
      (void)timed_embed(swept, "gee.embed.sweep");
      ts.push_back(result.timings);
    }
    edge_pass_by_threads[i] =
        field_median(ts, [](const core::Timings& t) { return t.edge_pass; });
  }
  result = core::Result{};

  const double edge_pass =
      field_median(timings, [](const core::Timings& t) { return t.edge_pass; });
  const double serial_edge_pass = field_median(
      serial_timings, [](const core::Timings& t) { return t.edge_pass; });
  const double z_init = median_self(tracer, "gee.z_init");
  const double laplacian = median_self(tracer, "gee.laplacian");
  const double gap = unattributed(wall, timings);

  out.set("graph.build_s", median_self(tracer, "graph.build"));
  out.set("gee.z_init_s", z_init);
  out.set("gee.laplacian_s", laplacian);
  out.set("gee.projection_s", field_median(timings, [](const core::Timings& t) {
            return t.projection;
          }));
  out.set("gee.edge_pass_s", edge_pass);
  out.set("gee.postprocess_s", field_median(timings, [](const core::Timings& t) {
            return t.postprocess;
          }));
  out.set("gee.edge_pass.arcs_per_sec", arcs / edge_pass);
  out.set("gee.edge_pass.computed_bytes", computed_edge_pass_bytes(g, labels));
  out.set("gee.unattributed_s", gap);
  out.set("gee.unattributed_explained", gap > 0 ? (z_init + laplacian) / gap : 0);
  out.set("gee.serial.edge_pass_s", serial_edge_pass);
  out.set("gee.serial.unattributed_s", unattributed(serial_wall, serial_timings));
  out.set("gee.speedup_vs_serial", median(serial_wall) / median(wall));
  out.set("gee.edge_pass.speedup_vs_serial", serial_edge_pass / edge_pass);
  out.set("gee.edge_pass_s.threads-1", edge_pass_by_threads[0]);
  out.set("gee.edge_pass_s.threads-2", edge_pass_by_threads[1]);
  out.set("gee.edge_pass_s.threads-4", edge_pass_by_threads[2]);
  out.set("gee.edge_pass.efficiency",
          edge_pass_by_threads[0] / (4.0 * edge_pass_by_threads[2]));
  out.set("trace.overhead", overhead(traced_wall, untraced_wall));
  write_traces(params, tracer);
  return out;
}

}  // namespace gee::suite
