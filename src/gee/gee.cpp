#include "gee/gee.hpp"

#include <array>
#include <stdexcept>

#include "gee/backends/pass.hpp"
#include "gee/preprocess.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "partition/partitioner.hpp"
#include "util/timer.hpp"

namespace gee::core {

std::string to_string(Backend backend) {
  switch (backend) {
    case Backend::kInterpreted: return "interpreted";
    case Backend::kCompiledSerial: return "compiled-serial";
    case Backend::kLigraSerial: return "ligra-serial";
    case Backend::kLigraParallel: return "ligra-parallel";
    case Backend::kParallelUnsafe: return "parallel-unsafe";
    case Backend::kParallelPull: return "parallel-pull";
    case Backend::kFlatParallel: return "flat-parallel";
    case Backend::kPartitioned: return "partitioned";
  }
  return "?";
}

std::string to_string(UpdateStrategy strategy) {
  switch (strategy) {
    case UpdateStrategy::kDelta: return "delta";
    case UpdateStrategy::kKHop: return "khop";
    case UpdateStrategy::kAuto: return "auto";
  }
  return "?";
}

namespace {

using detail::ArcSemantics;
using detail::Atomicity;
using detail::PassContext;

bool backend_is_serial(Backend backend) {
  return backend == Backend::kInterpreted ||
         backend == Backend::kCompiledSerial ||
         backend == Backend::kLigraSerial;
}

/// diag_augment post-pass: Algorithm 1 on the unit self-loop (v, v, w_loop)
/// fires both update lines, adding 2 * W(v) * w_loop to Z(v, Y(v)). With
/// the Laplacian transform the loop's weight is 1 / d(v).
void apply_diag_augment(Embedding& z, const Projection& projection,
                        std::span<const std::int32_t> labels,
                        const std::vector<Real>& lap_degrees) {
  const bool laplacian = !lap_degrees.empty();
  gee::par::parallel_for(VertexId{0}, z.num_vertices(), [&](VertexId v) {
    const std::int32_t y = labels[v];
    if (y < 0) return;
    const Real loop_w = laplacian ? Real{1} / lap_degrees[v] : Real{1};
    z.at(v, y) += Real{2} * projection.vertex_weight[v] * loop_w;
  });
}

struct Prepared {
  Projection projection;
  Embedding z;
  Timings timings;
};

Prepared prepare(VertexId n, std::span<const std::int32_t> labels,
                 const Options& options) {
  GEE_TRACE_SPAN("gee.embed.projection");
  if (labels.size() < n) {
    throw std::invalid_argument("embed: labels shorter than vertex count");
  }
  gee::util::Timer timer;
  Prepared p;
  p.projection = build_projection(labels.first(n), options.num_classes);
  if (p.projection.num_classes == 0) {
    throw std::invalid_argument("embed: no labeled vertices and no K given");
  }
  p.timings.projection = timer.restart();
  p.z = Embedding(n, p.projection.num_classes);
  return p;
}

/// Per-phase, per-backend attribution (DESIGN.md section 8). Handles are
/// resolved once (function-local statics) so the per-call cost is a few
/// relaxed shard increments -- nothing touches the edge-pass inner loops,
/// which is why instrumented output stays bitwise identical.
void record_embed_metrics(Backend backend, const Timings& t,
                          std::uint64_t arcs) {
  static auto& calls = obs::counter("gee.embed.calls");
  static auto& arc_count = obs::counter("gee.embed.arcs");
  static auto& projection_s = obs::histogram("gee.embed.projection_seconds");
  static auto& postprocess_s = obs::histogram("gee.embed.postprocess_seconds");
  static auto& total_s = obs::histogram("gee.embed.total_seconds");
  static const auto edge_pass_s = [] {
    std::array<obs::Histogram*, std::size(kAllBackends)> h{};
    for (const Backend b : kAllBackends) {
      h[static_cast<std::size_t>(b)] = &obs::histogram(
          "gee.embed.edge_pass_seconds." + to_string(b));
    }
    return h;
  }();
  calls.add();
  arc_count.add(static_cast<std::int64_t>(arcs));
  projection_s.record(t.projection);
  postprocess_s.record(t.postprocess);
  total_s.record(t.total);
  edge_pass_s[static_cast<std::size_t>(backend)]->record(t.edge_pass);
}

}  // namespace

Result embed(const graph::Graph& g, std::span<const std::int32_t> labels,
             const Options& options) {
  GEE_TRACE_SPAN("gee.embed");
  gee::par::ThreadScope threads(backend_is_serial(options.backend)
                                    ? 1
                                    : options.num_threads);
  gee::util::Timer total;
  const VertexId n = g.num_vertices();
  Prepared p = prepare(n, labels, options);

  // Laplacian: reweight a copy of the graph (correctness path; Table I
  // benches run without it, so the hot loops never pay for the option).
  std::vector<Real> lap_degrees;
  const graph::Graph* graph = &g;
  graph::Graph reweighted;
  gee::util::Timer phase;
  if (options.laplacian) {
    lap_degrees = weighted_degrees(g, options.diag_augment);
    reweighted = reweight_laplacian(g, lap_degrees);
    graph = &reweighted;
  }

  const ArcSemantics semantics =
      g.directed() ? ArcSemantics::kBoth : ArcSemantics::kDestOnly;
  const PassContext ctx{labels.data(), p.projection.vertex_weight.data(),
                        p.z.data(), p.projection.num_classes};

  phase.restart();
  gee::obs::TraceSpan edge_pass_span("gee.embed.edge_pass");
  switch (options.backend) {
    case Backend::kInterpreted: {
      const auto dense_w = build_dense_w(p.projection, labels.first(n));
      phase.restart();  // dense W is part of projection cost, not the pass
      detail::pass_interpreted_csr(graph->out(), semantics, ctx,
                                   dense_w.data());
      break;
    }
    case Backend::kCompiledSerial:
      detail::pass_serial_csr(graph->out(), semantics, ctx);
      break;
    case Backend::kLigraSerial:  // ThreadScope pinned to 1 above
    case Backend::kLigraParallel:
      detail::pass_engine(*graph, semantics, Atomicity::kAtomic, ctx);
      break;
    case Backend::kParallelUnsafe:
      detail::pass_engine(*graph, semantics, Atomicity::kUnsafe, ctx);
      break;
    case Backend::kParallelPull:
      detail::pass_pull(*graph, semantics, ctx);
      break;
    case Backend::kFlatParallel:
      detail::pass_flat_csr(graph->out(), semantics, Atomicity::kAtomic, ctx);
      break;
    case Backend::kPartitioned: {
      // Cache on the caller's graph even when partitioning the local
      // Laplacian-reweighted copy: the transform is deterministic in
      // (graph, laplacian, diag_augment), so the variant bits identify the
      // reweighted arc content and repeated calls skip re-partitioning
      // (the reweighting itself is still paid per call).
      const std::uint32_t variant =
          options.laplacian ? (1u | (options.diag_augment ? 2u : 0u)) : 0u;
      const auto plan = partition::plan_for(
          g, graph->out(),
          semantics == ArcSemantics::kBoth ? partition::UpdateSides::kBoth
                                           : partition::UpdateSides::kDestOnly,
          partition::resolve_num_blocks(options.partition_blocks), variant);
      // First call pays partitioning (reported like embed_edges' CSR
      // build); later calls on the same graph hit the AuxCache.
      p.timings.graph_build = phase.restart();
      detail::pass_partitioned(*plan, ctx);
      break;
    }
  }
  edge_pass_span.end();
  p.timings.edge_pass = phase.restart();

  GEE_TRACE_SPAN("gee.embed.postprocess");
  if (options.diag_augment) {
    apply_diag_augment(p.z, p.projection, labels.first(n), lap_degrees);
  }
  if (options.correlation) normalize_rows(p.z);
  p.timings.postprocess = phase.seconds();
  p.timings.total = total.seconds();
  record_embed_metrics(options.backend, p.timings, g.num_arcs());

  return Result{std::move(p.z), std::move(p.projection), p.timings,
                options.backend};
}

Result embed_edges(const graph::EdgeList& edges,
                   std::span<const std::int32_t> labels,
                   const Options& options) {
  GEE_TRACE_SPAN("gee.embed_edges");
  gee::par::ThreadScope threads(backend_is_serial(options.backend)
                                    ? 1
                                    : options.num_threads);
  gee::util::Timer total;
  const VertexId n = edges.num_vertices();
  Prepared p = prepare(n, labels, options);

  std::vector<Real> lap_degrees;
  const graph::EdgeList* list = &edges;
  graph::EdgeList reweighted;
  if (options.laplacian) {
    lap_degrees = weighted_degrees(edges, options.diag_augment);
    reweighted = reweight_laplacian(edges, lap_degrees);
    list = &reweighted;
  }

  const PassContext ctx{labels.data(), p.projection.vertex_weight.data(),
                        p.z.data(), p.projection.num_classes};

  gee::util::Timer phase;
  gee::obs::TraceSpan edge_pass_span("gee.embed.edge_pass");
  switch (options.backend) {
    case Backend::kInterpreted: {
      const auto dense_w = build_dense_w(p.projection, labels.first(n));
      phase.restart();
      detail::pass_interpreted_edges(*list, ctx, dense_w.data());
      p.timings.edge_pass = phase.seconds();
      break;
    }
    case Backend::kCompiledSerial:
      detail::pass_serial_edges(*list, ctx);
      p.timings.edge_pass = phase.seconds();
      break;
    case Backend::kFlatParallel:
      detail::pass_flat_edges(*list, Atomicity::kAtomic, ctx);
      p.timings.edge_pass = phase.seconds();
      break;
    case Backend::kPartitioned: {
      const auto plan =
          partition::build_plan(*list, options.partition_blocks);
      p.timings.graph_build = phase.restart();
      detail::pass_partitioned(plan, ctx);
      p.timings.edge_pass = phase.seconds();
      break;
    }
    case Backend::kLigraSerial:
    case Backend::kLigraParallel:
    case Backend::kParallelUnsafe:
    case Backend::kParallelPull: {
      // Engine backends need adjacency: build a directed graph whose arcs
      // are exactly the listed edges (kBoth semantics == Algorithm 1).
      const bool needs_in = options.backend == Backend::kParallelPull;
      const graph::Graph g =
          graph::Graph::build(*list, graph::GraphKind::kDirected,
                              {.sort_neighbors = false, .build_in_csr = needs_in},
                              n);
      p.timings.graph_build = phase.restart();
      switch (options.backend) {
        case Backend::kLigraSerial:
        case Backend::kLigraParallel:
          detail::pass_engine(g, ArcSemantics::kBoth, Atomicity::kAtomic, ctx);
          break;
        case Backend::kParallelUnsafe:
          detail::pass_engine(g, ArcSemantics::kBoth, Atomicity::kUnsafe, ctx);
          break;
        default:
          detail::pass_pull(g, ArcSemantics::kBoth, ctx);
          break;
      }
      p.timings.edge_pass = phase.seconds();
      break;
    }
  }

  edge_pass_span.end();
  phase.restart();
  GEE_TRACE_SPAN("gee.embed.postprocess");
  if (options.diag_augment) {
    apply_diag_augment(p.z, p.projection, labels.first(n), lap_degrees);
  }
  if (options.correlation) normalize_rows(p.z);
  p.timings.postprocess = phase.seconds();
  p.timings.total = total.seconds();
  record_embed_metrics(options.backend, p.timings,
                       2 * static_cast<std::uint64_t>(edges.num_edges()));

  return Result{std::move(p.z), std::move(p.projection), p.timings,
                options.backend};
}

}  // namespace gee::core
