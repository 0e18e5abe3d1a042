#include "gee/gee.hpp"

#include <array>
#include <stdexcept>

#include "gee/backends/pass.hpp"
#include "gee/preprocess.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "partition/partitioner.hpp"
#include "simd/simd.hpp"
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

std::optional<Backend> parse_backend(const std::string& name) {
  for (const Backend backend : kAllBackends) {
    if (to_string(backend) == name) return backend;
  }
  return std::nullopt;
}

std::string backend_choices() {
  std::string choices;
  for (const Backend backend : kAllBackends) {
    if (!choices.empty()) choices += ", ";
    choices += to_string(backend);
  }
  return choices;
}

std::string to_string(UpdateStrategy strategy) {
  switch (strategy) {
    case UpdateStrategy::kDelta: return "delta";
    case UpdateStrategy::kKHop: return "khop";
    case UpdateStrategy::kAuto: return "auto";
  }
  return "?";
}

std::optional<UpdateStrategy> parse_update_strategy(const std::string& name) {
  for (const UpdateStrategy s : kAllUpdateStrategies) {
    if (to_string(s) == name) return s;
  }
  return std::nullopt;
}

std::string update_strategy_choices() {
  std::string choices;
  for (const UpdateStrategy s : kAllUpdateStrategies) {
    if (!choices.empty()) choices += ", ";
    choices += to_string(s);
  }
  return choices;
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

struct Prepared {
  Projection projection;
  /// Laplacian only (both empty otherwise): the row scales s(v) and the
  /// pass weights W'(v) = W(v) * s(v) (preprocess.hpp).
  std::vector<Real> row_scale;
  std::vector<Real> pass_weight;
  Embedding z;
  Timings timings;

  /// The W the edge pass reads: W' under the Laplacian option, else W.
  [[nodiscard]] const Real* vertex_weight() const {
    return row_scale.empty() ? projection.vertex_weight.data()
                             : pass_weight.data();
  }
};

/// W, and under the Laplacian option s and W' (the projection the pass
/// reads, so Timings::projection covers them), then Z. `input` is the
/// Graph or EdgeList whose weighted degrees the Laplacian needs.
template <class Input>
Prepared prepare(const Input& input, VertexId n,
                 std::span<const std::int32_t> labels, const Options& options) {
  if (labels.size() < n) {
    throw std::invalid_argument("embed: labels shorter than vertex count");
  }
  gee::util::Timer timer;
  Prepared p;
  gee::obs::TraceSpan projection_span("gee.embed.projection");
  p.projection = build_projection(labels.first(n), options.num_classes);
  if (p.projection.num_classes == 0) {
    throw std::invalid_argument("embed: no labeled vertices and no K given");
  }
  if (options.laplacian) {
    p.row_scale = weighted_degrees(input, options.diag_augment);
    p.pass_weight =
        fold_laplacian_scales(p.row_scale, p.projection.vertex_weight);
  }
  projection_span.end();
  p.timings.projection = timer.restart();
  GEE_TRACE_SPAN("gee.embed.z_init");
  p.z = Embedding(n, p.projection.num_classes);
  p.timings.z_init = timer.seconds();
  return p;
}

/// The reference code's three options as one pass over the rows of Z
/// after the edge pass (DESIGN.md section 2). Per row: diag_augment's unit
/// self-loop (v, v, 1) fires both update lines, adding 2 * W'(v) to
/// Z(v, Y(v)); then correlation normalizes the row, or else the Laplacian
/// scales it by s(v). Normalizing cancels any positive row scale, so
/// correlation skips it. Without the Laplacian each row sees the same
/// operations, in the same order, as a diag pass followed by
/// normalize_rows.
void postprocess(Prepared& p, std::span<const std::int32_t> labels,
                 const Options& options) {
  if (!options.laplacian && !options.diag_augment && !options.correlation) {
    return;
  }
  const Real* w = p.vertex_weight();
  gee::par::parallel_for(VertexId{0}, p.z.num_vertices(), [&](VertexId v) {
    const std::span<Real> row = p.z.row(v);
    const std::int32_t y = labels[v];
    if (options.diag_augment && y >= 0) row[y] += Real{2} * w[v];
    if (options.correlation) {
      normalize_row(row);
    } else if (options.laplacian) {
      simd::scale(row.data(), row.size(), p.row_scale[v]);
    }
  }, /*grain=*/256);
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
  static auto& z_init_s = obs::histogram("gee.embed.z_init_seconds");
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
  z_init_s.record(t.z_init);
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
  Prepared p = prepare(g, n, labels, options);

  const ArcSemantics semantics =
      g.directed() ? ArcSemantics::kBoth : ArcSemantics::kDestOnly;
  const PassContext ctx{labels.data(), p.vertex_weight(), p.z.data(),
                        p.projection.num_classes};

  gee::util::Timer phase;
  gee::obs::TraceSpan edge_pass_span("gee.embed.edge_pass");
  switch (options.backend) {
    case Backend::kInterpreted: {
      const auto dense_w = build_dense_w({ctx.vertex_weight, n}, ctx.k,
                                         labels.first(n));
      phase.restart();  // dense W is part of projection cost, not the pass
      detail::pass_interpreted_csr(g.out(), semantics, ctx, dense_w.data());
      break;
    }
    case Backend::kCompiledSerial:
      detail::pass_serial_csr(g.out(), semantics, ctx);
      break;
    case Backend::kLigraSerial:  // ThreadScope pinned to 1 above
    case Backend::kLigraParallel:
      detail::pass_engine(g, semantics, Atomicity::kAtomic, ctx);
      break;
    case Backend::kParallelUnsafe:
      detail::pass_engine(g, semantics, Atomicity::kUnsafe, ctx);
      break;
    case Backend::kParallelPull:
      detail::pass_pull(g, semantics, ctx);
      break;
    case Backend::kFlatParallel:
      detail::pass_flat_csr(g.out(), semantics, Atomicity::kAtomic, ctx);
      break;
    case Backend::kPartitioned: {
      // First call pays partitioning (reported like embed_edges' CSR
      // build); later calls on the same graph, with any options, hit the
      // AuxCache and report graph_build 0.
      bool built = false;
      const auto plan = partition::plan_for(
          g,
          semantics == ArcSemantics::kBoth ? partition::UpdateSides::kBoth
                                           : partition::UpdateSides::kDestOnly,
          partition::resolve_num_blocks(options.partition_blocks), &built);
      if (built) p.timings.graph_build = phase.restart();
      detail::pass_partitioned(*plan, ctx);
      break;
    }
  }
  edge_pass_span.end();
  p.timings.edge_pass = phase.restart();

  GEE_TRACE_SPAN("gee.embed.postprocess");
  postprocess(p, labels, options);
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
  Prepared p = prepare(edges, n, labels, options);

  const PassContext ctx{labels.data(), p.vertex_weight(), p.z.data(),
                        p.projection.num_classes};

  gee::util::Timer phase;
  gee::obs::TraceSpan edge_pass_span("gee.embed.edge_pass");
  switch (options.backend) {
    case Backend::kInterpreted: {
      const auto dense_w = build_dense_w({ctx.vertex_weight, n}, ctx.k,
                                         labels.first(n));
      phase.restart();
      detail::pass_interpreted_edges(edges, ctx, dense_w.data());
      p.timings.edge_pass = phase.seconds();
      break;
    }
    case Backend::kCompiledSerial:
      detail::pass_serial_edges(edges, ctx);
      p.timings.edge_pass = phase.seconds();
      break;
    case Backend::kFlatParallel:
      detail::pass_flat_edges(edges, Atomicity::kAtomic, ctx);
      p.timings.edge_pass = phase.seconds();
      break;
    case Backend::kPartitioned: {
      const auto plan = partition::build_plan(edges, options.partition_blocks);
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
          graph::Graph::build(edges, graph::GraphKind::kDirected,
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
  postprocess(p, labels, options);
  p.timings.postprocess = phase.seconds();
  p.timings.total = total.seconds();
  record_embed_metrics(options.backend, p.timings,
                       2 * static_cast<std::uint64_t>(edges.num_edges()));

  return Result{std::move(p.z), std::move(p.projection), p.timings,
                options.backend};
}

}  // namespace gee::core
