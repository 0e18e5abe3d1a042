// stream-churn: DynamicGee::apply over a sliding window of edges.
//
// Each batch removes the previous batch's adds and adds as many fresh
// uniform pairs, so the live edge count stays flat while removals pile up
// until a drift rebuild fires. Batches are large enough (2 x 8192 ops) to
// take the partitioned delta path every time, and the measurement always
// ends on a drift rebuild, so every run covers whole rebuild cycles and
// the throughput pays for the rebuild the same way each time. No readers.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "gee/embedding.hpp"
#include "gen/labels.hpp"
#include "gen/rmat.hpp"
#include "obs/trace.hpp"
#include "stream/dynamic_gee.hpp"
#include "stream/update_batch.hpp"
#include "suite.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace gee::suite {

namespace {

constexpr int kClasses = 50;
constexpr double kLabelledFraction = 0.10;
constexpr double kTolerance = 1e-10;
constexpr int kSetupRepeats = 5;
constexpr int kRebuildRepeats = 3;

using Pair = std::pair<graph::VertexId, graph::VertexId>;

/// Batch b: remove `previous` (the last batch's adds), add `half` fresh
/// uniform pairs drawn from (seed, b), and return them as the next
/// `previous`.
stream::UpdateBatch churn_batch(std::uint64_t seed, std::uint64_t b,
                                graph::VertexId n, std::size_t half,
                                std::vector<Pair>& previous) {
  stream::UpdateBatch batch;
  batch.reserve(2 * half);
  for (const auto& [u, v] : previous) batch.remove(u, v);
  util::Xoshiro256 rng(seed, 1000 + b);
  previous.clear();
  while (previous.size() < half) {
    const auto u = static_cast<graph::VertexId>(rng.next_below(n));
    const auto v = static_cast<graph::VertexId>(rng.next_below(n));
    if (u == v) continue;
    batch.add(u, v);
    previous.emplace_back(u, v);
  }
  return batch;
}

}  // namespace

Outcome run_stream(const Params& params) {
  const int scale = params.smoke ? 12 : 18;
  const std::size_t half = params.smoke ? 128 : 8192;
  const graph::VertexId n = graph::VertexId{1} << scale;

  const auto base = gen::rmat(scale, 8, params.seed);
  const auto labels = gen::semi_supervised_labels(
      n, kClasses, kLabelledFraction, util::hash_combine(params.seed, 1));
  core::Options options;
  // Smoke batches are small; lower the threshold so they still take the
  // partitioned delta path the full-size batches take.
  if (params.smoke) {
    options.stream_parallel_threshold = static_cast<std::int64_t>(half);
  }

  Tracer tracer;
  Tracer* const tr = params.trace ? &tracer : nullptr;
  obs::set_tracing_enabled(params.trace);
  Outcome out;

  // setup_s: seeding the engine (live multiset + one batch embed).
  std::vector<double> setup;
  std::unique_ptr<stream::DynamicGee> gee;
  for (int i = 0; i < kSetupRepeats; ++i) {
    gee.reset();
    Tracer::Scope span(tr, "stream.construct");
    const double t0 = now_s();
    gee = std::make_unique<stream::DynamicGee>(base, labels, options);
    setup.push_back(now_s() - t0);
  }

  // The first batch removes base edges, later ones the previous adds.
  std::vector<Pair> previous;
  for (std::size_t i = 0; i < half; ++i) {
    previous.emplace_back(base.src(i), base.dst(i));
  }

  std::vector<double> apply_s, traced_s, untraced_s, fold_publish_s;
  double counted_s = 0;  // apply time up to the last completed cycle
  std::uint64_t counted_ops = 0, raw_ops = 0, deltas = 0, cycles = 0;
  double running_s = 0;
  std::uint64_t running_ops = 0;
  const double start = now_s();
  for (std::uint64_t b = 0;; ++b) {
    const auto batch = churn_batch(params.seed, b, n, half, previous);
    const bool traced = tr != nullptr && b % 2 == 0;
    tracer.set_enabled(traced);
    obs::set_tracing_enabled(traced);
    double validate = 0, coalesce = 0;
    if (traced) {
      // apply() validates and coalesces internally; timing the same calls
      // beside it splits its time into those layers and the rest.
      {
        Tracer::Scope span(tr, "stream.validate");
        batch.validate(n);
        validate = span.end();
      }
      Tracer::Scope span(tr, "stream.coalesce");
      const auto coalesced = batch.coalesce();
      coalesce = span.end();
    }
    Tracer::Scope span(tr, "stream.apply");
    const double t0 = now_s();
    const auto report = gee->apply(batch);
    const double seconds = now_s() - t0;
    span.end();

    ++out.attempted;
    apply_s.push_back(seconds);
    if (tr != nullptr) {
      (traced ? traced_s : untraced_s).push_back(seconds);
      if (traced) fold_publish_s.push_back(seconds - validate - coalesce);
    }
    raw_ops += report.raw_ops;
    deltas += report.deltas;
    running_s += seconds;
    running_ops += report.raw_ops;
    if (report.rebuilt) {
      ++cycles;
      counted_s = running_s;
      counted_ops = running_ops;
    }
    const double elapsed = now_s() - start;
    // Stop on a cycle boundary once the budget is spent; a run whose
    // budget cannot fit one cycle stops at twice the budget regardless.
    if ((report.rebuilt && elapsed >= params.seconds) ||
        elapsed >= 2 * params.seconds) {
      break;
    }
  }
  tracer.set_enabled(true);
  obs::set_tracing_enabled(params.trace);
  if (cycles == 0) {
    counted_s = running_s;
    counted_ops = running_ops;
  }
  const stream::DynamicGee::Stats stats = gee->stats();
  util::log_info("gee-suite: " + std::to_string(apply_s.size()) +
                 " batches, " + std::to_string(cycles) + " drift rebuilds");

  // Correctness: a from-scratch rebuild must reproduce the state the
  // deltas built. The rebuilds double as the reference-path timing.
  std::vector<double> rebuild_s;
  for (int i = 0; i < kRebuildRepeats; ++i) {
    const stream::Snapshot before = gee->snapshot();
    Tracer::Scope span(tr, "stream.rebuild");
    const double t0 = now_s();
    gee->rebuild();
    rebuild_s.push_back(now_s() - t0);
    span.end();
    ++out.attempted;
    const double diff = core::max_abs_diff(*before, *gee->snapshot());
    if (!(diff < kTolerance)) {
      out.mismatch(1, "rebuild() differs from the streamed state by " +
                          std::to_string(diff));
    }
  }

  out.set("setup_s", median(setup));
  out.set("op_p50_s", median(apply_s));
  out.set("op_p90_s", quantile(apply_s, 0.9));
  out.set("ops_per_sec", static_cast<double>(counted_ops) / counted_s);
  out.set("ref_p50_s", median(rebuild_s));
  if (!params.trace) return out;

  out.set("stream.validate_s", median_self(tracer, "stream.validate"));
  out.set("stream.coalesce_s", median_self(tracer, "stream.coalesce"));
  out.set("stream.fold_publish_s", median(fold_publish_s));
  out.set("stream.coalesce_ratio",
          static_cast<double>(deltas) / static_cast<double>(raw_ops));
  out.set("stream.rebuilds", static_cast<double>(stats.rebuilds));
  out.set("stream.parallel_batches",
          static_cast<double>(stats.parallel_batches));
  out.set("stream.buffer_copies", static_cast<double>(stats.buffer_copies));
  out.set("stream.buffer_promotions",
          static_cast<double>(stats.buffer_promotions));
  out.set("stream.rebuild_s", median_self(tracer, "stream.rebuild"));
  out.set("stream.apply_max_s", *std::max_element(apply_s.begin(), apply_s.end()));
  out.set("stream.apply_p99_s", quantile(apply_s, 0.99));
  out.set("trace.overhead", overhead(traced_s, untraced_s));
  write_traces(params, tracer);
  return out;
}

}  // namespace gee::suite
