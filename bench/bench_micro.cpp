// M1 -- google-benchmark microbenchmarks behind the paper's cost model:
// "GEE-Ligra performs two fused-multiply adds per edge and two memory
// writes, one of which is likely to miss" (section IV). Measures the
// per-update primitives (plain add, lock-free write_add, racy unsafe_add),
// the effect of hot vs cache-missing embedding rows, projection builds,
// and the engine's full per-edge cost.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/report.hpp"

#include "gee/gee.hpp"
#include "gee/projection.hpp"
#include "gen/labels.hpp"
#include "gen/rmat.hpp"
#include "graph/csr.hpp"
#include "parallel/atomics.hpp"
#include "parallel/parallel_for.hpp"
#include "simd/simd.hpp"
#include "util/rng.hpp"

namespace {

using gee::core::Backend;

// ------------------------------------------------------- update primitives

void BM_PlainAdd(benchmark::State& state) {
  double cell = 0;
  for (auto _ : state) {
    cell += 1.5;
    benchmark::DoNotOptimize(cell);
  }
}
BENCHMARK(BM_PlainAdd);

void BM_WriteAddUncontended(benchmark::State& state) {
  double cell = 0;
  for (auto _ : state) {
    gee::par::write_add(cell, 1.5);
    benchmark::DoNotOptimize(cell);
  }
}
BENCHMARK(BM_WriteAddUncontended);

void BM_UnsafeAdd(benchmark::State& state) {
  double cell = 0;
  for (auto _ : state) {
    gee::par::unsafe_add(cell, 1.5);
    benchmark::DoNotOptimize(cell);
  }
}
BENCHMARK(BM_UnsafeAdd);

void BM_WriteAddContended(benchmark::State& state) {
  static double shared_cell = 0;
  for (auto _ : state) {
    gee::par::write_add(shared_cell, 1.5);
  }
}
BENCHMARK(BM_WriteAddContended)->Threads(1)->Threads(8)->Threads(24);

// --------------------------------------------- hot vs missing row accesses

/// The paper's cache analysis: Z(u,:) is reused while scanning u's edge
/// list (hot); Z(v,:) for random v likely misses. Sweep the working set.
void BM_ScatterAdd(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  constexpr int kK = 50;
  std::vector<double> z(rows * kK, 0.0);
  gee::util::Xoshiro256 rng(1);
  std::vector<std::uint32_t> targets(1 << 16);
  for (auto& t : targets) {
    t = static_cast<std::uint32_t>(rng.next_below(rows));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto row = targets[i++ & 0xFFFF];
    gee::par::write_add(z[static_cast<std::size_t>(row) * kK + 7], 1.0);
  }
  state.SetLabel(std::to_string(rows * kK * sizeof(double) / 1024) + " KiB Z");
}
BENCHMARK(BM_ScatterAdd)->Arg(1 << 6)->Arg(1 << 12)->Arg(1 << 18)->Arg(1 << 22);

// ------------------------------------------------- SIMD row primitives

/// K-wide row primitives through the dispatching entry points, with the
/// runtime SIMD switch forced on (simd) or off (scalar). K = 50 is the
/// paper's class count; 512 shows the asymptotic lane speedup once the
/// tail stops mattering.
void BM_RowAxpy(benchmark::State& state, bool simd_on) {
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<double> dst(k, 1.0);
  std::vector<double> src(k, 0.5);
  const bool prev = gee::simd::enabled();
  gee::simd::set_enabled(simd_on);
  for (auto _ : state) {
    gee::simd::axpy(dst.data(), src.data(), k, 1.0);
    benchmark::DoNotOptimize(dst.data());
  }
  gee::simd::set_enabled(prev);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(k));
}
BENCHMARK_CAPTURE(BM_RowAxpy, simd, true)->Arg(50)->Arg(512);
BENCHMARK_CAPTURE(BM_RowAxpy, scalar, false)->Arg(50)->Arg(512);

void BM_RowSumSquares(benchmark::State& state, bool simd_on) {
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<double> row(k, 0.75);
  const bool prev = gee::simd::enabled();
  gee::simd::set_enabled(simd_on);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gee::simd::sum_squares(row.data(), k));
  }
  gee::simd::set_enabled(prev);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(k));
}
BENCHMARK_CAPTURE(BM_RowSumSquares, simd, true)->Arg(50)->Arg(512);
BENCHMARK_CAPTURE(BM_RowSumSquares, scalar, false)->Arg(50)->Arg(512);

void BM_RowSquaredDistance(benchmark::State& state, bool simd_on) {
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<double> a(k, 0.75);
  std::vector<double> b(k, -0.25);
  const bool prev = gee::simd::enabled();
  gee::simd::set_enabled(simd_on);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gee::simd::squared_distance(a.data(), b.data(), k));
  }
  gee::simd::set_enabled(prev);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(k));
}
BENCHMARK_CAPTURE(BM_RowSquaredDistance, simd, true)->Arg(50)->Arg(512);
BENCHMARK_CAPTURE(BM_RowSquaredDistance, scalar, false)->Arg(50)->Arg(512);

// ------------------------------------------------------- projection builds

void BM_ProjectionCompact(benchmark::State& state) {
  const auto n = static_cast<gee::graph::VertexId>(state.range(0));
  const auto labels = gee::gen::semi_supervised_labels(n, 50, 0.10, 3);
  for (auto _ : state) {
    auto p = gee::core::build_projection(labels);
    benchmark::DoNotOptimize(p.vertex_weight.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ProjectionCompact)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);

void BM_ProjectionDense(benchmark::State& state) {
  const auto n = static_cast<gee::graph::VertexId>(state.range(0));
  const auto labels = gee::gen::semi_supervised_labels(n, 50, 0.10, 3);
  const auto projection = gee::core::build_projection(labels);
  for (auto _ : state) {
    auto w = gee::core::build_dense_w(projection.vertex_weight,
                                      projection.num_classes, labels);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 50);
}
BENCHMARK(BM_ProjectionDense)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);

// ------------------------------------------------------- full edge passes

struct PassFixture {
  gee::graph::Graph graph;
  std::vector<std::int32_t> labels;

  static const PassFixture& instance() {
    static const PassFixture f = [] {
      PassFixture fixture;
      const auto edges = gee::gen::rmat(18, 16, 11);  // 262K vertices, 4.2M
      fixture.graph = gee::graph::Graph::build(
          edges, gee::graph::GraphKind::kUndirected);
      fixture.labels = gee::gen::semi_supervised_labels(
          fixture.graph.num_vertices(), 50, 0.10, 13);
      return fixture;
    }();
    return f;
  }
};

void BM_EdgePass(benchmark::State& state, gee::core::Options options) {
  const auto& f = PassFixture::instance();
  for (auto _ : state) {
    auto result = gee::core::embed(f.graph, f.labels, options);
    benchmark::DoNotOptimize(result.z.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.graph.num_arcs()));
  state.SetLabel("ns/arc shown by items/s");
}
// Historical case names keep their meaning across the perf trajectory:
// `partitioned` is that backend at its defaults.
BENCHMARK_CAPTURE(BM_EdgePass, compiled_serial,
                  {.backend = Backend::kCompiledSerial})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EdgePass, ligra_parallel,
                  {.backend = Backend::kLigraParallel})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EdgePass, parallel_pull,
                  {.backend = Backend::kParallelPull})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EdgePass, flat_parallel,
                  {.backend = Backend::kFlatParallel})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EdgePass, partitioned, {.backend = Backend::kPartitioned})
    ->Unit(benchmark::kMillisecond);

// ----------------------------------------------------------- JSON baseline

/// Whether a run was skipped/errored, across google-benchmark versions:
/// pre-1.8 exposes `Run::error_occurred`, 1.8+ replaced it with the
/// `Run::skipped` enum. Overload rank (int beats long) prefers whichever
/// member the installed header actually has.
template <class R>
auto run_skipped_impl(const R& r, int)
    -> decltype(static_cast<bool>(r.error_occurred)) {
  return r.error_occurred;
}
template <class R>
auto run_skipped_impl(const R& r, long)
    -> decltype(static_cast<bool>(r.skipped)) {
  return static_cast<bool>(r.skipped);
}

/// Console output as usual, plus every per-iteration run captured into
/// BENCH_micro.json so the table has a machine-readable twin.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  JsonCaptureReporter() : report_("micro") {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      if (run_skipped_impl(run, 0)) continue;
      const auto iters = static_cast<double>(run.iterations);
      report_.begin_case(run.benchmark_name());
      report_.metric("real_time_per_iter_s",
                     iters > 0 ? run.real_accumulated_time / iters : 0.0);
      report_.metric("cpu_time_per_iter_s",
                     iters > 0 ? run.cpu_accumulated_time / iters : 0.0);
      report_.metric("iterations", iters);
      // Rate counters (items_per_second from SetItemsProcessed) arrive
      // already finalized by the library.
      for (const auto& [name, counter] : run.counters) {
        report_.metric(name, counter.value);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  bool write_report() const { return report_.write(); }

 private:
  gee::bench::JsonReport report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.write_report();
  benchmark::Shutdown();
  return 0;
}
