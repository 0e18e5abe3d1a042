// Shared infrastructure for the paper-reproduction benches.
//
// Scaling contract (DESIGN.md section 4): every bench runs a laptop-sized
// configuration by default so `for b in build/bench/*; do $b; done`
// completes in minutes. Environment variables scale up to paper-sized runs:
//
//   GEE_BENCH_SCALE        divide each Table-I graph's (n, m) by this
//                          (default 16; 1 reproduces the paper's sizes --
//                          needs tens of GB and SNAP-scale patience)
//   GEE_BENCH_MAX_LOG2E    largest log2(edges) in the Figure-4 sweep
//                          (default 24; the paper goes to 29)
//   GEE_BENCH_SKIP_INTERPRETED=1   drop the slowest column everywhere
//   GEE_BENCH_REPEATS      timing repeats for fast configurations (default 3)
//   GEE_BENCH_CSV_DIR      also write each table as CSV into this directory
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "gee/gee.hpp"
#include "gen/labels.hpp"
#include "gen/rmat.hpp"
#include "graph/csr.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace gee::bench {

inline std::int64_t scale_denominator() {
  return std::max<std::int64_t>(1, util::env_or("GEE_BENCH_SCALE",
                                                std::int64_t{16}));
}

inline bool skip_interpreted() {
  return util::env_or("GEE_BENCH_SKIP_INTERPRETED", false);
}

inline int repeats() {
  return static_cast<int>(
      std::max<std::int64_t>(1, util::env_or("GEE_BENCH_REPEATS",
                                             std::int64_t{3})));
}

/// A Table-I workload: R-MAT stand-in for one of the paper's SNAP graphs.
struct Workload {
  std::string name;        ///< paper graph it stands in for
  graph::VertexId n = 0;   ///< scaled vertex count
  graph::EdgeId m = 0;     ///< scaled edge count
};

/// The six Table-I graphs at 1/GEE_BENCH_SCALE linear scale.
inline std::vector<Workload> table1_workloads() {
  const auto d = static_cast<double>(scale_denominator());
  auto scaled = [&](const char* name, double n, double m) {
    return Workload{name, static_cast<graph::VertexId>(n / d),
                    static_cast<graph::EdgeId>(m / d)};
  };
  return {
      scaled("Twitch", 168e3, 6.8e6),
      scaled("soc-Pokec", 1.6e6, 30e6),
      scaled("soc-LiveJournal", 6.4e6, 69e6),
      scaled("soc-orkut", 3e6, 117e6),
      scaled("orkut-groups", 3e6, 327e6),
      scaled("Friendster", 65e6, 1.8e9),
  };
}

/// Paper constants: K = 50 classes, 10% of vertices labeled uniformly.
inline constexpr int kNumClasses = 50;
inline constexpr double kLabelFraction = 0.10;

struct PreparedGraph {
  graph::Graph graph;
  std::vector<std::int32_t> labels;
  double build_seconds = 0;
};

/// Generate the R-MAT stand-in and paper-style labels for a workload.
inline PreparedGraph prepare(const Workload& w, std::uint64_t seed) {
  util::Timer timer;
  const auto edges = gen::rmat_approx(w.n, w.m, seed);
  auto g = graph::Graph::build(edges, graph::GraphKind::kUndirected);
  PreparedGraph p;
  p.build_seconds = timer.seconds();
  p.labels = gen::semi_supervised_labels(g.num_vertices(), kNumClasses,
                                         kLabelFraction, seed + 1);
  p.graph = std::move(g);
  return p;
}

/// Best-of-N wall time of one configuration's edge pass + projection (the
/// paper times the full GEE computation, not graph loading). Slow serial
/// backends run once; fast ones run `repeats()` times.
inline double time_backend(const PreparedGraph& p, core::Backend backend) {
  const bool slow = backend == core::Backend::kInterpreted ||
                    backend == core::Backend::kCompiledSerial ||
                    backend == core::Backend::kLigraSerial;
  const int reps = slow ? 1 : repeats();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto result = core::embed(p.graph, p.labels, {.backend = backend});
    best = std::min(best, result.timings.projection +
                              result.timings.edge_pass);
  }
  return best;
}

/// Print and optionally persist a table (GEE_BENCH_CSV_DIR).
inline void emit(const util::TextTable& table, const std::string& csv_name) {
  std::fputs(table.to_text().c_str(), stdout);
  std::fputs("\n", stdout);
  if (const auto dir = util::env_string("GEE_BENCH_CSV_DIR")) {
    table.write_csv(*dir + "/" + csv_name);
  }
}

}  // namespace gee::bench
