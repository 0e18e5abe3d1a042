// gee-suite: one command that measures embed, stream and socket serving end
// to end (untraced runs) and layer by layer (traced runs).
//
//   gee_suite --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--out-dir DIR]
//
// NAME is one of the workloads below, or `all`, which re-executes this
// binary once per workload so each runs in its own process (peak RSS and
// allocator state stay per workload). The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}} -- every end-to-end metric when untraced, every per-layer metric
// when traced (0 where the workload does not exercise that layer). A
// correctness mismatch prints the result and exits 1.
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "suite.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

extern char** environ;

namespace {

using gee::suite::Outcome;
using gee::suite::Params;

struct Metric {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (README.md explains each one).
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},        {"op_p50_s", "s"},   {"op_p90_s", "s"},
    {"ops_per_sec", "1/s"},  {"ref_p50_s", "s"},  {"peak_rss_bytes", "bytes"},
};

constexpr Metric kPerLayer[] = {
    {"graph.build_s", "s"},
    {"gee.z_init_s", "s"},
    {"gee.laplacian_s", "s"},
    {"gee.projection_s", "s"},
    {"gee.edge_pass_s", "s"},
    {"gee.postprocess_s", "s"},
    {"gee.edge_pass.arcs_per_sec", "1/s"},
    {"gee.edge_pass.computed_bytes", "bytes"},
    {"gee.unattributed_s", "s"},
    {"gee.unattributed_explained", "ratio"},
    {"gee.serial.edge_pass_s", "s"},
    {"gee.serial.unattributed_s", "s"},
    {"gee.speedup_vs_serial", "ratio"},
    {"gee.edge_pass.speedup_vs_serial", "ratio"},
    {"gee.edge_pass_s.threads-1", "s"},
    {"gee.edge_pass_s.threads-2", "s"},
    {"gee.edge_pass_s.threads-4", "s"},
    {"gee.edge_pass.efficiency", "ratio"},
    {"stream.validate_s", "s"},
    {"stream.coalesce_s", "s"},
    {"stream.fold_publish_s", "s"},
    {"stream.coalesce_ratio", "ratio"},
    {"stream.rebuilds", "count"},
    {"stream.parallel_batches", "count"},
    {"stream.buffer_copies", "count"},
    {"stream.buffer_promotions", "count"},
    {"stream.rebuild_s", "s"},
    {"stream.apply_max_s", "s"},
    {"stream.apply_p99_s", "s"},
    {"stream.writer_apply_p50_s", "s"},
    {"net.encode_s", "s"},
    {"net.write_s", "s"},
    {"net.decode_s", "s"},
    {"shard.answer.lookup_s", "s"},
    {"shard.answer.query_s", "s"},
    {"shard.inproc.light_p50_s", "s"},
    {"shard.inproc.heavy_p50_s", "s"},
    {"net.boundary.light_p50_s", "s"},
    {"net.boundary.heavy_p50_s", "s"},
    {"shard.service_p50_s", "s"},
    {"shard.shed", "count"},
    {"net.errors", "count"},
    {"serve.missing", "count"},
    {"serve.light_p99_s", "s"},
    {"serve.light_p999_s", "s"},
    {"serve.heavy_p50_s", "s"},
    {"serve.heavy_p99_s", "s"},
    {"serve.heavy_p999_s", "s"},
    {"gen.lag_p99_s", "s"},
    {"trace.overhead", "ratio"},
};

constexpr const char* kWorkloads[] = {"embed-dense", "embed-sparse-lap",
                                      "stream-churn", "serve-socket"};

Outcome run_workload(const Params& params) {
  if (params.workload == "embed-dense") return gee::suite::run_embed(params, false);
  if (params.workload == "embed-sparse-lap") {
    return gee::suite::run_embed(params, true);
  }
  if (params.workload == "stream-churn") return gee::suite::run_stream(params);
  return gee::suite::run_serve(params);
}

/// CPUs this process may run on (what nproc prints).
int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

/// Re-execute this binary for every workload, one process each.
int run_all(const std::vector<std::string>& forwarded) {
  int status_all = 0;
  for (const char* workload : kWorkloads) {
    std::vector<std::string> args = {"/proc/self/exe", "--workload", workload};
    args.insert(args.end(), forwarded.begin(), forwarded.end());
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    if (::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                      environ) != 0) {
      gee::util::log_error("gee-suite: cannot start " + std::string(workload));
      return 1;
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      gee::util::log_error("gee-suite: workload " + std::string(workload) +
                           " failed");
      status_all = 1;
    }
  }
  return status_all;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "gee-suite: %s\n"
               "usage: gee_suite --workload NAME|all [--seed N] [--seconds S]\n"
               "                 [--trace 0|1] [--smoke] [--out-dir DIR]\n"
               "workloads: embed-dense embed-sparse-lap stream-churn "
               "serve-socket\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Params params;
  params.out_dir = ".bench_build/suite-out";
  bool seconds_given = false;
  std::vector<std::string> forwarded;  // everything but --workload, for `all`
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      params.smoke = true;
      forwarded.push_back(flag);
      continue;
    }
    if (flag == "--help" || flag == "-h") return usage("help");
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        params.workload = value;
        continue;
      } else if (flag == "--seed") {
        params.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        params.seconds = std::stod(value);
        seconds_given = true;
        if (!(params.seconds > 0)) return usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        params.trace = value == "1";
      } else if (flag == "--out-dir") {
        params.out_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
    forwarded.push_back(flag);
    forwarded.push_back(value);
  }
  if (params.smoke && !seconds_given) {
    params.seconds = 0.5;
    forwarded.insert(forwarded.end(), {"--seconds", "0.5"});
  }
  if (params.workload.empty() && params.smoke) params.workload = "all";
  if (params.workload == "all") return run_all(forwarded);
  bool known = false;
  for (const char* w : kWorkloads) known = known || params.workload == w;
  if (!known) return usage(("unknown workload '" + params.workload + "'").c_str());

  gee::par::set_num_threads(available_cpus());
  // The library's span rings keep the newest events per thread; a smaller
  // ring keeps a serve run's obs trace file small.
  ::setenv("GEE_TRACE_RING_EVENTS", "16384", /*overwrite=*/0);
  std::error_code ec;
  std::filesystem::create_directories(params.out_dir, ec);

  Outcome outcome;
  try {
    outcome = run_workload(params);
  } catch (const std::exception& e) {
    gee::util::log_error("gee-suite: " + params.workload + " aborted: " + e.what());
    return 1;
  }
  outcome.set("peak_rss_bytes", gee::suite::peak_rss_bytes());

  std::string json;
  gee::util::JsonWriter w(&json);
  w.begin_object();
  w.field("correct", outcome.mismatches == 0);
  w.field("attempted", outcome.attempted);
  w.field("failed", outcome.failed);
  w.key("metrics");
  w.begin_object();
  bool complete = true;
  for (const Metric& m : params.trace ? std::span<const Metric>(kPerLayer)
                                      : std::span<const Metric>(kEndToEnd)) {
    const auto it = outcome.metrics.find(m.name);
    double value = it == outcome.metrics.end() ? 0.0 : it->second;
    // End-to-end metrics are never 0: a missing or non-positive one is a
    // harness bug, not a measurement.
    if (!std::isfinite(value) || (!params.trace && !(value > 0))) {
      gee::util::log_error(std::string("gee-suite: metric ") + m.name +
                           " has no valid value");
      complete = false;
      value = 0;
    }
    std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name, value, m.unit);
    w.key(m.name);
    w.begin_object();
    w.field("value", value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  if (!complete) return 1;
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return outcome.mismatches == 0 ? 0 : 1;
}
