// gee-suite: shared types of the end-to-end + per-layer benchmark.
//
// Each workload is one function that builds its inputs from the seed,
// measures for the requested number of seconds, checks its outputs, and
// hands back an Outcome: operations attempted and failed, correctness
// mismatches, and metric values by name. main.cpp turns the Outcome into
// the one-line JSON result (README.md lists every metric).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hpp"

namespace gee::suite {

/// Run parameters shared by every workload.
struct Params {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;        ///< per-layer run (spans on) instead of end-to-end
  bool smoke = false;        ///< 1/64-size inputs, short phases
  std::string out_dir;       ///< sockets and trace files go here
  std::string workload;      ///< name, for trace file names
};

struct Outcome {
  std::uint64_t attempted = 0;   ///< operations issued
  std::uint64_t failed = 0;      ///< sheds, errors, missing replies, mismatches
  std::uint64_t mismatches = 0;  ///< correctness-check failures (in `failed`)
  std::map<std::string, double> metrics;

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Count `n` failed correctness checks and say which on stderr.
  void mismatch(std::uint64_t n, const std::string& what);
};

Outcome run_embed(const Params& params, bool sparse_laplacian);
Outcome run_stream(const Params& params);
Outcome run_serve(const Params& params);

// ------------------------------------------------------------ statistics

/// Exact linear-interpolation quantile of raw samples (0 when empty).
using util::quantile;
inline double median(std::span<const double> samples) {
  return quantile(samples, 0.5);
}

/// Peak resident set size of this process, in bytes.
double peak_rss_bytes();

/// Seconds since an arbitrary fixed point (steady clock).
double now_s();

// --------------------------------------------------------------- tracing

/// The suite's own spans, recorded around each call it makes into a layer
/// (trace runs only). A span's parent is the innermost open span on the
/// same thread; spans of one serve request share the request's schedule
/// index as `id`. Per-layer numbers are self times: a span's duration
/// minus the time its child spans cover.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;  ///< string literal
    std::uint32_t thread = 0;
    Span* parent = nullptr;
    std::uint64_t id = 0;
    double begin_s = 0;
    double end_s = 0;
    double child_s = 0;  ///< time covered by child spans
  };

  /// RAII span; a no-op when `tracer` is null or disabled.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t id = 0);
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Close early; returns the span's duration (0 when not recording).
    double end();

   private:
    Span* span_ = nullptr;
  };

  /// Toggled per operation by the trace-overhead measurement.
  void set_enabled(bool on) noexcept { enabled_.store(on); }
  [[nodiscard]] bool enabled() const noexcept { return enabled_.load(); }

  /// Self times, in seconds, of every finished span called `name`.
  [[nodiscard]] std::vector<double> self_seconds(std::string_view name) const;

  /// Chrome trace-event JSON of at most `max_events` spans (oldest first).
  bool write_chrome_json(const std::string& path, std::size_t max_events) const;

 private:
  Span* begin(const char* name, std::uint64_t id);

  std::atomic<bool> enabled_{true};  ///< read by every recording thread
  mutable std::mutex mutex_;  ///< guards spans_ growth
  std::deque<Span> spans_;    ///< deque: growth never moves a recorded span
};

/// Median self time of `name` spans (0 when none were recorded).
double median_self(const Tracer& tracer, std::string_view name);

/// trace.overhead: traced over untraced median of the same operation, - 1.
double overhead(std::span<const double> traced,
                std::span<const double> untraced);

/// Write the suite's spans and the library's own obs spans to
/// `<out_dir>/<workload>.trace.json` and `<out_dir>/<workload>.obs.trace.json`.
void write_traces(const Params& params, const Tracer& tracer);

}  // namespace gee::suite
