// Metrics registry: named counters, gauges, and log-bucketed histograms.
//
// The serving and streaming subsystems run hot enough that observability
// must be cheaper than the thing observed, so every write-side primitive is
// sharded per thread, one cache line per shard: an increment is one relaxed
// fetch_add on the calling
// thread's padded slot, never a lock and never a shared line under steady
// state. Reads (value(), quantile(), snapshot_json()) merge the shards --
// they are scrape-path operations and may be slow.
//
// Naming scheme (DESIGN.md section 8): dot-separated, subsystem-prefixed --
// `gee.embed.*`, `gee.stream.*`, `gee.serve.*`. Handles returned by the
// Registry are stable for the process lifetime; instrumentation sites look
// a metric up once (function-local static) and hold the reference.
//
// Histograms are log-bucketed with FIXED, process-invariant boundaries
// (2^(1/4) growth, ~19% relative width), so two histograms -- or the same
// histogram scraped twice -- are mergeable bucket-by-bucket and a recorded
// value lands in the same bucket on every run. quantile() is exact over the
// bucket counts (rank arithmetic on uint64 totals) and returns the upper
// edge of the bucket holding the rank: a deterministic upper bound.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_id.hpp"

namespace gee::obs {

/// Monotonically increasing named count (events, bytes, replies).
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Hot path: one relaxed fetch_add on this thread's padded shard.
  void add(std::int64_t n = 1) noexcept {
    shards_[util::thread_index() % kShards].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Merged total across shards (scrape path).
  [[nodiscard]] std::int64_t value() const noexcept {
    std::int64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  /// Zero every shard (tests and per-case bench isolation; concurrent
  /// adds may straddle the reset).
  void reset() noexcept {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  static constexpr std::size_t kShards = 32;

 private:
  struct alignas(64) Slot {
    std::atomic<std::int64_t> v{0};
  };
  std::string name_;
  std::array<Slot, kShards> shards_;
};

/// Last-written named value (sizes, ratios, occupancy). Single slot: gauges
/// are set by one owner at modest rates, not incremented from many threads.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept { bits_.store(pack(v), std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return unpack(bits_.load(std::memory_order_relaxed));
  }
  void reset() noexcept { set(0.0); }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  static std::uint64_t pack(double v) noexcept {
    std::uint64_t b;
    static_assert(sizeof b == sizeof v);
    __builtin_memcpy(&b, &v, sizeof b);
    return b;
  }
  static double unpack(std::uint64_t b) noexcept {
    double v;
    __builtin_memcpy(&v, &b, sizeof v);
    return v;
  }
  std::string name_;
  std::atomic<std::uint64_t> bits_{0};
};

/// Log-bucketed histogram of nonnegative values (latencies in seconds,
/// staleness in epochs). See the file comment for bucket semantics.
class Histogram {
 public:
  /// Bucket layout: bucket 0 is [0, boundary(0)); bucket i in [1, kBuckets-2]
  /// is [boundary(i-1), boundary(i)); the last bucket is [boundary.back(),
  /// +inf). Boundaries grow by 2^(1/4) from 2^kMinExp to 2^kMaxExp --
  /// ~0.93 ns to ~1.05e6 s at latency scale.
  static constexpr int kMinExp = -30;
  static constexpr int kMaxExp = 20;
  static constexpr int kSubBuckets = 4;  ///< buckets per octave
  static constexpr std::size_t kNumBoundaries =
      static_cast<std::size_t>((kMaxExp - kMinExp) * kSubBuckets) + 1;
  static constexpr std::size_t kBuckets = kNumBoundaries + 1;

  explicit Histogram(std::string name) : name_(std::move(name)) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// The shared boundary table (ascending, kNumBoundaries entries).
  static std::span<const double> boundaries() noexcept;

  /// Deterministic bucket for `v`: boundaries are lower-inclusive, so a
  /// value exactly on an edge always lands in the bucket the edge opens.
  /// Negative/NaN values clamp to bucket 0.
  static std::size_t bucket_index(double v) noexcept;

  /// Hot path: bucket lookup (binary search over ~200 doubles) plus one
  /// relaxed fetch_add on this thread's shard.
  void record(double v) noexcept { record_n(v, 1); }

  /// Record `n` observations of the same value with one shard update (a
  /// batch whose replies share a staleness records once, not per reply).
  void record_n(double v, std::uint64_t n) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double sum() const noexcept;
  [[nodiscard]] double mean() const noexcept {
    const std::uint64_t n = count();
    return n ? sum() / static_cast<double>(n) : 0.0;
  }

  /// Quantile q in [0,1] over the merged buckets: the upper edge of the
  /// bucket containing rank ceil(q * count) (deterministic upper bound;
  /// relative error bounded by the 2^(1/4) bucket width). 0 when empty or
  /// when the rank falls in bucket 0 (values below 2^kMinExp read as 0);
  /// the top boundary when the rank falls in the overflow bucket.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Merged per-bucket counts (kBuckets entries), for export and tests.
  [[nodiscard]] std::vector<std::uint64_t> merged_buckets() const;

  /// Zero all shards (same caveat as Counter::reset).
  void reset() noexcept;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  static constexpr std::size_t kShards = 16;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> sum_bits{0};  ///< double, CAS-accumulated
  };
  std::string name_;
  std::array<Shard, kShards> shards_;
};

/// Process-wide registry. Lookup is mutex-guarded (cache the reference);
/// returned references remain valid for the process lifetime.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// One JSON object with every registered metric, sorted by name:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,mean,
  /// p50,p90,p99,p999,max_edge}}}. Scrape path; safe to call concurrently
  /// with writers (values are per-shard relaxed snapshots).
  [[nodiscard]] std::string snapshot_json() const;

  /// Zero every registered metric (tests / per-case bench isolation).
  void reset_all();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Stable name for per-index series: indexed_metric_name("gee.shard", 7,
/// "queue_depth") == "gee.shard.007.queue_depth". The index is zero-padded
/// to three digits so the registry's lexicographic key order -- what
/// snapshot_json emits and bench_diff.py joins on -- matches numeric index
/// order for any index below 1000 (shard counts are capped well under
/// that); unpadded names would interleave shard 10 before shard 2 and
/// churn every diff when the shard count crosses a digit boundary.
/// Index must be in [0, 999]. An empty suffix yields the bare series
/// prefix ("gee.shard.007") for callers that append their own leaves.
[[nodiscard]] std::string indexed_metric_name(std::string_view prefix,
                                              int index,
                                              std::string_view suffix);

/// Shorthands for instrumentation sites.
inline Counter& counter(std::string_view name) {
  return Registry::instance().counter(name);
}
inline Gauge& gauge(std::string_view name) {
  return Registry::instance().gauge(name);
}
inline Histogram& histogram(std::string_view name) {
  return Registry::instance().histogram(name);
}
inline std::string snapshot_json() {
  return Registry::instance().snapshot_json();
}

}  // namespace gee::obs
