#include "suite.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>

#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/thread_id.hpp"

namespace gee::suite {

void Outcome::mismatch(std::uint64_t n, const std::string& what) {
  if (n == 0) return;
  mismatches += n;
  failed += n;
  util::log_error("gee-suite: correctness check failed: " + what);
}

double peak_rss_bytes() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // Linux: KiB
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
/// Innermost open span of the calling thread (the parent of the next one).
thread_local Tracer::Span* current_span = nullptr;
}  // namespace

Tracer::Span* Tracer::begin(const char* name, std::uint64_t id) {
  Span* span = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    span = &spans_.emplace_back();
  }
  span->name = name;
  span->thread = util::thread_index();
  span->parent = current_span;
  span->id = id;
  current_span = span;
  span->begin_s = now_s();
  return span;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t id) {
  if (tracer != nullptr && tracer->enabled()) span_ = tracer->begin(name, id);
}

double Tracer::Scope::end() {
  if (span_ == nullptr) return 0;
  span_->end_s = now_s();
  const double duration = span_->end_s - span_->begin_s;
  if (span_->parent != nullptr) {
    // Same thread as the parent: spans nest, so no other writer.
    span_->parent->child_s += duration;
  }
  current_span = span_->parent;
  span_ = nullptr;
  return duration;
}

std::vector<double> Tracer::self_seconds(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_s > 0 && name == s.name) {
      out.push_back(s.end_s - s.begin_s - s.child_s);
    }
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path,
                               std::size_t max_events) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string json;
  util::JsonWriter w(&json);
  const double origin = spans_.empty() ? 0 : spans_.front().begin_s;
  w.begin_array();
  std::size_t written = 0;
  for (const Span& s : spans_) {
    if (written++ == max_events) break;
    w.begin_object();
    w.field("name", s.name);
    w.field("cat", "gee-suite");
    w.field("ph", "X");
    w.field("ts", (s.begin_s - origin) * 1e6);
    w.field("dur", (s.end_s - s.begin_s) * 1e6);
    w.field("pid", 1);
    w.field("tid", static_cast<std::int64_t>(s.thread));
    w.key("args");
    w.begin_object();
    w.field("id", s.id);
    w.field("parent", s.parent != nullptr ? s.parent->name : "");
    w.field("self_us", (s.end_s - s.begin_s - s.child_s) * 1e6);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

double median_self(const Tracer& tracer, std::string_view name) {
  return median(tracer.self_seconds(name));
}

double overhead(std::span<const double> traced,
                std::span<const double> untraced) {
  const double base = median(untraced);
  return base > 0 ? median(traced) / base - 1.0 : 0.0;
}

void write_traces(const Params& params, const Tracer& tracer) {
  // Bounded so a serve run (millions of spans) leaves a small file.
  constexpr std::size_t kMaxEvents = 50000;
  const std::string base = params.out_dir + "/" + params.workload;
  if (!tracer.write_chrome_json(base + ".trace.json", kMaxEvents) ||
      !obs::write_trace_json(base + ".obs.trace.json")) {
    util::log_warn("gee-suite: could not write trace files under " +
                   params.out_dir);
    return;
  }
  util::log_info("gee-suite: traces written to " + base + ".trace.json and " +
                 base + ".obs.trace.json");
}

}  // namespace gee::suite
