// serve-socket: open-loop requests into net::Server across a unix socket
// while a writer streams small batches into the same tier.
//
// One client thread sends on one connection on a Poisson schedule drawn
// from the seed (80% lookups, 20% out-of-sample queries with 16
// neighbours) and reads the replies between sends. Latency runs from each
// request's SCHEDULED send, so a stall also charges the requests queued
// behind it. Rates are fixed absolute numbers, never calibrated per run,
// so a given rate is the same load on every run. A writer applies a
// 256-op batch every 10 ms through Server::apply: the stream layer sees
// only small serial-path batches here, the opposite of stream-churn.
//
// A twin tier (same ShardSet + Router, in process) gives the reference
// path -- the same schedule without the socket -- and the correctness
// check: after the writer stops, a fixed verification set sent over the
// socket must be bitwise-equal to the twin's answers once the twin has
// replayed the same writer batches.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "gen/labels.hpp"
#include "gen/rmat.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shard/router.hpp"
#include "shard/shard_set.hpp"
#include "suite.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace gee::suite {

namespace {

using Clock = std::chrono::steady_clock;
using shard::Router;

constexpr int kClasses = 50;
constexpr double kLabelledFraction = 0.10;
constexpr double kQueryShare = 0.2;
constexpr std::size_t kFanout = 16;
constexpr int kShards = 2;
constexpr int kLaneCapacity = 512;
constexpr std::size_t kWriterOps = 256;
constexpr auto kWriterInterval = std::chrono::milliseconds(10);
constexpr int kSetupRepeats = 9;  // cheap; the first few run on a cold heap

constexpr double kLightRate = 20000;  // requests/s
constexpr double kHeavyRate = 60000;
// Capacity search: a rate passes when p99 <= kLatencyLimit, failures stay
// within kMaxFailShare and completions reach kMinCompletedShare of sends,
// judged per window (Phase::meets_slo). 10 ms sits in the gap between p99
// below the knee (a few ms) and past it (tens of ms and more).
constexpr double kLatencyLimit = 0.010;
constexpr double kMaxFailShare = 0.001;
constexpr double kMinCompletedShare = 0.99;
constexpr double kRungFactor = 1.25;
constexpr int kMaxRungs = 16;
constexpr int kBisections = 3;
constexpr int kWindows = 5;  // slices per phase for windowed p99s
constexpr auto kStallLimit = std::chrono::seconds(5);

struct Arrival {
  double at_s = 0;  ///< scheduled send, seconds from the phase start
  Router::Request request;
};

std::vector<Arrival> draw_schedule(double rate, double duration_s,
                                   graph::VertexId n, util::Xoshiro256& rng) {
  std::vector<Arrival> schedule;
  schedule.reserve(static_cast<std::size_t>(rate * duration_s * 1.1) + 16);
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.next_double()) / rate;  // exponential gaps
    if (t >= duration_s) break;
    Arrival a;
    a.at_s = t;
    if (rng.next_bool(kQueryShare)) {
      a.request.kind = Router::Request::Kind::kQuery;
      for (std::size_t j = 0; j < kFanout; ++j) {
        a.request.query.neighbors.emplace_back(
            static_cast<graph::VertexId>(rng.next_below(n)),
            static_cast<graph::Weight>(1 + rng.next_below(4)));
      }
    } else {
      a.request.kind = Router::Request::Kind::kLookup;
      a.request.vertex = static_cast<graph::VertexId>(rng.next_below(n));
    }
    schedule.push_back(std::move(a));
  }
  return schedule;
}

/// Writer batch i: kWriterOps random weighted adds drawn from (seed, i), so
/// the server and the twin can replay the identical sequence.
stream::UpdateBatch writer_batch(std::uint64_t seed, std::uint64_t i,
                                 graph::VertexId n) {
  util::Xoshiro256 rng(seed, 2000000 + i);
  stream::UpdateBatch batch;
  batch.reserve(kWriterOps);
  for (std::size_t j = 0; j < kWriterOps; ++j) {
    batch.add(static_cast<graph::VertexId>(rng.next_below(n)),
              static_cast<graph::VertexId>(rng.next_below(n)),
              static_cast<graph::Weight>(1 + rng.next_below(4)));
  }
  return batch;
}

/// Spin until `due`. Never sleeps: on a virtual machine a sleeping thread
/// can wake milliseconds late, and that lateness would land in every
/// latency measured from the schedule.
void pace_until(Clock::time_point due) {
  while (Clock::now() < due) {
  }
}

/// Per-request outcome of one phase, indexed by schedule position.
struct Phase {
  std::vector<double> at_s;      ///< scheduled sends
  std::vector<double> latency;   ///< scheduled send -> reply; inf = none
  std::vector<double> lateness;  ///< actual send - scheduled send
  std::uint64_t sent = 0, completed = 0, shed = 0, errors = 0;
  double last_reply_s = 0;  ///< phase start -> last answered reply

  [[nodiscard]] std::uint64_t missing() const {
    return sent - std::min(sent, completed + shed + errors);
  }
  [[nodiscard]] std::uint64_t failures() const {
    return shed + errors + missing();
  }
  /// Latencies of answered requests.
  [[nodiscard]] std::vector<double> answered() const {
    std::vector<double> v;
    for (const double l : latency) {
      if (std::isfinite(l)) v.push_back(l);
    }
    return v;
  }
  /// Which of kWindows equal slices of the schedule request i falls in.
  [[nodiscard]] std::size_t window_of(std::size_t i) const {
    return static_cast<std::size_t>(at_s[i] / (at_s.back() + 1e-9) * kWindows);
  }
  /// Median over the slices of each slice's answered-latency p99, so one
  /// bad slice (a host hiccup) cannot move it.
  [[nodiscard]] double window_p99() const {
    if (at_s.empty()) return 0;
    std::vector<std::vector<double>> windows(kWindows);
    for (std::size_t i = 0; i < latency.size(); ++i) {
      if (std::isfinite(latency[i])) windows[window_of(i)].push_back(latency[i]);
    }
    std::vector<double> p99s;
    for (const auto& w : windows) p99s.push_back(quantile(w, 0.99));
    return median(p99s);
  }
  /// Capacity rule: most slices keep p99 within kLatencyLimit (a failed
  /// request counts as over it) and fail at most kMaxFailShare, and
  /// completions reach kMinCompletedShare of sends.
  [[nodiscard]] bool meets_slo() const {
    std::uint64_t total[kWindows] = {}, late[kWindows] = {},
                  failed[kWindows] = {};
    for (std::size_t i = 0; i < latency.size(); ++i) {
      const std::size_t k = window_of(i);
      ++total[k];
      if (!std::isfinite(latency[i])) ++failed[k];
      if (!(latency[i] <= kLatencyLimit)) ++late[k];
    }
    int good = 0;
    for (int k = 0; k < kWindows; ++k) {
      const auto n = static_cast<double>(total[k]);
      if (total[k] > 0 && static_cast<double>(late[k]) <= 0.01 * n &&
          static_cast<double>(failed[k]) <= kMaxFailShare * n) {
        ++good;
      }
    }
    return good > kWindows / 2 &&
           static_cast<double>(completed) >=
               kMinCompletedShare * static_cast<double>(sent);
  }
};

Phase new_phase(const std::vector<Arrival>& schedule) {
  Phase ph;
  ph.latency.assign(schedule.size(), std::numeric_limits<double>::infinity());
  ph.lateness.assign(schedule.size(), 0.0);
  for (const Arrival& a : schedule) ph.at_s.push_back(a.at_s);
  return ph;
}

/// The client side of the socket: one thread on one connection. Between
/// scheduled sends the thread spins reading replies, so no client-side
/// wakeup sits on any request's path; sends and reads never block. The
/// connection is reopened only when a phase had to abandon it.
class SocketClient {
 public:
  explicit SocketClient(std::string path)
      : path_(std::move(path)), fd_(net::connect_unix(path_)) {}

  Phase run(const std::vector<Arrival>& schedule, Tracer* tr);

 private:
  std::string path_;
  net::Fd fd_;
  std::uint64_t next_id_ = 0;
  net::Buffer in_ = net::Buffer(1 << 16);  ///< received, not yet parsed
  std::size_t in_len_ = 0;
};

Phase SocketClient::run(const std::vector<Arrival>& schedule, Tracer* tr) {
  Phase ph = new_phase(schedule);
  const std::uint64_t id_base = next_id_;
  next_id_ += schedule.size();
  std::uint64_t replies = 0;
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);

  // One non-blocking read; handles every complete frame it finishes.
  // False when the connection is unusable.
  const auto poll = [&]() -> bool {
    if (in_.size() - in_len_ < 4096) in_.resize(in_.size() * 2);
    const ssize_t got = ::recv(fd_.get(), in_.data() + in_len_,
                               in_.size() - in_len_, MSG_DONTWAIT);
    if (got == 0) return false;
    if (got < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    const double arrived =
        std::chrono::duration<double>(Clock::now() - t0).count();
    in_len_ += static_cast<std::size_t>(got);
    std::size_t pos = 0;
    while (in_len_ - pos >= net::kHeaderBytes) {
      net::FrameHeader header;
      net::DecodedReply reply;
      try {
        header = net::decode_header({in_.data() + pos, net::kHeaderBytes});
        if (in_len_ - pos - net::kHeaderBytes < header.payload_len) break;
        Tracer::Scope span(tr, "net.decode", header.request_id);
        reply = net::decode_reply(
            header, {in_.data() + pos + net::kHeaderBytes, header.payload_len});
      } catch (const net::WireError&) {
        return false;
      }
      pos += net::kHeaderBytes + header.payload_len;
      ++replies;
      const std::uint64_t idx = header.request_id - id_base;
      if (reply.opcode == net::Opcode::kShed) {
        ++ph.shed;
      } else if (reply.opcode == net::Opcode::kError || idx >= schedule.size()) {
        ++ph.errors;
      } else {
        ph.latency[idx] = arrived - schedule[idx].at_s;
        ph.last_reply_s = arrived;
        ++ph.completed;
      }
    }
    std::memmove(in_.data(), in_.data() + pos, in_len_ - pos);
    in_len_ -= pos;
    return true;
  };
  // Send one frame; while the socket buffer is full, keep reading replies
  // (the server may be blocked writing to us).
  const auto send = [&](const net::Buffer& frame) -> bool {
    std::size_t done = 0;
    while (done < frame.size()) {
      const ssize_t n = ::send(fd_.get(), frame.data() + done,
                               frame.size() - done, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        done += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!poll()) return false;
      } else if (!(n < 0 && errno == EINTR)) {
        return false;
      }
    }
    return true;
  };

  bool ok = true;
  for (std::size_t i = 0; ok && i < schedule.size(); ++i) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(schedule[i].at_s));
    while (ok && Clock::now() < due) ok = poll();
    if (!ok) break;
    ph.lateness[i] = std::chrono::duration<double>(Clock::now() - due).count();
    const std::uint64_t id = id_base + i;
    Tracer::Scope request(tr, "serve.send", id);
    net::Buffer frame;
    {
      Tracer::Scope span(tr, "net.encode", id);
      frame = net::encode_request(schedule[i].request, id);
    }
    Tracer::Scope span(tr, "net.write", id);
    ok = send(frame);
    if (ok) ++ph.sent;
  }

  // The tail: every sent request gets exactly one reply frame. A server
  // that stops answering fails the phase (its requests count as missing)
  // instead of hanging the run.
  auto last_progress = Clock::now();
  std::uint64_t last_replies = replies;
  while (ok && replies < ph.sent) {
    ok = poll();
    if (replies != last_replies) {
      last_replies = replies;
      last_progress = Clock::now();
    } else if (Clock::now() - last_progress > kStallLimit) {
      break;
    }
  }
  if (!ok || replies < ph.sent) {
    util::log_error("gee-suite: socket phase lost " +
                    std::to_string(ph.missing()) + " replies; reconnecting");
    fd_ = net::connect_unix(path_);
    in_len_ = 0;
  }
  return ph;
}

/// The same schedule through the twin tier's admission plane, no socket.
Phase run_inproc(Router& router, const std::vector<Arrival>& schedule) {
  Phase ph = new_phase(schedule);
  std::atomic<std::uint64_t> completed{0};
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(schedule[i].at_s));
    pace_until(due);
    ph.lateness[i] = std::chrono::duration<double>(Clock::now() - due).count();
    const auto ticket = router.submit(
        schedule[i].request,
        [&ph, &completed, &schedule, t0, i](Router::Response) {
          ph.latency[i] =
              std::chrono::duration<double>(Clock::now() - t0).count() -
              schedule[i].at_s;
          completed.fetch_add(1);
        });
    ++ph.sent;
    if (!ticket.admitted) ++ph.shed;
  }
  router.drain();  // also orders the lane workers' latency writes
  ph.completed = completed;
  return ph;
}

/// Streams writer batches into `apply` every kWriterInterval until stopped.
template <class ApplyFn>
class Writer {
 public:
  Writer(std::uint64_t seed, graph::VertexId n, Tracer* tr, ApplyFn apply)
      : thread_([this, seed, n, tr, apply] {
          for (std::uint64_t i = 0; !stop_.load(); ++i) {
            const auto batch = writer_batch(seed, i, n);
            if (tr != nullptr && tr->enabled()) {
              {
                Tracer::Scope span(tr, "stream.validate");
                batch.validate(n);
              }
              Tracer::Scope span(tr, "stream.coalesce");
              const auto coalesced = batch.coalesce();
            }
            {
              Tracer::Scope span(tr, "stream.writer_apply");
              apply(batch);
            }
            applied_.store(i + 1);
            std::this_thread::sleep_for(kWriterInterval);
          }
        }) {}
  ~Writer() { stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Stop and join; returns the number of batches applied.
  std::uint64_t stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return applied_.load();
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> applied_{0};
  std::thread thread_;  // last: starts after the flags exist
};

bool bitwise_equal(const serve::QueryReply& a, const serve::QueryReply& b) {
  return a.row.size() == b.row.size() &&
         std::memcmp(a.row.data(), b.row.data(),
                     a.row.size() * sizeof(serve::Real)) == 0 &&
         a.predicted == b.predicted && a.epoch == b.epoch &&
         a.staleness == b.staleness;
}

double service_p50() {
  double sum = 0;
  for (int s = 0; s < kShards; ++s) {
    sum += obs::histogram(obs::indexed_metric_name("gee.shard", s,
                                                   "request_seconds"))
               .quantile(0.5);
  }
  return sum / kShards;
}

void reset_service_histograms() {
  for (int s = 0; s < kShards; ++s) {
    obs::histogram(obs::indexed_metric_name("gee.shard", s, "request_seconds"))
        .reset();
  }
}

void log_phase(const char* name, const Phase& ph) {
  const auto answered = ph.answered();
  char line[256];
  std::snprintf(line, sizeof line,
                "gee-suite: %-14s rate %.0f/s sent %llu shed %llu errors %llu "
                "missing %llu p50 %.1fus p90 %.1fus p99 %.1fus lag-p99 %.1fus",
                name, static_cast<double>(ph.sent) / (ph.at_s.back() + 1e-9),
                static_cast<unsigned long long>(ph.sent),
                static_cast<unsigned long long>(ph.shed),
                static_cast<unsigned long long>(ph.errors),
                static_cast<unsigned long long>(ph.missing()),
                median(answered) * 1e6, quantile(answered, 0.9) * 1e6,
                quantile(answered, 0.99) * 1e6,
                quantile(ph.lateness, 0.99) * 1e6);
  util::log_info(line);
}

/// Capacity: geometric rungs from the heavy rate until one fails, then
/// bisection between the last pass and the first failure. Returns the
/// measured completion rate at the highest passing rate. Sheds are how an
/// overloaded rung fails, so they do not count as failed operations here;
/// errors and lost replies do.
double find_capacity(SocketClient& client, graph::VertexId n,
                     util::Xoshiro256& rng, double rung_s, Outcome& out) {
  double best = 0, capacity = 0, first = 0;
  const auto passes = [&](double rate) {
    const Phase ph = client.run(draw_schedule(rate, rung_s, n, rng), nullptr);
    out.attempted += ph.sent;
    out.failed += ph.errors + ph.missing();
    const bool ok = ph.sent > 0 && ph.meets_slo();
    log_phase(ok ? "rung pass" : "rung fail", ph);
    const double measured =
        ph.completed > 0 ? static_cast<double>(ph.completed) / ph.last_reply_s
                         : 0.0;
    if (ok && rate > best) {
      best = rate;
      capacity = measured;
    }
    if (first == 0) first = measured;
    return ok;
  };
  double lo = kHeavyRate, hi = kHeavyRate;
  int rungs = 0;
  if (passes(kHeavyRate)) {
    while (++rungs < kMaxRungs && passes(hi * kRungFactor)) hi *= kRungFactor;
    lo = hi;
    hi *= kRungFactor;
  } else {
    while (++rungs < kMaxRungs && !passes(lo / kRungFactor)) lo /= kRungFactor;
    hi = lo;
    lo /= kRungFactor;
  }
  for (int i = 0; i < kBisections; ++i) {
    const double mid = std::sqrt(lo * hi);
    (passes(mid) ? lo : hi) = mid;
  }
  if (capacity == 0) {
    util::log_warn("gee-suite: no capacity rung passed");
    capacity = first;
  }
  return capacity;
}

}  // namespace

Outcome run_serve(const Params& params) {
  const int scale = params.smoke ? 10 : 16;
  const graph::VertexId n = graph::VertexId{1} << scale;
  const double S = params.seconds;

  net::GraphSource source{gen::rmat(scale, 8, params.seed),
                          gen::semi_supervised_labels(
                              n, kClasses, kLabelledFraction,
                              util::hash_combine(params.seed, 1))};
  net::Server::Config config;
  config.shards = kShards;
  config.options.num_threads = 1;  // concurrency comes from the lanes
  config.router.admission.capacity = kLaneCapacity;
  const std::string path =
      params.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";

  Tracer tracer;
  Tracer* const tr = params.trace ? &tracer : nullptr;
  obs::set_tracing_enabled(params.trace);
  Outcome out;
  const auto count = [&out](const char* name, const Phase& ph) {
    out.attempted += ph.sent;
    out.failed += ph.failures();
    if (ph.sent > 0) log_phase(name, ph);
  };

  // setup_s: building the serving tier and starting the listener.
  std::vector<double> setup;
  std::unique_ptr<net::Server> server;
  for (int i = 0; i < kSetupRepeats; ++i) {
    server.reset();
    Tracer::Scope span(tr, "serve.construct");
    const double t0 = now_s();
    server = std::make_unique<net::Server>(path, source, config);
    setup.push_back(now_s() - t0);
  }
  shard::ShardSet twin_set(source.edges, source.labels, config.shards,
                           config.mode, config.options);
  Router twin(twin_set, config.router);
  SocketClient client(path);
  util::Xoshiro256 rng(params.seed, 3);

  // Warm-up: threads, connection buffers, caches. Not recorded.
  (void)client.run(draw_schedule(kLightRate, 0.05 * S, n, rng), nullptr);

  // Reference path: the light schedule in process, with its own writer.
  Phase inproc_light, inproc_heavy;
  std::uint64_t twin_batches = 0;
  {
    auto apply = [&twin_set](const stream::UpdateBatch& b) {
      (void)twin_set.apply(b);
    };
    Writer<decltype(apply)> writer(params.seed, n, tr, apply);
    inproc_light = run_inproc(twin, draw_schedule(kLightRate, 0.15 * S, n, rng));
    if (params.trace) {
      inproc_heavy =
          run_inproc(twin, draw_schedule(kHeavyRate, 0.1 * S, n, rng));
    }
    twin_batches = writer.stop();
  }
  count("inproc-light", inproc_light);
  count("inproc-heavy", inproc_heavy);

  // Socket phases, with the writer streaming into the server.
  auto server_apply = [&server](const stream::UpdateBatch& b) {
    (void)server->apply(b);
  };
  Phase light, light_untraced, heavy;
  double capacity = 0;
  std::uint64_t server_batches = 0;
  {
    Writer<decltype(server_apply)> writer(params.seed, n, tr, server_apply);
    if (params.trace) {
      tracer.set_enabled(false);
      obs::set_tracing_enabled(false);
      light_untraced =
          client.run(draw_schedule(kLightRate, 0.15 * S, n, rng), tr);
      tracer.set_enabled(true);
      obs::set_tracing_enabled(true);
      light = client.run(draw_schedule(kLightRate, 0.15 * S, n, rng), tr);
      reset_service_histograms();
      heavy = client.run(draw_schedule(kHeavyRate, 0.15 * S, n, rng), tr);
      out.set("shard.service_p50_s", service_p50());
    } else {
      light = client.run(draw_schedule(kLightRate, 0.3 * S, n, rng), nullptr);
      capacity = find_capacity(client, n, rng, 0.03 * S, out);
    }
    server_batches = writer.stop();
  }
  count("light", light);
  count("light-untraced", light_untraced);
  count("heavy", heavy);

  // Wire parity: bring both tiers to the same writer history, then every
  // verification reply over the socket must be bitwise the twin's.
  for (std::uint64_t i = twin_batches; i < server_batches; ++i) {
    (void)twin_set.apply(writer_batch(params.seed, i, n));
  }
  for (std::uint64_t i = server_batches; i < twin_batches; ++i) {
    (void)server->apply(writer_batch(params.seed, i, n));
  }
  {
    net::Client verify(path);
    util::Xoshiro256 vrng(params.seed, 4);
    const auto checks = draw_schedule(kLightRate, 0.02, n, vrng);
    std::uint64_t bad = 0;
    for (const Arrival& a : checks) {
      ++out.attempted;
      const auto got = a.request.kind == Router::Request::Kind::kLookup
                           ? verify.lookup(a.request.vertex)
                           : verify.query(a.request.query);
      if (!got.ok() || !bitwise_equal(got.reply, twin.answer(a.request).reply)) {
        ++bad;
      }
    }
    out.mismatch(bad, std::to_string(bad) + " of " +
                          std::to_string(checks.size()) +
                          " socket replies differ from the twin tier");
  }
  util::log_info("gee-suite: writer batches " +
                 std::to_string(std::max(server_batches, twin_batches)));

  const auto light_answered = light.answered();
  const auto inproc_answered = inproc_light.answered();
  out.set("setup_s", median(setup));
  out.set("op_p50_s", median(light_answered));
  out.set("op_p90_s", quantile(light_answered, 0.9));
  if (!params.trace) out.set("ops_per_sec", capacity);
  out.set("ref_p50_s", median(inproc_answered));
  if (!params.trace) return out;

  // ---- per-layer numbers (trace run only)
  const auto heavy_answered = heavy.answered();
  const auto inproc_heavy_answered = inproc_heavy.answered();
  for (int i = 0; i < 2000; ++i) {
    Router::Request req;
    req.vertex = static_cast<graph::VertexId>(rng.next_below(n));
    Tracer::Scope span(tr, "shard.answer.lookup");
    (void)twin.answer(req);
  }
  for (const Arrival& a : draw_schedule(kLightRate, 0.5, n, rng)) {
    if (a.request.kind != Router::Request::Kind::kQuery) continue;
    Tracer::Scope span(tr, "shard.answer.query");
    (void)twin.answer(a.request);
  }
  std::vector<double> lateness = light.lateness;
  lateness.insert(lateness.end(), heavy.lateness.begin(), heavy.lateness.end());

  out.set("net.encode_s", median_self(tracer, "net.encode"));
  out.set("net.write_s", median_self(tracer, "net.write"));
  out.set("net.decode_s", median_self(tracer, "net.decode"));
  out.set("shard.answer.lookup_s", median_self(tracer, "shard.answer.lookup"));
  out.set("shard.answer.query_s", median_self(tracer, "shard.answer.query"));
  out.set("shard.inproc.light_p50_s", median(inproc_answered));
  out.set("shard.inproc.heavy_p50_s", median(inproc_heavy_answered));
  out.set("net.boundary.light_p50_s",
          median(light_answered) - median(inproc_answered));
  out.set("net.boundary.heavy_p50_s",
          median(heavy_answered) - median(inproc_heavy_answered));
  out.set("shard.shed", static_cast<double>(light.shed + heavy.shed +
                                            inproc_light.shed +
                                            inproc_heavy.shed));
  out.set("net.errors", static_cast<double>(light.errors + heavy.errors));
  out.set("serve.missing", static_cast<double>(light.missing() + heavy.missing()));
  out.set("serve.light_p99_s", light.window_p99());
  out.set("serve.light_p999_s", quantile(light_answered, 0.999));
  out.set("serve.heavy_p50_s", median(heavy_answered));
  out.set("serve.heavy_p99_s", heavy.window_p99());
  out.set("serve.heavy_p999_s", quantile(heavy_answered, 0.999));
  out.set("gen.lag_p99_s", quantile(lateness, 0.99));
  out.set("stream.validate_s", median_self(tracer, "stream.validate"));
  out.set("stream.coalesce_s", median_self(tracer, "stream.coalesce"));
  out.set("stream.writer_apply_p50_s",
          median_self(tracer, "stream.writer_apply"));
  out.set("trace.overhead",
          overhead(light_answered, light_untraced.answered()));
  write_traces(params, tracer);
  return out;
}

}  // namespace gee::suite
