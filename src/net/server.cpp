#include "net/server.hpp"

#include <unistd.h>

#include <utility>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace gee::net {

namespace {

/// Wire-boundary series (DESIGN.md section 12), resolved once so the
/// per-request hot path is one relaxed add, not a registry lookup.
struct NetMetrics {
  obs::Counter& connections = obs::counter("gee.net.connections");
  obs::Counter& requests = obs::counter("gee.net.requests");
  obs::Counter& errors = obs::counter("gee.net.errors");
  obs::Counter& shed = obs::counter("gee.net.shed");
  obs::Counter& reloads = obs::counter("gee.net.reloads");

  static NetMetrics& get() {
    static NetMetrics m;
    return m;
  }
};

}  // namespace

Server::Server(std::string socket_path, GraphSource source, Config config)
    : path_(std::move(socket_path)),
      config_(config),
      tier_(std::make_shared<Tier>(source, config_)),
      listener_(listen_unix(path_, config_.listen_backlog)) {
  accept_thread_ = std::thread([this] { accept_loop(); });
  util::log_info("net::Server listening on " + path_);
}

Server::~Server() {
  stop();
  ::unlink(path_.c_str());
}

void Server::accept_loop() {
  for (;;) {
    Fd accepted = accept_unix(listener_);
    if (!accepted.valid()) return;  // listener shut down: stop()
    if (stopping_.load(std::memory_order_acquire)) return;
    auto conn = std::make_shared<Connection>(std::move(accepted));
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.push_back(conn);
    readers_.emplace_back([this, conn] { serve_connection(conn); });
    NetMetrics::get().connections.add();
  }
}

std::string Server::validate(const shard::Router::Request& req,
                             const Tier& tier) {
  const auto n = tier.set.num_vertices();
  const auto in_bounds = [n](graph::VertexId v) { return v < n; };
  const auto query_ok = [&](const serve::VertexQuery& q) {
    for (const auto& [endpoint, weight] : q.neighbors) {
      if (!in_bounds(endpoint)) return false;
      (void)weight;
    }
    return true;
  };
  using Kind = shard::Router::Request::Kind;
  switch (req.kind) {
    case Kind::kLookup:
      if (!in_bounds(req.vertex)) return "lookup vertex out of range";
      return {};
    case Kind::kQuery:
      if (!query_ok(req.query)) return "query endpoint out of range";
      return {};
    case Kind::kLookupBatch:
      for (const auto v : req.vertices) {
        if (!in_bounds(v)) return "lookup_batch vertex out of range";
      }
      return {};
    case Kind::kQueryBatch:
      for (const auto& q : req.queries) {
        if (!query_ok(q)) return "query_batch endpoint out of range";
      }
      return {};
    case Kind::kTopKVertices:
      if (req.cls < 0 || req.cls >= tier.set.num_classes()) {
        return "top_k class out of range";
      }
      if (req.k < 0) return "top_k k negative";
      return {};
  }
  return "unknown request kind";
}

bool Server::send_frame(const std::shared_ptr<Connection>& conn,
                        const Buffer& frame) {
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  return write_all(conn->fd, frame.data(), frame.size());
}

void Server::serve_connection(const std::shared_ptr<Connection>& conn) {
  NetMetrics& metrics = NetMetrics::get();
  std::uint8_t header_bytes[kHeaderBytes];
  Buffer payload;
  while (read_exactly(conn->fd, header_bytes, kHeaderBytes)) {
    FrameHeader header;
    try {
      header = decode_header({header_bytes, kHeaderBytes});
    } catch (const WireError& e) {
      // The stream itself is unframed garbage (bad magic/version/length):
      // nothing after this point parses, so answer best-effort and hang up.
      metrics.errors.add();
      (void)send_frame(conn, encode_error(e.what(), 0));
      break;
    }
    payload.resize(header.payload_len);
    if (header.payload_len != 0 &&
        !read_exactly(conn->fd, payload.data(), payload.size())) {
      break;  // peer died mid-frame
    }
    shard::Router::Request req;
    try {
      req = decode_request(header.opcode, payload);
    } catch (const WireError& e) {
      // Framing is intact but this payload is not: the stream stays
      // parseable, so report with the echoed id and hang up anyway --
      // a peer that mis-encodes one frame cannot be trusted on the next.
      metrics.errors.add();
      (void)send_frame(conn, encode_error(e.what(), header.request_id));
      break;
    }
    // Hold ONE tier reference across validate + submit: the bounds we
    // check are the bounds the lane worker will see, even mid-reload.
    std::shared_ptr<Tier> tier;
    {
      std::lock_guard<std::mutex> lock(tier_mutex_);
      tier = tier_;
    }
    if (std::string error = validate(req, *tier); !error.empty()) {
      // Request-level failure: the connection is fine, the request is not.
      metrics.errors.add();
      if (!send_frame(conn, encode_error(error, header.request_id))) break;
      continue;
    }
    metrics.requests.add();
    const std::uint64_t id = header.request_id;
    // The callback runs on a lane worker and captures the connection (not
    // the tier -- release order is reload()'s concern, see below) plus the
    // id; tier stays alive through the submit because WE hold it here, and
    // through execution because reload drains before dropping its
    // reference.
    const auto ticket = tier->router.submit(
        std::move(req), [conn, id](shard::Router::Response resp) {
          (void)send_frame(conn, encode_response(resp, id));
        });
    if (!ticket.admitted) {
      metrics.shed.add();
      if (!send_frame(conn, encode_shed(ticket.retry_after_s, id))) break;
    }
  }
  conn->fd.shutdown_both();
}

void Server::reload(GraphSource source) {
  std::lock_guard<std::mutex> writer_lock(writer_mutex_);
  // Step 1: build the replacement while the old tier keeps serving.
  auto fresh = std::make_shared<Tier>(source, config_);
  std::shared_ptr<Tier> old;
  {
    std::lock_guard<std::mutex> lock(tier_mutex_);
    old = tier_;
  }
  // Steps 2+3: quiesce the old tier. close() makes drain() bounded, and
  // every already-admitted request still writes its reply before drain
  // returns -- zero dropped requests, racing ones shed-with-retry.
  old->router.close();
  old->router.drain();
  // Step 4: publish. Readers that already grabbed `old` submit into its
  // closed lanes and shed; the next frame they read admits against
  // `fresh`. `old` is released only here, after its drain, so no queued
  // lane task ever outlives its router.
  {
    std::lock_guard<std::mutex> lock(tier_mutex_);
    tier_ = std::move(fresh);
  }
  old.reset();
  reloads_.fetch_add(1, std::memory_order_relaxed);
  NetMetrics::get().reloads.add();
  util::log_info("net::Server reloaded tier behind " + path_);
}

shard::ShardSet::ApplyReport Server::apply(const stream::UpdateBatch& batch) {
  std::lock_guard<std::mutex> writer_lock(writer_mutex_);
  std::shared_ptr<Tier> tier;
  {
    std::lock_guard<std::mutex> lock(tier_mutex_);
    tier = tier_;
  }
  return tier->set.apply(batch);
}

std::size_t Server::open_connections() const {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  return connections_.size();
}

void Server::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // Unblock the accept loop, then every connection reader.
  listener_.shutdown_both();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& conn : connections_) conn->fd.shutdown_both();
  }
  // Flush in-flight replies before the readers go: close+drain bounds the
  // wait exactly like reload's quiesce step.
  std::shared_ptr<Tier> tier;
  {
    std::lock_guard<std::mutex> lock(tier_mutex_);
    tier = tier_;
  }
  tier->router.close();
  tier->router.drain();
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    readers.swap(readers_);
    connections_.clear();
  }
  for (auto& t : readers) t.join();
}

}  // namespace gee::net
