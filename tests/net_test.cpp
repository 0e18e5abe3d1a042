// Tests for the out-of-process serving boundary (src/net/).
//
//  * Wire codecs: request/reply round-trips for every opcode, header
//    validation (magic / version / payload cap), hostile payloads
//    (truncated, trailing bytes, counts that promise more elements than
//    the bytes can hold).
//  * Server conformance: a Client in this process (distinct socket peer,
//    same bytes a second process would send) gets replies BITWISE equal
//    to an unsharded QueryEngine over the same graph, for every request
//    kind -- the admission plane and the wire transport preserve the
//    repo-wide parity contract end to end.
//  * Admission on the wire: capacity-zero lanes shed with the retry-after
//    floor visible in the kShed frame.
//  * Hostile peers: garbage headers, unknown opcodes, oversized frames,
//    half-frames, and byte-dribbled requests never take the server down
//    -- the connection in question is answered/closed per the protocol
//    and a fresh connection still gets served.
//  * Graceful reload: Server::reload swaps the tier behind a LIVE
//    connection; the same client keeps getting answers, post-reload
//    bitwise equal to a fresh engine over the new graph.
//  * Stress (names contain "Stress"; ctest `stress` label, TSan leg in
//    CI): concurrent clients hammer every request kind while the main
//    thread reloads repeatedly -- zero dropped connections, every request
//    answered or shed, never errored.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gen/erdos_renyi.hpp"
#include "gen/labels.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "serve/query_engine.hpp"
#include "serve/request.hpp"
#include "stream/dynamic_gee.hpp"
#include "stream/update_batch.hpp"
#include "util/rng.hpp"

namespace {

using namespace gee;
using graph::EdgeList;
using graph::VertexId;
using graph::Weight;
using net::Buffer;
using net::Client;
using net::Opcode;
using net::Server;
using net::WireError;
using serve::QueryEngine;
using serve::QueryReply;
using serve::VertexQuery;
using shard::Router;

/// Every test binds its own socket file so suites can run concurrently.
std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/gee-net-test-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

VertexQuery sample_query(util::Xoshiro256& rng, VertexId n) {
  VertexQuery q;
  for (int j = 0; j < 6; ++j) {
    q.neighbors.emplace_back(static_cast<VertexId>(rng.next_below(n)),
                             static_cast<Weight>(1 + rng.next_below(3)));
  }
  return q;
}

void expect_reply_eq(const QueryReply& got, const QueryReply& want) {
  EXPECT_EQ(got.row, want.row);  // vector<double> ==: bitwise per element
  EXPECT_EQ(got.predicted, want.predicted);
}

// ------------------------------------------------------------ wire codecs

TEST(Wire, RequestRoundTripsEveryKind) {
  util::Xoshiro256 rng(3);
  Router::Request req;
  req.kind = Router::Request::Kind::kQueryBatch;
  req.queries = {sample_query(rng, 100), sample_query(rng, 100)};
  const Buffer frame = net::encode_request(req, 42);
  const auto header = net::decode_header({frame.data(), net::kHeaderBytes});
  EXPECT_EQ(header.opcode, Opcode::kQueryBatch);
  EXPECT_EQ(header.request_id, 42u);
  ASSERT_EQ(frame.size(), net::kHeaderBytes + header.payload_len);
  const auto decoded = net::decode_request(
      header.opcode, {frame.data() + net::kHeaderBytes, header.payload_len});
  ASSERT_EQ(decoded.queries.size(), 2u);
  EXPECT_EQ(decoded.queries[0].neighbors, req.queries[0].neighbors);
  EXPECT_EQ(decoded.queries[1].neighbors, req.queries[1].neighbors);

  Router::Request scan;
  scan.kind = Router::Request::Kind::kTopKVertices;
  scan.cls = 3;
  scan.k = 17;
  const Buffer scan_frame = net::encode_request(scan, 7);
  const auto scan_header =
      net::decode_header({scan_frame.data(), net::kHeaderBytes});
  const auto scan_decoded = net::decode_request(
      scan_header.opcode,
      {scan_frame.data() + net::kHeaderBytes, scan_header.payload_len});
  EXPECT_EQ(scan_decoded.cls, 3);
  EXPECT_EQ(scan_decoded.k, 17);

  Router::Request batch;
  batch.kind = Router::Request::Kind::kLookupBatch;
  batch.vertices = {5, 0, 99};
  const Buffer batch_frame = net::encode_request(batch, 9);
  const auto batch_header =
      net::decode_header({batch_frame.data(), net::kHeaderBytes});
  EXPECT_EQ(net::decode_request(batch_header.opcode,
                                {batch_frame.data() + net::kHeaderBytes,
                                 batch_header.payload_len})
                .vertices,
            batch.vertices);
}

TEST(Wire, ResponseRoundTripsPreserveBitPatterns) {
  Router::Response resp;
  resp.kind = Router::Request::Kind::kLookup;
  // Values with awkward bit patterns: negative zero, denormal, NaN-free
  // extremes. The wire carries IEEE bits, so == on the doubles is exact.
  resp.reply.row = {-0.0, 5e-324, 1.7976931348623157e308, 1.0 / 3.0};
  resp.reply.predicted = -1;
  resp.reply.epoch = 12;
  resp.reply.staleness = 2;
  const Buffer frame = net::encode_response(resp, 11);
  const auto header = net::decode_header({frame.data(), net::kHeaderBytes});
  EXPECT_EQ(header.opcode, Opcode::kReply);
  const auto decoded = net::decode_reply(
      header, {frame.data() + net::kHeaderBytes, header.payload_len});
  EXPECT_EQ(decoded.request_id, 11u);
  expect_reply_eq(decoded.reply, resp.reply);
  EXPECT_EQ(decoded.reply.epoch, 12u);
  EXPECT_EQ(decoded.reply.staleness, 2u);

  Router::Response ranked;
  ranked.kind = Router::Request::Kind::kTopKVertices;
  ranked.ranked = {{3, 2.5}, {1, 2.5}, {0, 0.125}};
  const Buffer ranked_frame = net::encode_response(ranked, 13);
  const auto ranked_header =
      net::decode_header({ranked_frame.data(), net::kHeaderBytes});
  EXPECT_EQ(net::decode_reply(ranked_header,
                              {ranked_frame.data() + net::kHeaderBytes,
                               ranked_header.payload_len})
                .ranked,
            ranked.ranked);

  const Buffer shed = net::encode_shed(0.25, 17);
  const auto shed_header = net::decode_header({shed.data(), net::kHeaderBytes});
  EXPECT_EQ(net::decode_reply(shed_header, {shed.data() + net::kHeaderBytes,
                                            shed_header.payload_len})
                .retry_after_s,
            0.25);

  const Buffer err = net::encode_error("nope", 19);
  const auto err_header = net::decode_header({err.data(), net::kHeaderBytes});
  EXPECT_EQ(net::decode_reply(
                err_header,
                {err.data() + net::kHeaderBytes, err_header.payload_len})
                .error,
            "nope");
}

TEST(Wire, HeaderRejectsMagicVersionAndOversizedPayload) {
  Buffer frame = net::encode_request(Router::Request{}, 1);
  auto corrupted = frame;
  corrupted[0] ^= 0xFF;  // magic
  EXPECT_THROW(net::decode_header({corrupted.data(), net::kHeaderBytes}),
               WireError);
  corrupted = frame;
  corrupted[4] = net::kVersion + 1;
  EXPECT_THROW(net::decode_header({corrupted.data(), net::kHeaderBytes}),
               WireError);
  corrupted = frame;
  corrupted[16] = 0xFF;  // payload_len LE bytes at offset 16..19
  corrupted[17] = 0xFF;
  corrupted[18] = 0xFF;
  corrupted[19] = 0xFF;
  EXPECT_THROW(net::decode_header({corrupted.data(), net::kHeaderBytes}),
               WireError);
  // Unknown opcode passes the header (dispatch rejects with the id echoed).
  corrupted = frame;
  corrupted[5] = 0x7F;
  EXPECT_EQ(static_cast<std::uint8_t>(
                net::decode_header({corrupted.data(), net::kHeaderBytes})
                    .opcode),
            0x7F);
}

TEST(Wire, HostilePayloadsThrowInsteadOfAllocating) {
  // A count claiming 2^31 queries backed by 4 bytes of payload must be
  // rejected before any reserve happens.
  Buffer payload;
  net::put_u32(payload, 0x80000000u);
  EXPECT_THROW(net::decode_request(Opcode::kQueryBatch, payload), WireError);
  EXPECT_THROW(net::decode_request(Opcode::kLookupBatch, payload), WireError);

  // Truncated primitive.
  Buffer half;
  net::put_u16(half, 7);
  EXPECT_THROW(net::decode_request(Opcode::kLookup, half), WireError);

  // Trailing garbage after a well-formed payload.
  Buffer lookup;
  net::put_u32(lookup, 3);
  net::put_u8(lookup, 0xAA);
  EXPECT_THROW(net::decode_request(Opcode::kLookup, lookup), WireError);

  // Reply opcodes are not requests.
  Buffer empty;
  EXPECT_THROW(net::decode_request(Opcode::kReply, empty), WireError);
  EXPECT_THROW(net::decode_request(static_cast<Opcode>(0x7F), empty),
               WireError);
}

// ------------------------------------------------- server + client fixture

class NetTest : public ::testing::Test {
 protected:
  static constexpr VertexId kN = 300;

  NetTest()
      : path_(unique_socket_path()),
        edges_(gen::erdos_renyi_gnm(kN, 2400, 61)),
        labels_(gen::semi_supervised_labels(kN, 5, 0.3, 67)),
        reference_gee_(edges_, labels_),
        reference_(reference_gee_) {}

  Server::Config config(int capacity = 64) const {
    Server::Config cfg;
    cfg.shards = 3;
    cfg.router.admission.capacity = capacity;
    return cfg;
  }

  std::unique_ptr<Server> start_server(int capacity = 64) {
    return std::make_unique<Server>(
        path_, net::GraphSource{edges_, labels_}, config(capacity));
  }

  std::string path_;
  EdgeList edges_;
  std::vector<std::int32_t> labels_;
  stream::DynamicGee reference_gee_;
  QueryEngine reference_;
};

TEST_F(NetTest, EveryRequestKindMatchesUnshardedEngineBitwise) {
  const auto server = start_server();
  Client client(path_);
  util::Xoshiro256 rng(71);

  for (const VertexId v : {VertexId{0}, kN / 2, kN - 1}) {
    const auto result = client.lookup(v);
    ASSERT_TRUE(result.ok()) << result.error;
    expect_reply_eq(result.reply, reference_.lookup(v));
  }

  for (int i = 0; i < 16; ++i) {
    const auto q = sample_query(rng, kN);
    const auto result = client.query(q);
    ASSERT_TRUE(result.ok()) << result.error;
    expect_reply_eq(result.reply, reference_.query(q));
  }

  std::vector<VertexId> ids(129);
  for (auto& v : ids) v = static_cast<VertexId>(rng.next_below(kN));
  const auto batch = client.lookup_batch(ids);
  ASSERT_TRUE(batch.ok()) << batch.error;
  ASSERT_EQ(batch.replies.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    expect_reply_eq(batch.replies[i], reference_.lookup(ids[i]));
  }

  std::vector<VertexQuery> queries;
  for (int i = 0; i < 33; ++i) queries.push_back(sample_query(rng, kN));
  const auto qbatch = client.query_batch(queries);
  ASSERT_TRUE(qbatch.ok()) << qbatch.error;
  ASSERT_EQ(qbatch.replies.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_reply_eq(qbatch.replies[i], reference_.query(queries[i]));
  }

  const auto ranked = client.top_k_vertices(2, 10);
  ASSERT_TRUE(ranked.ok()) << ranked.error;
  EXPECT_EQ(ranked.ranked, reference_.top_k_vertices(2, 10));
}

TEST_F(NetTest, LargeBatchSurvivesPartialSocketTransfers) {
  // Payload and reply both exceed a unix socket's buffering, so both
  // sides exercise the partial-read/partial-write retry loops.
  const auto server = start_server();
  Client client(path_, /*recv_timeout_s=*/120.0);
  util::Xoshiro256 rng(73);
  std::vector<VertexQuery> queries;
  for (int i = 0; i < 4000; ++i) queries.push_back(sample_query(rng, kN));
  const auto result = client.query_batch(queries);
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.replies.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); i += 977) {
    expect_reply_eq(result.replies[i], reference_.query(queries[i]));
  }
}

TEST_F(NetTest, CapacityZeroLaneShedsAcrossTheWire) {
  const auto server = start_server(/*capacity=*/0);
  Client client(path_);
  const auto result = client.lookup(0);
  ASSERT_EQ(result.status, Client::Result::Status::kShed);
  // The retry-after floor (100us) survives the f64 transport bitwise.
  EXPECT_GE(result.retry_after_s, 100e-6);
}

TEST_F(NetTest, OutOfRangeRequestsGetErrorsAndTheConnectionSurvives) {
  const auto server = start_server();
  Client client(path_);
  // The server counts each request before it replies, so once a reply is
  // read its increment is visible here.
  const obs::Counter& requests = obs::counter("gee.net.requests");
  const obs::Counter& errors = obs::counter("gee.net.errors");
  const std::int64_t requests_before = requests.value();
  const std::int64_t errors_before = errors.value();

  auto result = client.lookup(kN);  // one past the end
  ASSERT_EQ(result.status, Client::Result::Status::kError);
  EXPECT_FALSE(result.error.empty());

  VertexQuery bad;
  bad.neighbors.emplace_back(kN + 7, 1.0f);
  result = client.query(bad);
  ASSERT_EQ(result.status, Client::Result::Status::kError);

  result = client.lookup_batch({0, kN});
  ASSERT_EQ(result.status, Client::Result::Status::kError);

  result = client.top_k_vertices(99, 5);
  ASSERT_EQ(result.status, Client::Result::Status::kError);

  // Same connection, valid request: still served, still bitwise.
  result = client.lookup(1);
  ASSERT_TRUE(result.ok()) << result.error;
  expect_reply_eq(result.reply, reference_.lookup(1));

  EXPECT_EQ(requests.value() - requests_before, 1);
  EXPECT_EQ(errors.value() - errors_before, 4);
}

TEST_F(NetTest, HostileFramesCloseTheConnectionNotTheServer) {
  const auto server = start_server();

  {  // Garbage magic: best-effort error frame, then EOF.
    net::Fd raw = net::connect_unix(path_);
    Buffer junk(net::kHeaderBytes, 0xAB);
    ASSERT_TRUE(net::write_all(raw, junk.data(), junk.size()));
    std::uint8_t header[net::kHeaderBytes];
    if (net::read_exactly(raw, header, net::kHeaderBytes)) {
      const auto h = net::decode_header({header, net::kHeaderBytes});
      EXPECT_EQ(h.opcode, Opcode::kError);
      Buffer payload(h.payload_len);
      ASSERT_TRUE(net::read_exactly(raw, payload.data(), payload.size()));
    }
    std::uint8_t one;
    EXPECT_FALSE(net::read_exactly(raw, &one, 1));  // connection is over
  }

  {  // Unknown opcode with intact framing: kError echoes the request id.
    net::Fd raw = net::connect_unix(path_);
    Buffer frame;
    net::append_frame(frame, static_cast<Opcode>(0x6E), 555, {});
    ASSERT_TRUE(net::write_all(raw, frame.data(), frame.size()));
    std::uint8_t header[net::kHeaderBytes];
    ASSERT_TRUE(net::read_exactly(raw, header, net::kHeaderBytes));
    const auto h = net::decode_header({header, net::kHeaderBytes});
    EXPECT_EQ(h.opcode, Opcode::kError);
    EXPECT_EQ(h.request_id, 555u);
  }

  {  // Oversized payload_len: rejected without reading the payload.
    net::Fd raw = net::connect_unix(path_);
    Buffer frame;
    net::put_u32(frame, net::kMagic);
    net::put_u8(frame, net::kVersion);
    net::put_u8(frame, static_cast<std::uint8_t>(Opcode::kLookup));
    net::put_u16(frame, 0);
    net::put_u64(frame, 1);
    net::put_u32(frame, net::kMaxPayloadBytes + 1);
    ASSERT_TRUE(net::write_all(raw, frame.data(), frame.size()));
    std::uint8_t header[net::kHeaderBytes];
    if (net::read_exactly(raw, header, net::kHeaderBytes)) {
      EXPECT_EQ(net::decode_header({header, net::kHeaderBytes}).opcode,
                Opcode::kError);
    }
  }

  {  // Half a header, then hang up mid-frame.
    net::Fd raw = net::connect_unix(path_);
    Buffer frame = net::encode_request(Router::Request{}, 3);
    ASSERT_TRUE(net::write_all(raw, frame.data(), 7));
  }

  // After all of that, a fresh well-behaved connection is served.
  Client client(path_);
  const auto result = client.lookup(0);
  ASSERT_TRUE(result.ok()) << result.error;
  expect_reply_eq(result.reply, reference_.lookup(0));
}

TEST_F(NetTest, ByteDribbledRequestStillParses) {
  // A peer that writes one byte per syscall exercises the server's
  // read_exactly resumption across every boundary in the frame.
  const auto server = start_server();
  net::Fd raw = net::connect_unix(path_);
  const Buffer frame = net::encode_request(Router::Request{}, 77);  // lookup 0
  for (const std::uint8_t byte : frame) {
    ASSERT_TRUE(net::write_all(raw, &byte, 1));
  }
  std::uint8_t header[net::kHeaderBytes];
  ASSERT_TRUE(net::read_exactly(raw, header, net::kHeaderBytes));
  const auto h = net::decode_header({header, net::kHeaderBytes});
  EXPECT_EQ(h.opcode, Opcode::kReply);
  EXPECT_EQ(h.request_id, 77u);
  Buffer payload(h.payload_len);
  ASSERT_TRUE(net::read_exactly(raw, payload.data(), payload.size()));
  expect_reply_eq(net::decode_reply(h, payload).reply, reference_.lookup(0));
}

TEST_F(NetTest, ReloadSwapsTheGraphBehindALiveConnection) {
  const auto server = start_server();
  Client client(path_);
  ASSERT_TRUE(client.lookup(5).ok());

  // New graph, same vertex count (so every in-flight id stays valid).
  auto new_edges = gen::erdos_renyi_gnm(kN, 2600, 101);
  auto new_labels = gen::semi_supervised_labels(kN, 5, 0.3, 103);
  server->reload(net::GraphSource{new_edges, new_labels});
  EXPECT_EQ(server->reloads(), 1u);

  stream::DynamicGee fresh_gee(new_edges, new_labels);
  QueryEngine fresh(fresh_gee);
  // SAME client, SAME connection: answers now come from the new tier and
  // are bitwise equal to a fresh unsharded engine over the new graph.
  for (const VertexId v : {VertexId{0}, kN / 4, kN - 1}) {
    const auto result = client.lookup(v);
    ASSERT_TRUE(result.ok()) << result.error;
    expect_reply_eq(result.reply, fresh.lookup(v));
  }
  const auto ranked = client.top_k_vertices(1, 12);
  ASSERT_TRUE(ranked.ok()) << ranked.error;
  EXPECT_EQ(ranked.ranked, fresh.top_k_vertices(1, 12));
}

TEST_F(NetTest, ApplyStreamsUpdatesIntoTheLiveTier) {
  const auto server = start_server();
  Client client(path_);

  stream::UpdateBatch batch;
  batch.add(0, kN - 1, 2.0f);
  batch.add(3, 7, 1.0f);
  const auto report = server->apply(batch);
  EXPECT_EQ(report.raw_ops, 2u);

  reference_gee_.apply(batch);
  const auto result = client.lookup(0);
  ASSERT_TRUE(result.ok()) << result.error;
  expect_reply_eq(result.reply, reference_.lookup(0));
}

TEST_F(NetTest, NetStressReloadUnderConcurrentLoadDropsNothing) {
  const auto server = start_server();
  constexpr int kClients = 4;
  constexpr int kReloads = 3;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> disconnects{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Client client(path_);
        util::Xoshiro256 rng(200 + static_cast<std::uint64_t>(c));
        while (!stop.load(std::memory_order_relaxed)) {
          Client::Result result;
          switch (rng.next_below(4)) {
            case 0:
              result =
                  client.lookup(static_cast<VertexId>(rng.next_below(kN)));
              break;
            case 1:
              result = client.query(sample_query(rng, kN));
              break;
            case 2:
              result = client.lookup_batch(
                  {static_cast<VertexId>(rng.next_below(kN)),
                   static_cast<VertexId>(rng.next_below(kN))});
              break;
            default:
              result = client.top_k_vertices(
                  static_cast<std::int32_t>(rng.next_below(5)), 5);
              break;
          }
          switch (result.status) {
            case Client::Result::Status::kOk:
              ok.fetch_add(1, std::memory_order_relaxed);
              break;
            case Client::Result::Status::kShed:
              shed.fetch_add(1, std::memory_order_relaxed);
              break;
            case Client::Result::Status::kError:
              errors.fetch_add(1, std::memory_order_relaxed);
              break;
          }
        }
      } catch (const std::exception&) {
        disconnects.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::uint64_t graph_seed = 301;
  for (int r = 0; r < kReloads; ++r) {
    // Same vertex count every generation: client ids stay valid across
    // swaps, so any kError would be a real protocol break.
    auto edges = gen::erdos_renyi_gnm(kN, 2400 + 50 * r, graph_seed++);
    auto labels = gen::semi_supervised_labels(kN, 5, 0.3, graph_seed++);
    server->reload(net::GraphSource{std::move(edges), std::move(labels)});
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : clients) t.join();

  EXPECT_EQ(server->reloads(), static_cast<std::uint64_t>(kReloads));
  EXPECT_EQ(disconnects.load(), 0u);  // zero dropped connections
  EXPECT_EQ(errors.load(), 0u);       // shed-with-retry is the only detour
  EXPECT_GT(ok.load(), 0u);
}

}  // namespace
