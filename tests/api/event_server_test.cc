// Protocol-abuse and lifecycle tests of the event-loop server (DESIGN.md
// §11): dribbled frame bytes, pipelined frames, a pipelining peer that
// never reads, garbage payloads, oversized frame prefixes, truncated
// frames, half-open connections, idle connections that cost no threads,
// forced partial writes, and session parity with in-process.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/client.h"
#include "api/codec.h"
#include "api/event_server.h"
#include "api/service.h"
#include "testing/corpus_fixtures.h"
#include "testing/wire_fixtures.h"

namespace veritas {
namespace {

using testing::AnswerFromTruth;
using testing::BitEqual;
using testing::ExpectRecordBitIdentical;
using testing::ExternalAnswerSpec;
using testing::RunLocalReference;

constexpr size_t kTestMaxFrame = 1u << 20;  // 1 MiB: abuse tests stay cheap

std::string StatsFrame(uint64_t id) {
  return "{\"api_version\":1,\"id\":" + std::to_string(id) +
         ",\"method\":\"stats\",\"params\":{}}";
}

/// Reads one response frame and returns its envelope.
ApiResponse MustReadResponse(const Socket& socket) {
  auto frame = ReadFrame(socket);
  EXPECT_TRUE(frame.ok()) << frame.status();
  auto response = DecodeResponse(frame.ok() ? frame.value() : "{}");
  EXPECT_TRUE(response.ok()) << response.status();
  return response.ok() ? response.value() : ApiResponse{};
}

/// Little-endian frame prefix, standalone so tests can lie about lengths.
std::string FramePrefix(uint32_t length) {
  std::string prefix(4, '\0');
  prefix[0] = static_cast<char>(length & 0xff);
  prefix[1] = static_cast<char>((length >> 8) & 0xff);
  prefix[2] = static_cast<char>((length >> 16) & 0xff);
  prefix[3] = static_cast<char>((length >> 24) & 0xff);
  return prefix;
}

class EventServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    manager_ = std::make_unique<SessionManager>();
    RequestQueueOptions queue_options;
    queue_options.num_workers = 2;
    queue_ = std::make_unique<RequestQueue>(manager_.get(), queue_options);
    api_ = std::make_unique<GuidanceApi>(manager_.get(), queue_.get());
    StartServer({});
  }

  /// (Re)starts the server over the fixture's stack; the previous one, if
  /// any, is stopped first.
  void StartServer(EventApiServerOptions options) {
    server_.reset();
    options.max_frame_bytes = kTestMaxFrame;
    auto server = EventApiServer::Start(api_.get(), options);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(server).value();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  Socket RawConnection() {
    auto socket = Socket::ConnectTcp("127.0.0.1", server_->port());
    EXPECT_TRUE(socket.ok()) << socket.status();
    return std::move(socket).value();
  }

  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<RequestQueue> queue_;
  std::unique_ptr<GuidanceApi> api_;
  std::unique_ptr<EventApiServer> server_;
};

TEST_F(EventServerTest, ServesATypedClientSession) {
  auto client = ApiClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok()) << client.status();
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(7, 10);
  auto created =
      client.value()->CreateSession(corpus.db, testing::BatchSpec(3, 2));
  ASSERT_TRUE(created.ok()) << created.status();
  auto advanced = client.value()->Advance(created.value());
  ASSERT_TRUE(advanced.ok()) << advanced.status();
  auto outcome = client.value()->Terminate(created.value());
  ASSERT_TRUE(outcome.ok()) << outcome.status();
}

TEST_F(EventServerTest, PipelinedFramesAnswerInOrder) {
  Socket raw = RawConnection();
  // Three requests in ONE write: responses must come back one frame each,
  // in submission order (per-connection FIFO is the ordering contract).
  std::string burst;
  for (uint64_t id = 11; id <= 13; ++id) {
    const std::string payload = StatsFrame(id);
    burst += FramePrefix(static_cast<uint32_t>(payload.size())) + payload;
  }
  ASSERT_TRUE(raw.SendAll(burst.data(), burst.size()).ok());
  for (uint64_t id = 11; id <= 13; ++id) {
    const ApiResponse response = MustReadResponse(raw);
    EXPECT_EQ(response.id, id);
    EXPECT_FALSE(IsError(response));
  }
}

TEST_F(EventServerTest, PipeliningPeerThatNeverReadsStallsAlone) {
  // A peer writes stats frames as fast as the socket takes them and never
  // reads a response. With one frame in service per connection and reads
  // paused until it is answered, its writes stall once the socket buffers
  // fill. 64 MiB is above the receive plus send buffer maxima Linux
  // autotunes TCP to (net.ipv4.tcp_rmem and tcp_wmem, e.g. 32 + 4 MiB), so
  // getting that far means the server kept reading.
  Socket flood = RawConnection();
  ASSERT_TRUE(flood.SetNonBlocking(true).ok());
  const std::string payload = StatsFrame(1);
  std::string burst;
  for (int i = 0; i < 1024; ++i) {
    burst += FramePrefix(static_cast<uint32_t>(payload.size())) + payload;
  }
  constexpr size_t kFloodLimit = 64u << 20;
  size_t sent = 0;
  bool stalled = false;
  while (sent < kFloodLimit) {
    const size_t at = sent % burst.size();  // the burst is whole frames
    auto wrote = flood.SendSome(burst.data() + at, burst.size() - at);
    ASSERT_TRUE(wrote.ok()) << wrote.status();
    if (!wrote.value().would_block) {
      sent += wrote.value().bytes;
      continue;
    }
    // No room for half a second: the server has stopped reading us.
    pollfd writable = {flood.fd(), POLLOUT, 0};
    if (::poll(&writable, 1, 500) == 0) {
      stalled = true;
      break;
    }
  }
  EXPECT_TRUE(stalled) << "the server read " << sent
                       << " pipelined bytes without pausing";

  // Meanwhile another connection is served at once.
  Socket other = RawConnection();
  ASSERT_TRUE(WriteFrame(other, StatsFrame(2)).ok());
  pollfd readable = {other.fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&readable, 1, 1000), 1)
      << "stats on a second connection unanswered after 1 s";
  const ApiResponse response = MustReadResponse(other);
  EXPECT_EQ(response.id, 2u);
  EXPECT_FALSE(IsError(response));
}

TEST_F(EventServerTest, DribbledBytesReassembleIntoAFrame) {
  Socket raw = RawConnection();
  const std::string payload = StatsFrame(77);
  const std::string frame =
      FramePrefix(static_cast<uint32_t>(payload.size())) + payload;
  // One byte per write: the server sees the worst possible fragmentation —
  // a length prefix split across reads, then a payload arriving in drips.
  for (char byte : frame) {
    ASSERT_TRUE(raw.SendAll(&byte, 1).ok());
  }
  const ApiResponse response = MustReadResponse(raw);
  EXPECT_EQ(response.id, 77u);
  EXPECT_FALSE(IsError(response));
}

TEST_F(EventServerTest, GarbageJsonGetsAnErrorEnvelopeNotAHangup) {
  Socket raw = RawConnection();
  ASSERT_TRUE(WriteFrame(raw, "not json at all").ok());
  const ApiResponse error = MustReadResponse(raw);
  ASSERT_TRUE(IsError(error));
  EXPECT_EQ(std::get<ErrorResponse>(error.result).code,
            StatusCode::kInvalidArgument);
  // The connection survives and serves the next valid frame.
  ASSERT_TRUE(WriteFrame(raw, StatsFrame(6)).ok());
  EXPECT_FALSE(IsError(MustReadResponse(raw)));
}

TEST_F(EventServerTest, OversizedFramePrefixClosesTheConnection) {
  Socket raw = RawConnection();
  // A prefix claiming max+1 bytes is protocol abuse: the server closes
  // without a response — never allocates, never answers.
  const std::string prefix =
      FramePrefix(static_cast<uint32_t>(kTestMaxFrame) + 1);
  ASSERT_TRUE(raw.SendAll(prefix.data(), prefix.size()).ok());
  auto reply = ReadFrame(raw);
  EXPECT_FALSE(reply.ok());

  // The listener is unaffected: a fresh connection gets served.
  Socket fresh = RawConnection();
  ASSERT_TRUE(WriteFrame(fresh, StatsFrame(8)).ok());
  EXPECT_FALSE(IsError(MustReadResponse(fresh)));
}

TEST_F(EventServerTest, TruncatedFrameThenCloseIsReapedCleanly) {
  const size_t served_before = server_->connections_served();
  {
    Socket raw = RawConnection();
    const std::string lie = FramePrefix(100) + std::string(10, 'x');
    ASSERT_TRUE(raw.SendAll(lie.data(), lie.size()).ok());
    // Destructor closes mid-frame.
  }
  // The aborted connection is fully reaped (no stuck handler)...
  server_->WaitForConnections(served_before + 1);
  // ...and the server still serves.
  Socket fresh = RawConnection();
  ASSERT_TRUE(WriteFrame(fresh, StatsFrame(9)).ok());
  EXPECT_FALSE(IsError(MustReadResponse(fresh)));
}

TEST_F(EventServerTest, HalfOpenConnectionStillGetsItsResponse) {
  Socket raw = RawConnection();
  ASSERT_TRUE(WriteFrame(raw, StatsFrame(21)).ok());
  // Close only OUR write side: the peer sees EOF after the frame but must
  // still deliver the response on the intact other direction.
  ASSERT_EQ(::shutdown(raw.fd(), SHUT_WR), 0);
  const ApiResponse response = MustReadResponse(raw);
  EXPECT_EQ(response.id, 21u);
  EXPECT_FALSE(IsError(response));
}

TEST_F(EventServerTest, ManyIdleConnectionsDoNotStarveService) {
  // 64 connections that never send a byte, held open while a real client
  // does real work: each costs the event loop a map entry, and service must
  // continue.
  std::vector<Socket> idle;
  idle.reserve(64);
  for (int i = 0; i < 64; ++i) idle.push_back(RawConnection());

  auto client = ApiClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok()) << client.status();
  auto stats = client.value()->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
}

TEST_F(EventServerTest, IdleConnectionsAreTrackedAndReaped) {
  {
    std::vector<Socket> idle;
    for (int i = 0; i < 16; ++i) {
      auto socket = Socket::ConnectTcp("127.0.0.1", server_->port());
      ASSERT_TRUE(socket.ok());
      idle.push_back(std::move(socket).value());
    }
    // The event loop registered all 16 without spawning a thread each.
    for (int spin = 0; spin < 200 && server_->connections_open() < 16;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(server_->connections_open(), 16u);
  }
  // All closed by the destructor above: the server reaps every one.
  server_->WaitForConnections(16);
  EXPECT_EQ(server_->connections_served(), 16u);
}

TEST_F(EventServerTest, ForcedPartialWritesDeliverIntactResponses) {
  // 7-byte write ceiling: every response of consequence takes dozens of
  // EPOLLOUT continuation rounds. Payload integrity must be unaffected.
  EventApiServerOptions options;
  options.max_write_chunk_bytes = 7;
  StartServer(options);

  auto client = ApiClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok()) << client.status();
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(5, 10);
  auto created =
      client.value()->CreateSession(corpus.db, testing::BatchSpec(9, 2));
  ASSERT_TRUE(created.ok()) << created.status();
  auto advanced = client.value()->Advance(created.value());
  ASSERT_TRUE(advanced.ok()) << advanced.status();
  auto outcome = client.value()->Terminate(created.value());
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(outcome.value().trace.empty());
}

TEST_F(EventServerTest, SessionBitIdenticalToInProcess) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(7, 12);
  const SessionSpec spec = ExternalAnswerSpec(42, 4);

  std::vector<IterationRecord> local_trace;
  GroundingView local_view;
  RunLocalReference(corpus.db, spec, &local_trace, &local_view);
  ASSERT_FALSE(local_trace.empty());

  auto client = ApiClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok()) << client.status();
  auto created = client.value()->CreateSession(corpus.db, spec);
  ASSERT_TRUE(created.ok()) << created.status();
  std::vector<IterationRecord> wire_trace;
  for (;;) {
    auto advanced = client.value()->Advance(created.value());
    ASSERT_TRUE(advanced.ok()) << advanced.status();
    if (advanced.value().done) break;
    ASSERT_TRUE(advanced.value().awaiting_answers);
    auto answered = client.value()->Answer(
        created.value(), AnswerFromTruth(corpus.db, advanced.value()));
    ASSERT_TRUE(answered.ok()) << answered.status();
    if (answered.value().iteration_completed) {
      wire_trace.push_back(answered.value().record);
    }
  }
  auto view = client.value()->Ground(created.value());
  ASSERT_TRUE(view.ok()) << view.status();

  ASSERT_EQ(wire_trace.size(), local_trace.size());
  for (size_t i = 0; i < wire_trace.size(); ++i) {
    ExpectRecordBitIdentical(wire_trace[i], local_trace[i]);
  }
  ASSERT_EQ(view.value().probs.size(), local_view.probs.size());
  for (size_t i = 0; i < local_view.probs.size(); ++i) {
    EXPECT_TRUE(BitEqual(view.value().probs[i], local_view.probs[i]));
  }
}

TEST_F(EventServerTest, StopWithLiveConnectionsDoesNotHang) {
  std::vector<Socket> held;
  for (int i = 0; i < 4; ++i) {
    auto socket = Socket::ConnectTcp("127.0.0.1", server_->port());
    ASSERT_TRUE(socket.ok());
    held.push_back(std::move(socket).value());
  }
  ASSERT_TRUE(WriteFrame(held[0], StatsFrame(1)).ok());
  (void)ReadFrame(held[0]);
  server_->Stop();  // must sever all four and join; the test hangs if not
}

}  // namespace
}  // namespace veritas
