// Integration test of the wire-level guidance API (DESIGN.md §10): a
// client-driven session over the loopback socket must be INDISTINGUISHABLE
// from driving a Session in-process — bit-identical IterationRecord traces
// and posteriors, identical error codes, working checkpoint/restore and
// stats. Wall-clock fields (IterationRecord::seconds,
// ArrivalStats::update_seconds) are the one exception: they measure real
// elapsed time, which no transport can replay; everything else compares by
// exact bit pattern.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "api/client.h"
#include "api/codec.h"
#include "api/event_server.h"
#include "api/service.h"
#include "service/service_fixtures.h"
#include "testing/corpus_fixtures.h"
#include "testing/wire_fixtures.h"

namespace veritas {
namespace {

using testing::AnswerFromTruth;
using testing::BitEqual;
using testing::ExpectRecordBitIdentical;
using testing::ExternalAnswerSpec;
using testing::RunLocalReference;

class LoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    manager_ = std::make_unique<SessionManager>();
    RequestQueueOptions queue_options;
    queue_options.num_workers = 2;
    queue_ = std::make_unique<RequestQueue>(manager_.get(), queue_options);
    api_ = std::make_unique<GuidanceApi>(manager_.get(), queue_.get());
    auto server = EventApiServer::Start(api_.get());
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(server).value();
    auto client = ApiClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok()) << client.status();
    client_ = std::move(client).value();
  }

  void TearDown() override {
    client_.reset();  // disconnect before the server goes down
    if (server_ != nullptr) server_->Stop();
  }

  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<RequestQueue> queue_;
  std::unique_ptr<GuidanceApi> api_;
  std::unique_ptr<EventApiServer> server_;
  std::unique_ptr<ApiClient> client_;
};

TEST_F(LoopbackTest, ClientDrivenSessionBitIdenticalToInProcess) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(7, 16);
  const SessionSpec spec = ExternalAnswerSpec(42, 6);

  // In-process reference: the rich-struct surface PR 4 shipped.
  std::vector<IterationRecord> local_trace;
  GroundingView local_view;
  RunLocalReference(corpus.db, spec, &local_trace, &local_view);
  ASSERT_FALSE(local_trace.empty());

  // Wire: the same session driven through JSON frames over the socket.
  auto created = client_->CreateSession(corpus.db, spec);
  ASSERT_TRUE(created.ok()) << created.status();
  std::vector<IterationRecord> wire_trace;
  for (;;) {
    auto advanced = client_->Advance(created.value());
    ASSERT_TRUE(advanced.ok()) << advanced.status();
    if (advanced.value().done) break;
    ASSERT_TRUE(advanced.value().awaiting_answers);
    auto answered = client_->Answer(created.value(),
                                    AnswerFromTruth(corpus.db, advanced.value()));
    ASSERT_TRUE(answered.ok()) << answered.status();
    if (answered.value().iteration_completed) {
      wire_trace.push_back(answered.value().record);
    }
  }
  auto wire_view = client_->Ground(created.value());
  ASSERT_TRUE(wire_view.ok()) << wire_view.status();

  // The acceptance pin: trace and posterior are bit-identical.
  ASSERT_EQ(wire_trace.size(), local_trace.size());
  for (size_t i = 0; i < wire_trace.size(); ++i) {
    ExpectRecordBitIdentical(wire_trace[i], local_trace[i]);
  }
  ASSERT_EQ(wire_view.value().probs.size(), local_view.probs.size());
  for (size_t i = 0; i < local_view.probs.size(); ++i) {
    EXPECT_TRUE(BitEqual(wire_view.value().probs[i], local_view.probs[i]))
        << "posterior diverged at claim " << i;
  }
  EXPECT_EQ(wire_view.value().grounding, local_view.grounding);
  EXPECT_EQ(wire_view.value().labeled, local_view.labeled);
  EXPECT_TRUE(BitEqual(wire_view.value().precision, local_view.precision));

  // Terminate over the wire returns the same trace once more.
  auto outcome = client_->Terminate(created.value());
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_EQ(outcome.value().trace.size(), local_trace.size());
  for (size_t i = 0; i < local_trace.size(); ++i) {
    ExpectRecordBitIdentical(outcome.value().trace[i], local_trace[i]);
  }
}

TEST_F(LoopbackTest, StreamingSessionOverWireMatchesInProcess) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(11, 10);
  const SessionSpec spec = testing::StreamingSpec(99, 3);

  std::vector<double> local_initial_probs;
  GroundingView local_view;
  {
    auto session = Session::Create(corpus.db, spec);
    ASSERT_TRUE(session.ok()) << session.status();
    for (;;) {
      auto advanced = session.value()->Advance();
      ASSERT_TRUE(advanced.ok()) << advanced.status();
      if (advanced.value().done) break;
      if (advanced.value().arrival_processed) {
        local_initial_probs.push_back(advanced.value().arrival.initial_prob);
      }
    }
    auto view = session.value()->Ground();
    ASSERT_TRUE(view.ok());
    local_view = std::move(view).value();
  }
  ASSERT_EQ(local_initial_probs.size(), corpus.db.num_claims());

  auto created = client_->CreateSession(corpus.db, spec);
  ASSERT_TRUE(created.ok()) << created.status();
  std::vector<double> wire_initial_probs;
  for (;;) {
    auto advanced = client_->Advance(created.value());
    ASSERT_TRUE(advanced.ok()) << advanced.status();
    if (advanced.value().done) {
      EXPECT_EQ(advanced.value().stop_reason, "stream-drained");
      break;
    }
    if (advanced.value().arrival_processed) {
      wire_initial_probs.push_back(advanced.value().arrival.initial_prob);
    }
  }
  auto wire_view = client_->Ground(created.value());
  ASSERT_TRUE(wire_view.ok());

  ASSERT_EQ(wire_initial_probs.size(), local_initial_probs.size());
  for (size_t i = 0; i < local_initial_probs.size(); ++i) {
    EXPECT_TRUE(BitEqual(wire_initial_probs[i], local_initial_probs[i]))
        << "arrival estimate diverged at claim " << i;
  }
  ASSERT_EQ(wire_view.value().probs.size(), local_view.probs.size());
  for (size_t i = 0; i < local_view.probs.size(); ++i) {
    EXPECT_TRUE(BitEqual(wire_view.value().probs[i], local_view.probs[i]));
  }
}

TEST_F(LoopbackTest, CheckpointRestoreAndStatsOverWire) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(13, 12);
  SessionSpec spec = testing::BatchSpec(7, 5);  // oracle user: self-contained
  auto created = client_->CreateSession(corpus.db, spec);
  ASSERT_TRUE(created.ok()) << created.status();
  for (int i = 0; i < 2; ++i) {
    auto advanced = client_->Advance(created.value());
    ASSERT_TRUE(advanced.ok()) << advanced.status();
  }

  const std::string directory =
      (std::filesystem::temp_directory_path() / "veritas_loopback_ckpt")
          .string();
  ASSERT_TRUE(client_->Checkpoint(created.value(), directory).ok());
  auto restored = client_->Restore(directory);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_NE(restored.value(), created.value());

  auto original = client_->Ground(created.value());
  auto copy = client_->Ground(restored.value());
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(original.value().probs, copy.value().probs);
  EXPECT_EQ(original.value().grounding, copy.value().grounding);

  auto stats = client_->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats.value().stats.sessions_active, 2u);
  EXPECT_GE(stats.value().stats.steps_served, 2u);
  ASSERT_EQ(stats.value().sessions.size(), 2u);
  EXPECT_EQ(stats.value().sessions[0].id, created.value());
  EXPECT_EQ(stats.value().sessions[1].id, restored.value());
  EXPECT_EQ(stats.value().sessions[0].mode, SessionMode::kBatch);
  EXPECT_TRUE(stats.value().sessions[0].resident);
  EXPECT_GE(stats.value().sessions[0].steps_served, 2u);

  std::error_code ec;
  std::filesystem::remove_all(directory, ec);
}

TEST_F(LoopbackTest, ErrorCodesSurviveTheWire) {
  // Unknown session: the server-side kNotFound arrives as kNotFound.
  auto advanced = client_->Advance(4242);
  EXPECT_FALSE(advanced.ok());
  EXPECT_EQ(advanced.status().code(), StatusCode::kNotFound);

  // Answer before Advance: kFailedPrecondition.
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(17, 8);
  SessionSpec spec = testing::BatchSpec(5, 3);
  spec.user.kind = UserSpec::Kind::kNone;
  auto created = client_->CreateSession(corpus.db, spec);
  ASSERT_TRUE(created.ok());
  auto answered = client_->Answer(created.value(), StepAnswers{});
  EXPECT_FALSE(answered.ok());
  EXPECT_EQ(answered.status().code(), StatusCode::kFailedPrecondition);

  // Invalid create: empty database.
  auto empty = client_->CreateSession(FactDatabase(), spec);
  EXPECT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  // Restore from a bogus directory.
  auto restored = client_->Restore("/nonexistent/veritas/ckpt");
  EXPECT_FALSE(restored.ok());

  // The connection survives every failure above.
  auto stats = client_->Stats();
  EXPECT_TRUE(stats.ok()) << stats.status();
}

TEST_F(LoopbackTest, RawFramesMalformedInputAndVersionGate) {
  auto raw = Socket::ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok()) << raw.status();

  // Garbage JSON: the server answers with an error envelope, not a hangup.
  ASSERT_TRUE(WriteFrame(raw.value(), "this is not json").ok());
  auto frame = ReadFrame(raw.value());
  ASSERT_TRUE(frame.ok()) << frame.status();
  auto response = DecodeResponse(frame.value());
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(IsError(response.value()));
  EXPECT_EQ(std::get<ErrorResponse>(response.value().result).code,
            StatusCode::kInvalidArgument);

  // Wrong api_version: kFailedPrecondition, id echoed from the envelope.
  ASSERT_TRUE(WriteFrame(raw.value(),
                         "{\"api_version\":99,\"id\":321,\"method\":\"stats\","
                         "\"params\":{}}")
                  .ok());
  frame = ReadFrame(raw.value());
  ASSERT_TRUE(frame.ok());
  response = DecodeResponse(frame.value());
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(IsError(response.value()));
  EXPECT_EQ(std::get<ErrorResponse>(response.value().result).code,
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(response.value().id, 321u);

  // Unknown method: kUnimplemented.
  ASSERT_TRUE(WriteFrame(raw.value(),
                         "{\"api_version\":1,\"id\":5,\"method\":\"frobnicate\","
                         "\"params\":{}}")
                  .ok());
  frame = ReadFrame(raw.value());
  ASSERT_TRUE(frame.ok());
  response = DecodeResponse(frame.value());
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(IsError(response.value()));
  EXPECT_EQ(std::get<ErrorResponse>(response.value().result).code,
            StatusCode::kUnimplemented);

  // After all that abuse the connection still serves a valid request.
  ASSERT_TRUE(WriteFrame(raw.value(),
                         "{\"api_version\":1,\"id\":6,\"method\":\"stats\","
                         "\"params\":{}}")
                  .ok());
  frame = ReadFrame(raw.value());
  ASSERT_TRUE(frame.ok());
  response = DecodeResponse(frame.value());
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(IsError(response.value()));
}

TEST_F(LoopbackTest, TwoClientsInterleave) {
  // Two connections, two sessions: per-connection ordering with cross-
  // session parallelism through the queue.
  auto second = ApiClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(second.ok()) << second.status();
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(23, 10);
  auto a = client_->CreateSession(corpus.db, testing::BatchSpec(1, 3));
  auto b = second.value()->CreateSession(corpus.db, testing::BatchSpec(2, 3));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int i = 0; i < 3; ++i) {
    auto step_a = client_->Advance(a.value());
    auto step_b = second.value()->Advance(b.value());
    ASSERT_TRUE(step_a.ok()) << step_a.status();
    ASSERT_TRUE(step_b.ok()) << step_b.status();
  }
  auto outcome_a = client_->Terminate(a.value());
  auto outcome_b = second.value()->Terminate(b.value());
  EXPECT_TRUE(outcome_a.ok());
  EXPECT_TRUE(outcome_b.ok());
  EXPECT_EQ(manager_->stats().sessions_active, 0u);
}

}  // namespace
}  // namespace veritas
