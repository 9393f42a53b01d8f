// Fleet integration tests (DESIGN.md §11): a session driven through a
// SessionRouter over N workers must be indistinguishable from an
// in-process Session — bit-identical trace, posterior, and grounding —
// even when the worker hosting it is killed mid-session (checkpoint
// failover): after a completed iteration, between an advance and its
// answer, in mid-stream, or between a step's reply and its checkpoint.
// Also pins the one checkpoint policy (every step; Start refuses any other
// interval), that a refused checkpoint disables failover until the next
// one lands, the fleet-level admission control, stats aggregation across
// workers, the no-checkpoint-means-no-failover contract, and that a router
// checkpoint lives exactly as long as its session.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/client.h"
#include "api/codec.h"
#include "api/event_server.h"
#include "fleet/router.h"
#include "testing/corpus_fixtures.h"
#include "testing/fault_injection.h"
#include "testing/wire_fixtures.h"

namespace veritas {
namespace {

using testing::AnswerFromTruth;
using testing::BitEqual;
using testing::ExpectRecordBitIdentical;
using testing::ExternalAnswerSpec;
using testing::FrameFilter;
using testing::RunLocalReference;
using testing::WorkerFleet;
using testing::WorkerFleetOptions;

bool IsCheckpoint(const std::string& frame) {
  auto envelope = DecodeRequestEnvelope(frame);
  return envelope.ok() && envelope.value().method == ApiMethod::kCheckpoint;
}

/// Once it sees a checkpoint request, answers it and every later frame
/// with bytes that are not a response: to the router, a backend that died
/// between a step's reply and the step's checkpoint.
FrameFilter LoseCheckpointsInTransport() {
  auto tripped = std::make_shared<std::atomic<bool>>(false);
  return [tripped](const std::string& frame) -> std::optional<std::string> {
    if (!tripped->load() && !IsCheckpoint(frame)) return std::nullopt;
    tripped->store(true);
    return std::string("garbage");
  };
}

/// Refuses the next checkpoint request with an error envelope, as a
/// backend that cannot write it does, and passes everything else.
FrameFilter RefuseOneCheckpoint() {
  auto spent = std::make_shared<std::atomic<bool>>(false);
  return [spent](const std::string& frame) -> std::optional<std::string> {
    uint64_t id = 0;
    auto envelope = DecodeRequestEnvelope(frame, &id);
    if (!envelope.ok() || envelope.value().method != ApiMethod::kCheckpoint ||
        spent->exchange(true)) {
      return std::nullopt;
    }
    auto refused =
        EncodeResponse(MakeErrorResponse(id, Status::Internal("disk full")));
    return refused.ok() ? refused.value() : std::string("{}");
  };
}

void ExpectTraceBitIdentical(const std::vector<IterationRecord>& fleet,
                             const std::vector<IterationRecord>& local) {
  ASSERT_EQ(fleet.size(), local.size());
  for (size_t i = 0; i < local.size(); ++i) {
    ExpectRecordBitIdentical(fleet[i], local[i]);
  }
}

class FailoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    checkpoint_dir_ =
        (std::filesystem::temp_directory_path() /
         ("veritas_fleet_" +
          std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
          "_" + ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name()))
            .string();
    std::filesystem::create_directories(checkpoint_dir_);
  }

  void TearDown() override {
    client_.reset();
    if (front_ != nullptr) front_->Stop();
    front_.reset();
    router_.reset();
    fleet_.reset();
    std::error_code ec;
    std::filesystem::remove_all(checkpoint_dir_, ec);
  }

  /// Boots `workers` backends, a router over them, a wire front end over
  /// the router, and a client into the front end.
  void StartFleet(size_t workers, size_t max_sessions = 0,
                  bool with_checkpoints = true) {
    WorkerFleetOptions fleet_options;
    fleet_options.workers = workers;
    fleet_ = std::make_unique<WorkerFleet>(fleet_options);

    SessionRouterOptions router_options;
    router_options.backends = fleet_->addresses();
    if (with_checkpoints) router_options.checkpoint_dir = checkpoint_dir_;
    router_options.max_sessions = max_sessions;
    auto router = SessionRouter::Start(router_options);
    ASSERT_TRUE(router.ok()) << router.status();
    router_ = std::move(router).value();

    auto front = EventApiServer::Start(router_.get());
    ASSERT_TRUE(front.ok()) << front.status();
    front_ = std::move(front).value();

    auto client = ApiClient::Connect("127.0.0.1", front_->port());
    ASSERT_TRUE(client.ok()) << client.status();
    client_ = std::move(client).value();
  }

  /// Drives a batch session to its end through the router, answering each
  /// plan from ground truth, and returns the iterations the client saw.
  /// `before_answer` runs between each advance and its answer and is given
  /// the number of iterations completed so far.
  std::vector<IterationRecord> DriveBatch(
      SessionId session, const FactDatabase& db,
      const std::function<void(size_t completed)>& before_answer) {
    std::vector<IterationRecord> trace;
    for (;;) {
      auto advanced = client_->Advance(session);
      EXPECT_TRUE(advanced.ok()) << advanced.status();
      if (!advanced.ok() || advanced.value().done) break;
      EXPECT_TRUE(advanced.value().awaiting_answers);
      before_answer(trace.size());
      auto answered =
          client_->Answer(session, AnswerFromTruth(db, advanced.value()));
      EXPECT_TRUE(answered.ok()) << answered.status();
      if (!answered.ok()) break;
      if (answered.value().iteration_completed) {
        trace.push_back(answered.value().record);
      }
    }
    return trace;
  }

  /// The session's grounding through the router equals `local` bit for bit.
  void ExpectGroundingBitIdentical(SessionId session,
                                   const GroundingView& local) {
    auto view = client_->Ground(session);
    ASSERT_TRUE(view.ok()) << view.status();
    ASSERT_EQ(view.value().probs.size(), local.probs.size());
    for (size_t i = 0; i < local.probs.size(); ++i) {
      EXPECT_TRUE(BitEqual(view.value().probs[i], local.probs[i]))
          << "claim " << i;
    }
    EXPECT_EQ(view.value().grounding, local.grounding);
  }

  /// Fleet index of the worker currently hosting `session`.
  size_t HostOf(SessionId session) {
    auto address = router_->BackendOf(session);
    EXPECT_TRUE(address.ok()) << address.status();
    return fleet_->IndexOf(address.value());
  }

  /// Kills the worker currently hosting `session`; returns its fleet index.
  size_t KillHost(SessionId session) {
    const size_t index = HostOf(session);
    fleet_->Kill(index);
    return index;
  }

  std::string checkpoint_dir_;
  std::unique_ptr<WorkerFleet> fleet_;
  std::unique_ptr<SessionRouter> router_;
  std::unique_ptr<EventApiServer> front_;
  std::unique_ptr<ApiClient> client_;
};

TEST_F(FailoverTest, RouterSessionBitIdenticalToInProcess) {
  StartFleet(2);
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(7, 16);
  const SessionSpec spec = ExternalAnswerSpec(42, 6);

  std::vector<IterationRecord> local_trace;
  GroundingView local_view;
  RunLocalReference(corpus.db, spec, &local_trace, &local_view);
  ASSERT_FALSE(local_trace.empty());

  auto created = client_->CreateSession(corpus.db, spec);
  ASSERT_TRUE(created.ok()) << created.status();
  std::vector<IterationRecord> fleet_trace;
  for (;;) {
    auto advanced = client_->Advance(created.value());
    ASSERT_TRUE(advanced.ok()) << advanced.status();
    if (advanced.value().done) break;
    ASSERT_TRUE(advanced.value().awaiting_answers);
    auto answered = client_->Answer(
        created.value(), AnswerFromTruth(corpus.db, advanced.value()));
    ASSERT_TRUE(answered.ok()) << answered.status();
    if (answered.value().iteration_completed) {
      fleet_trace.push_back(answered.value().record);
    }
  }
  auto view = client_->Ground(created.value());
  ASSERT_TRUE(view.ok()) << view.status();

  ASSERT_EQ(fleet_trace.size(), local_trace.size());
  for (size_t i = 0; i < fleet_trace.size(); ++i) {
    ExpectRecordBitIdentical(fleet_trace[i], local_trace[i]);
  }
  ASSERT_EQ(view.value().probs.size(), local_view.probs.size());
  for (size_t i = 0; i < local_view.probs.size(); ++i) {
    EXPECT_TRUE(BitEqual(view.value().probs[i], local_view.probs[i]));
  }
  EXPECT_EQ(view.value().grounding, local_view.grounding);
  EXPECT_TRUE(BitEqual(view.value().precision, local_view.precision));

  auto outcome = client_->Terminate(created.value());
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_EQ(outcome.value().trace.size(), local_trace.size());
  for (size_t i = 0; i < local_trace.size(); ++i) {
    ExpectRecordBitIdentical(outcome.value().trace[i], local_trace[i]);
  }
  EXPECT_EQ(router_->stats().failovers, 0u);
}

TEST_F(FailoverTest, WorkerKillMidSessionFailsOverBitIdentically) {
  StartFleet(2);
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(7, 16);
  const SessionSpec spec = ExternalAnswerSpec(42, 6);

  std::vector<IterationRecord> local_trace;
  GroundingView local_view;
  RunLocalReference(corpus.db, spec, &local_trace, &local_view);
  ASSERT_GE(local_trace.size(), 3u) << "session too short to kill mid-run";

  auto created = client_->CreateSession(corpus.db, spec);
  ASSERT_TRUE(created.ok()) << created.status();
  std::vector<IterationRecord> fleet_trace;
  size_t completed = 0;
  size_t killed_worker = SIZE_MAX;
  for (;;) {
    auto advanced = client_->Advance(created.value());
    ASSERT_TRUE(advanced.ok()) << advanced.status();
    if (advanced.value().done) break;
    ASSERT_TRUE(advanced.value().awaiting_answers);
    auto answered = client_->Answer(
        created.value(), AnswerFromTruth(corpus.db, advanced.value()));
    ASSERT_TRUE(answered.ok()) << answered.status();
    if (answered.value().iteration_completed) {
      fleet_trace.push_back(answered.value().record);
      // SIGKILL the hosting worker after the first completed iteration:
      // the next request must transparently fail over.
      if (++completed == 1) killed_worker = KillHost(created.value());
    }
  }
  ASSERT_NE(killed_worker, SIZE_MAX);

  // The client saw NOTHING: the trace matches the unfailed in-process run
  // bit for bit, across the kill.
  ASSERT_EQ(fleet_trace.size(), local_trace.size());
  for (size_t i = 0; i < fleet_trace.size(); ++i) {
    ExpectRecordBitIdentical(fleet_trace[i], local_trace[i]);
  }
  auto view = client_->Ground(created.value());
  ASSERT_TRUE(view.ok()) << view.status();
  ASSERT_EQ(view.value().probs.size(), local_view.probs.size());
  for (size_t i = 0; i < local_view.probs.size(); ++i) {
    EXPECT_TRUE(BitEqual(view.value().probs[i], local_view.probs[i]));
  }
  EXPECT_EQ(view.value().grounding, local_view.grounding);

  const RouterStats stats = router_->stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.backends_live, 1u);
  // The session now lives on the surviving worker.
  auto host = router_->BackendOf(created.value());
  ASSERT_TRUE(host.ok());
  EXPECT_EQ(fleet_->IndexOf(host.value()), 1u - killed_worker);
}

TEST_F(FailoverTest, KillBetweenAdvanceAndAnswerRetriesTheAnswer) {
  StartFleet(2);
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(7, 16);
  const SessionSpec spec = ExternalAnswerSpec(42, 6);

  std::vector<IterationRecord> local_trace;
  GroundingView local_view;
  RunLocalReference(corpus.db, spec, &local_trace, &local_view);
  ASSERT_GE(local_trace.size(), 3u) << "session too short to kill mid-run";

  auto created = client_->CreateSession(corpus.db, spec);
  ASSERT_TRUE(created.ok()) << created.status();
  // SIGKILL the host while the second plan awaits its answers: the retried
  // request is the answer, on the plan the failover restores.
  const std::vector<IterationRecord> fleet_trace =
      DriveBatch(created.value(), corpus.db, [&](size_t completed) {
        if (completed == 1) KillHost(created.value());
      });

  ExpectTraceBitIdentical(fleet_trace, local_trace);
  ExpectGroundingBitIdentical(created.value(), local_view);
  EXPECT_EQ(router_->stats().failovers, 1u);
}

TEST_F(FailoverTest, StreamingKillMidStreamKeepsEveryArrival) {
  StartFleet(2);
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(11, 10);
  SessionSpec spec = testing::StreamingSpec(99, 3);
  spec.user.kind = UserSpec::Kind::kNone;

  std::vector<ArrivalStats> local_arrivals;
  GroundingView local_view;
  {
    auto session = Session::Create(corpus.db, spec);
    ASSERT_TRUE(session.ok()) << session.status();
    for (;;) {
      auto advanced = session.value()->Advance();
      ASSERT_TRUE(advanced.ok()) << advanced.status();
      if (advanced.value().done) break;
      ASSERT_TRUE(advanced.value().arrival_processed);
      local_arrivals.push_back(advanced.value().arrival);
    }
    auto view = session.value()->Ground();
    ASSERT_TRUE(view.ok()) << view.status();
    local_view = std::move(view).value();
  }
  ASSERT_GT(local_arrivals.size(), 3u);

  auto created = client_->CreateSession(corpus.db, spec);
  ASSERT_TRUE(created.ok()) << created.status();
  std::vector<ArrivalStats> fleet_arrivals;
  bool killed = false;
  for (;;) {
    // SIGKILL the host after the third arrival: the retried advance must
    // ingest the fourth claim, neither repeating the third nor skipping.
    if (fleet_arrivals.size() == 3 && !killed) {
      KillHost(created.value());
      killed = true;
    }
    auto advanced = client_->Advance(created.value());
    ASSERT_TRUE(advanced.ok()) << advanced.status();
    if (advanced.value().done) break;
    ASSERT_TRUE(advanced.value().arrival_processed);
    fleet_arrivals.push_back(advanced.value().arrival);
  }

  ASSERT_EQ(fleet_arrivals.size(), local_arrivals.size());
  for (size_t i = 0; i < local_arrivals.size(); ++i) {
    EXPECT_EQ(fleet_arrivals[i].claim, local_arrivals[i].claim);
    EXPECT_TRUE(BitEqual(fleet_arrivals[i].initial_prob,
                         local_arrivals[i].initial_prob))
        << "arrival " << i;
  }
  ExpectGroundingBitIdentical(created.value(), local_view);
  EXPECT_EQ(router_->stats().failovers, 1u);
}

TEST_F(FailoverTest, CheckpointLostInTransportReplaysTheStep) {
  StartFleet(2);
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(7, 16);
  const SessionSpec spec = ExternalAnswerSpec(42, 6);

  std::vector<IterationRecord> local_trace;
  GroundingView local_view;
  RunLocalReference(corpus.db, spec, &local_trace, &local_view);
  ASSERT_GE(local_trace.size(), 3u);

  auto created = client_->CreateSession(corpus.db, spec);
  ASSERT_TRUE(created.ok()) << created.status();
  // From the first answer on, the host serves the step but its checkpoint
  // reply never arrives: the answer must replay on the survivor, once.
  size_t filtered = SIZE_MAX;
  const std::vector<IterationRecord> fleet_trace =
      DriveBatch(created.value(), corpus.db, [&](size_t completed) {
        if (completed != 0) return;
        filtered = HostOf(created.value());
        fleet_->SetFilter(filtered, LoseCheckpointsInTransport());
      });

  ExpectTraceBitIdentical(fleet_trace, local_trace);
  ExpectGroundingBitIdentical(created.value(), local_view);
  EXPECT_EQ(router_->stats().failovers, 1u);
  EXPECT_NE(HostOf(created.value()), filtered);
}

TEST_F(FailoverTest, RefusedCheckpointDisablesFailoverUntilOneLands) {
  StartFleet(3);
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(7, 16);
  const SessionSpec spec = ExternalAnswerSpec(42, 6);

  std::vector<IterationRecord> local_trace;
  GroundingView local_view;
  RunLocalReference(corpus.db, spec, &local_trace, &local_view);
  ASSERT_GE(local_trace.size(), 3u);

  auto created = client_->CreateSession(corpus.db, spec);
  ASSERT_TRUE(created.ok()) << created.status();
  const SessionId session = created.value();

  // Iteration 1: the answer's checkpoint is refused, and the client still
  // gets the answer's record.
  auto plan = client_->Advance(session);
  ASSERT_TRUE(plan.ok()) << plan.status();
  fleet_->SetFilter(HostOf(session), RefuseOneCheckpoint());
  auto answered =
      client_->Answer(session, AnswerFromTruth(corpus.db, plan.value()));
  ASSERT_TRUE(answered.ok()) << answered.status();
  ASSERT_TRUE(answered.value().iteration_completed);
  ExpectRecordBitIdentical(answered.value().record, local_trace[0]);

  // Iteration 2: the advance's checkpoint lands, so a kill before the
  // answer fails over to it.
  plan = client_->Advance(session);
  ASSERT_TRUE(plan.ok()) << plan.status();
  KillHost(session);
  answered = client_->Answer(session, AnswerFromTruth(corpus.db, plan.value()));
  ASSERT_TRUE(answered.ok()) << answered.status();
  ASSERT_TRUE(answered.value().iteration_completed);
  ExpectRecordBitIdentical(answered.value().record, local_trace[1]);
  EXPECT_EQ(router_->stats().failovers, 1u);

  // Iteration 3: the advance's checkpoint is refused, so the file on disk
  // predates the plan. A kill now cannot be recovered from, and the answer
  // says so instead of landing on a rewound session.
  fleet_->SetFilter(HostOf(session), RefuseOneCheckpoint());
  plan = client_->Advance(session);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(plan.value().awaiting_answers);
  KillHost(session);
  answered = client_->Answer(session, AnswerFromTruth(corpus.db, plan.value()));
  ASSERT_FALSE(answered.ok());
  EXPECT_EQ(answered.status().code(), StatusCode::kUnavailable)
      << answered.status();
  EXPECT_EQ(router_->stats().failovers, 1u);
  EXPECT_EQ(router_->stats().backends_live, 1u);
}

TEST_F(FailoverTest, TerminateRemovesOnlyThatSessionsCheckpoint) {
  StartFleet(2);
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(7, 12);
  auto done = client_->CreateSession(corpus.db, ExternalAnswerSpec(42, 4));
  auto live = client_->CreateSession(corpus.db, ExternalAnswerSpec(43, 4));
  ASSERT_TRUE(done.ok()) << done.status();
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_TRUE(client_->Advance(done.value()).ok());
  ASSERT_TRUE(client_->Advance(live.value()).ok());
  const std::filesystem::path done_dir =
      std::filesystem::path(checkpoint_dir_) /
      ("session-" + std::to_string(done.value()));
  const std::filesystem::path live_dir =
      std::filesystem::path(checkpoint_dir_) /
      ("session-" + std::to_string(live.value()));
  ASSERT_TRUE(std::filesystem::exists(done_dir / "session.bin"));
  ASSERT_TRUE(std::filesystem::exists(live_dir / "session.bin"));

  ASSERT_TRUE(client_->Terminate(done.value()).ok());
  EXPECT_FALSE(std::filesystem::exists(done_dir));
  EXPECT_TRUE(std::filesystem::exists(live_dir / "session.bin"));
  EXPECT_EQ(router_->stats().sessions_live, 1u);
}

TEST_F(FailoverTest, FailedOverSessionsLeaveNoCheckpoint) {
  StartFleet(2);
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(7, 12);
  auto failed = client_->CreateSession(corpus.db, ExternalAnswerSpec(42, 4));
  auto other = client_->CreateSession(corpus.db, ExternalAnswerSpec(43, 4));
  ASSERT_TRUE(failed.ok()) << failed.status();
  ASSERT_TRUE(other.ok()) << other.status();
  ASSERT_TRUE(client_->Advance(failed.value()).ok());
  ASSERT_TRUE(client_->Advance(other.value()).ok());

  KillHost(failed.value());
  // Both sessions keep serving: the killed worker's sessions fail over.
  ASSERT_TRUE(client_->Advance(failed.value()).ok());
  ASSERT_TRUE(client_->Advance(other.value()).ok());
  EXPECT_GE(router_->stats().failovers, 1u);

  ASSERT_TRUE(client_->Terminate(failed.value()).ok());
  ASSERT_TRUE(client_->Terminate(other.value()).ok());
  EXPECT_TRUE(std::filesystem::is_empty(checkpoint_dir_));
  EXPECT_EQ(router_->stats().sessions_live, 0u);
}

TEST_F(FailoverTest, NoCheckpointDirMeansNoFailover) {
  StartFleet(2, /*max_sessions=*/0, /*with_checkpoints=*/false);
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(7, 12);
  auto created = client_->CreateSession(corpus.db, ExternalAnswerSpec(42, 4));
  ASSERT_TRUE(created.ok()) << created.status();
  ASSERT_TRUE(client_->Advance(created.value()).ok());

  KillHost(created.value());
  auto advanced = client_->Advance(created.value());
  ASSERT_FALSE(advanced.ok());
  EXPECT_EQ(advanced.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(router_->stats().failovers, 0u);
  EXPECT_EQ(router_->stats().backends_live, 1u);

  // The fleet still serves NEW sessions on the survivor.
  auto fresh = client_->CreateSession(corpus.db, ExternalAnswerSpec(5, 3));
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_TRUE(client_->Advance(fresh.value()).ok());
}

TEST_F(FailoverTest, FleetAdmissionControlCapsLiveSessions) {
  StartFleet(2, /*max_sessions=*/1);
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(7, 12);
  auto first = client_->CreateSession(corpus.db, ExternalAnswerSpec(42, 4));
  ASSERT_TRUE(first.ok()) << first.status();

  auto second = client_->CreateSession(corpus.db, ExternalAnswerSpec(43, 4));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(router_->stats().admission_rejects, 1u);

  // Capacity frees on terminate.
  ASSERT_TRUE(client_->Terminate(first.value()).ok());
  auto third = client_->CreateSession(corpus.db, ExternalAnswerSpec(44, 4));
  EXPECT_TRUE(third.ok()) << third.status();
}

TEST_F(FailoverTest, StatsAggregateAcrossWorkersInRouterIdSpace) {
  StartFleet(2);
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(7, 12);
  std::vector<SessionId> ids;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto created =
        client_->CreateSession(corpus.db, ExternalAnswerSpec(seed, 3));
    ASSERT_TRUE(created.ok()) << created.status();
    ids.push_back(created.value());
    ASSERT_TRUE(client_->Advance(created.value()).ok());
  }
  // Placement actually used both workers (6 sessions, 2 shards: the vnode
  // spread makes a 6-0 split astronomically unlikely... but derive, don't
  // assume).
  size_t on_first = 0;
  for (SessionId id : ids) {
    auto host = router_->BackendOf(id);
    ASSERT_TRUE(host.ok());
    if (fleet_->IndexOf(host.value()) == 0) ++on_first;
  }

  auto stats = client_->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  // Aggregated counters: every worker's sessions and steps, summed.
  EXPECT_EQ(stats.value().stats.sessions_active, ids.size());
  EXPECT_GE(stats.value().stats.steps_served, ids.size());
  // The session list arrives translated into ROUTER ids, sorted.
  ASSERT_EQ(stats.value().sessions.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(stats.value().sessions[i].id, ids[i]);
  }
  // Sanity on the split derived above: totals add up regardless of where
  // sessions landed.
  EXPECT_LE(on_first, ids.size());
  const RouterStats router_stats = router_->stats();
  EXPECT_EQ(router_stats.sessions_routed, ids.size());
  EXPECT_EQ(router_stats.sessions_live, ids.size());
}

TEST_F(FailoverTest, DoubleKillExhaustsTheFleet) {
  StartFleet(2);
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(7, 12);
  auto created = client_->CreateSession(corpus.db, ExternalAnswerSpec(42, 4));
  ASSERT_TRUE(created.ok()) << created.status();
  ASSERT_TRUE(client_->Advance(created.value()).ok());

  fleet_->Kill(0);
  fleet_->Kill(1);
  auto advanced = client_->Advance(created.value());
  ASSERT_FALSE(advanced.ok());
  EXPECT_EQ(advanced.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(router_->stats().backends_live, 0u);
}

TEST_F(FailoverTest, StartRefusesEveryCheckpointIntervalButOne) {
  WorkerFleet fleet;
  for (const bool with_dir : {false, true}) {
    for (const size_t interval : {size_t{0}, size_t{1}, size_t{2}}) {
      SessionRouterOptions options;
      options.backends = fleet.addresses();
      if (with_dir) options.checkpoint_dir = checkpoint_dir_;
      options.checkpoint_interval = interval;
      auto router = SessionRouter::Start(options);
      if (interval == 1) {
        EXPECT_TRUE(router.ok()) << router.status();
        continue;
      }
      ASSERT_FALSE(router.ok()) << "interval " << interval;
      EXPECT_EQ(router.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(router.status().message().find("in-flight request"),
                std::string::npos)
          << router.status();
    }
  }
}

}  // namespace
}  // namespace veritas
