// Fleet integration tests (DESIGN.md §11): a session driven through a
// SessionRouter over N workers must be indistinguishable from an
// in-process Session — bit-identical trace, posterior, and grounding —
// even when the worker hosting it is killed mid-session (checkpoint
// failover) or the session is migrated between workers on purpose.
// Also pins the fleet-level admission control, stats aggregation across
// workers, and the no-checkpoint-means-no-failover contract.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "api/client.h"
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
using testing::RunLocalReference;
using testing::WorkerFleet;
using testing::WorkerFleetOptions;

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
  void StartFleet(size_t workers, size_t checkpoint_interval = 1,
                  size_t max_sessions = 0, bool with_checkpoints = true) {
    WorkerFleetOptions fleet_options;
    fleet_options.workers = workers;
    fleet_ = std::make_unique<WorkerFleet>(fleet_options);

    SessionRouterOptions router_options;
    router_options.backends = fleet_->addresses();
    if (with_checkpoints) router_options.checkpoint_dir = checkpoint_dir_;
    router_options.checkpoint_interval = checkpoint_interval;
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

  /// Kills the worker currently hosting `session`; returns its fleet index.
  size_t KillHost(SessionId session) {
    auto address = router_->BackendOf(session);
    EXPECT_TRUE(address.ok()) << address.status();
    const size_t index = fleet_->IndexOf(address.value());
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

TEST_F(FailoverTest, ExplicitMigrationPreservesTheTrace) {
  StartFleet(2);
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(7, 16);
  const SessionSpec spec = ExternalAnswerSpec(42, 6);

  std::vector<IterationRecord> local_trace;
  GroundingView local_view;
  RunLocalReference(corpus.db, spec, &local_trace, &local_view);
  ASSERT_GE(local_trace.size(), 3u);

  auto created = client_->CreateSession(corpus.db, spec);
  ASSERT_TRUE(created.ok()) << created.status();
  std::vector<IterationRecord> fleet_trace;
  size_t completed = 0;
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
      if (++completed == 1) {
        // Live migration to the OTHER worker between iterations.
        auto host = router_->BackendOf(created.value());
        ASSERT_TRUE(host.ok());
        const size_t source = fleet_->IndexOf(host.value());
        const std::string target = fleet_->address(1 - source);
        ASSERT_TRUE(router_->Migrate(created.value(), target).ok());
        auto moved = router_->BackendOf(created.value());
        ASSERT_TRUE(moved.ok());
        EXPECT_EQ(moved.value(), target);
      }
    }
  }

  ASSERT_EQ(fleet_trace.size(), local_trace.size());
  for (size_t i = 0; i < fleet_trace.size(); ++i) {
    ExpectRecordBitIdentical(fleet_trace[i], local_trace[i]);
  }
  EXPECT_EQ(router_->stats().migrations, 1u);
  EXPECT_EQ(router_->stats().failovers, 0u);
  EXPECT_EQ(router_->stats().backends_live, 2u);
}

TEST_F(FailoverTest, NoCheckpointDirMeansNoFailover) {
  StartFleet(2, /*checkpoint_interval=*/1, /*max_sessions=*/0,
             /*with_checkpoints=*/false);
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
  StartFleet(2, /*checkpoint_interval=*/1, /*max_sessions=*/1);
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

}  // namespace
}  // namespace veritas
