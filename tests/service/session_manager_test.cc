#include "service/session_manager.h"

#include <cstring>
#include <filesystem>

#include <gtest/gtest.h>

#include "service/service_fixtures.h"

namespace veritas {
namespace {

using testing::BatchSpec;
using testing::MakeTinyCorpus;
using testing::StreamingSpec;

class SessionManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/veritas_mgr_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static void ExpectBitwiseEqual(const std::vector<double>& a,
                                 const std::vector<double>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      uint64_t bits_a = 0, bits_b = 0;
      std::memcpy(&bits_a, &a[i], 8);
      std::memcpy(&bits_b, &b[i], 8);
      ASSERT_EQ(bits_a, bits_b) << "probability " << i << " diverged";
    }
  }

  std::string dir_;
};

TEST_F(SessionManagerTest, BatchLifecycleRunsToCompletion) {
  SessionManager manager;
  auto corpus = MakeTinyCorpus(21);
  auto id = manager.Create(corpus.db, BatchSpec(42, 4));
  ASSERT_TRUE(id.ok());

  size_t iterations = 0;
  for (;;) {
    auto step = manager.Advance(id.value());
    ASSERT_TRUE(step.ok()) << step.status();
    if (step.value().done) {
      EXPECT_EQ(step.value().stop_reason, "budget-exhausted");
      break;
    }
    EXPECT_TRUE(step.value().iteration_completed);
    ++iterations;
    ASSERT_LT(iterations, 100u) << "session never stopped";
  }
  EXPECT_EQ(iterations, 4u);

  auto view = manager.Ground(id.value());
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().num_claims, corpus.db.num_claims());
  EXPECT_EQ(view.value().labeled, 4u);

  auto outcome = manager.Terminate(id.value());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().validations, 4u);
  EXPECT_EQ(manager.stats().sessions_active, 0u);
}

TEST_F(SessionManagerTest, StreamingLifecycleDrainsTheStream) {
  SessionManager manager;
  auto corpus = MakeTinyCorpus(22, 12);
  auto id = manager.Create(corpus.db, StreamingSpec(7, 4));
  ASSERT_TRUE(id.ok());

  size_t arrivals = 0;
  for (;;) {
    auto step = manager.Advance(id.value());
    ASSERT_TRUE(step.ok()) << step.status();
    if (step.value().done) {
      EXPECT_EQ(step.value().stop_reason, "stream-drained");
      break;
    }
    EXPECT_TRUE(step.value().arrival_processed);
    ++arrivals;
    ASSERT_LT(arrivals, 100u);
  }
  EXPECT_EQ(arrivals, corpus.db.num_claims());

  auto view = manager.Ground(id.value());
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().num_claims, corpus.db.num_claims());
  EXPECT_GT(view.value().labeled, 0u);  // the interval labeler ran
  ASSERT_TRUE(manager.Terminate(id.value()).ok());
}

TEST_F(SessionManagerTest, UnknownSessionIsNotFound) {
  SessionManager manager;
  EXPECT_EQ(manager.Advance(12345).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.Ground(12345).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.Terminate(12345).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.Answer(12345, {}).status().code(), StatusCode::kNotFound);
}

TEST_F(SessionManagerTest, ExternalAnswerFlowMatchesSimulatedOracle) {
  auto corpus = MakeTinyCorpus(23);

  // Reference: oracle-driven session.
  SessionManager manager;
  auto oracle_id = manager.Create(corpus.db, BatchSpec(77, 5));
  ASSERT_TRUE(oracle_id.ok());
  for (;;) {
    auto step = manager.Advance(oracle_id.value());
    ASSERT_TRUE(step.ok());
    if (step.value().done) break;
  }

  // External: same spec but answers supplied through Answer(), always the
  // ground truth — exactly what the oracle would have said.
  SessionSpec external = BatchSpec(77, 5);
  external.user.kind = UserSpec::Kind::kNone;
  auto external_id = manager.Create(corpus.db, external);
  ASSERT_TRUE(external_id.ok());
  for (;;) {
    auto step = manager.Advance(external_id.value());
    ASSERT_TRUE(step.ok());
    if (step.value().done) break;
    ASSERT_TRUE(step.value().awaiting_answers);
    StepAnswers answers;
    const ClaimId top = step.value().candidates.front();
    answers.claims = {top};
    answers.answers = {
        static_cast<uint8_t>(corpus.db.ground_truth(top) ? 1 : 0)};
    ASSERT_TRUE(manager.Answer(external_id.value(), answers).ok());
  }

  auto oracle_view = manager.Ground(oracle_id.value());
  auto external_view = manager.Ground(external_id.value());
  ASSERT_TRUE(oracle_view.ok());
  ASSERT_TRUE(external_view.ok());
  ExpectBitwiseEqual(oracle_view.value().probs, external_view.value().probs);
}

TEST_F(SessionManagerTest, LruEvictionSpillsAndRestoresTransparently) {
  auto corpus = MakeTinyCorpus(24);

  // Reference run without any budget.
  std::vector<std::vector<double>> reference;
  {
    SessionManager unlimited;
    std::vector<SessionId> ids;
    for (uint64_t s = 0; s < 3; ++s) {
      auto id = unlimited.Create(corpus.db, BatchSpec(100 + s, 3));
      ASSERT_TRUE(id.ok());
      ids.push_back(id.value());
    }
    for (int round = 0; round < 3; ++round) {
      for (const SessionId id : ids) ASSERT_TRUE(unlimited.Advance(id).ok());
    }
    for (const SessionId id : ids) {
      auto view = unlimited.Ground(id);
      ASSERT_TRUE(view.ok());
      reference.push_back(view.value().probs);
    }
  }

  // Probe the footprint of one resident session so the budget tracks the
  // estimator instead of hard-coding bytes.
  size_t one_session_bytes = 0;
  {
    SessionManager probe;
    ASSERT_TRUE(probe.Create(corpus.db, BatchSpec(100, 3)).ok());
    one_session_bytes = probe.stats().resident_bytes;
    ASSERT_GT(one_session_bytes, 0u);
  }

  // Budgeted run: room for roughly 1.5 sessions, so round-robin stepping of
  // 3 sessions forces constant spill/restore traffic.
  SessionManagerOptions options;
  options.memory_budget_bytes = one_session_bytes + one_session_bytes / 2;
  options.spill_directory = dir_;
  SessionManager manager(options);
  std::vector<SessionId> ids;
  for (uint64_t s = 0; s < 3; ++s) {
    auto id = manager.Create(corpus.db, BatchSpec(100 + s, 3));
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(id.value());
  }
  for (int round = 0; round < 3; ++round) {
    for (const SessionId id : ids) {
      auto step = manager.Advance(id);
      ASSERT_TRUE(step.ok()) << step.status();
    }
  }

  const SessionManagerStats stats = manager.stats();
  EXPECT_EQ(stats.sessions_active, 3u);
  EXPECT_GT(stats.evictions, 0u) << "budget never forced a spill";
  EXPECT_GT(stats.spill_restores, 0u) << "no spilled session was revived";
  EXPECT_LE(stats.sessions_resident, 2u);

  // Transparency: eviction + restore changed nothing about the results.
  for (size_t s = 0; s < ids.size(); ++s) {
    auto view = manager.Ground(ids[s]);
    ASSERT_TRUE(view.ok());
    ExpectBitwiseEqual(reference[s], view.value().probs);
  }
}

TEST_F(SessionManagerTest, CheckpointAndRestoreThroughTheManager) {
  SessionManager manager;
  auto corpus = MakeTinyCorpus(25);
  auto id = manager.Create(corpus.db, BatchSpec(88, 4));
  ASSERT_TRUE(id.ok());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(manager.Advance(id.value()).ok());

  const std::string ckpt = dir_ + "/manual";
  ASSERT_TRUE(manager.Checkpoint(id.value(), ckpt).ok());
  auto clone = manager.Restore(ckpt);
  ASSERT_TRUE(clone.ok());
  EXPECT_NE(clone.value(), id.value());

  // Both sessions continue identically.
  for (int i = 0; i < 2; ++i) {
    auto a = manager.Advance(id.value());
    auto b = manager.Advance(clone.value());
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.value().record.claims, b.value().record.claims);
  }
  auto view_a = manager.Ground(id.value());
  auto view_b = manager.Ground(clone.value());
  ASSERT_TRUE(view_a.ok());
  ASSERT_TRUE(view_b.ok());
  ExpectBitwiseEqual(view_a.value().probs, view_b.value().probs);
}

TEST_F(SessionManagerTest, ExternalRevalidationCountsAsRepair) {
  SessionManager manager;
  auto corpus = MakeTinyCorpus(27);
  SessionSpec spec = BatchSpec(91, 6);
  spec.user.kind = UserSpec::Kind::kNone;
  auto id = manager.Create(corpus.db, spec);
  ASSERT_TRUE(id.ok());

  // Step 1: answer the top claim WRONGLY (inverted ground truth).
  auto planned = manager.Advance(id.value());
  ASSERT_TRUE(planned.ok());
  ASSERT_TRUE(planned.value().awaiting_answers);
  const ClaimId first = planned.value().candidates.front();
  StepAnswers wrong;
  wrong.claims = {first};
  wrong.answers = {static_cast<uint8_t>(corpus.db.ground_truth(first) ? 0 : 1)};
  ASSERT_TRUE(manager.Answer(id.value(), wrong).ok());

  // Step 2: answer the next claim correctly AND re-validate the first with
  // the corrected verdict — the external analogue of a confirmation repair.
  auto replanned = manager.Advance(id.value());
  ASSERT_TRUE(replanned.ok());
  ASSERT_TRUE(replanned.value().awaiting_answers);
  const ClaimId second = replanned.value().candidates.front();
  StepAnswers repair;
  repair.claims = {second, first};
  repair.answers = {static_cast<uint8_t>(corpus.db.ground_truth(second) ? 1 : 0),
                    static_cast<uint8_t>(corpus.db.ground_truth(first) ? 1 : 0)};
  auto repaired = manager.Answer(id.value(), repair);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired.value().record.repairs, 1u);

  auto outcome = manager.Terminate(id.value());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().mistakes_made, 1u);      // the wrong first answer
  EXPECT_EQ(outcome.value().mistakes_repaired, 1u);  // fixed by re-validation
  EXPECT_EQ(outcome.value().validations, 3u);        // 2 labels + 1 repair
}

TEST_F(SessionManagerTest, BudgetWithoutSpillDirectoryRejectsCreation) {
  SessionManagerOptions options;
  options.memory_budget_bytes = 1;  // nothing fits
  SessionManager manager(options);
  auto corpus = MakeTinyCorpus(26);

  // The first session is kept even though it exceeds the budget (there is
  // nothing to evict but itself).
  auto first = manager.Create(corpus.db, BatchSpec(42, 2));
  ASSERT_TRUE(first.ok()) << first.status();

  // A second session needs an eviction, which needs a spill directory.
  auto second = manager.Create(corpus.db, BatchSpec(43, 2));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(manager.stats().sessions_active, 1u);
}

TEST_F(SessionManagerTest, BudgetWithoutSpillDirectoryRejectsRestore) {
  SessionManagerOptions options;
  options.memory_budget_bytes = 1;  // nothing fits
  SessionManager manager(options);
  auto corpus = MakeTinyCorpus(26);
  auto first = manager.Create(corpus.db, BatchSpec(42, 2));
  ASSERT_TRUE(first.ok()) << first.status();
  const std::string ckpt = dir_ + "/restore_me";
  ASSERT_TRUE(manager.Checkpoint(first.value(), ckpt).ok());

  // Restoring admits a second session, which needs an eviction, which
  // needs a spill directory: refused, and rolled back.
  auto restored = manager.Restore(ckpt);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(manager.stats().sessions_active, 1u);
}

TEST_F(SessionManagerTest, ListSessionsReportsModeResidencyAndSteps) {
  auto corpus = MakeTinyCorpus(10);
  SessionManager manager;
  EXPECT_TRUE(manager.ListSessions().empty());

  auto batch = manager.Create(corpus.db, BatchSpec(1, 3));
  auto streaming = manager.Create(corpus.db, StreamingSpec(2, 3));
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(streaming.ok());

  ASSERT_TRUE(manager.Advance(batch.value()).ok());
  ASSERT_TRUE(manager.Advance(batch.value()).ok());
  ASSERT_TRUE(manager.Advance(streaming.value()).ok());

  auto sessions = manager.ListSessions();
  ASSERT_EQ(sessions.size(), 2u);
  // Id order, metadata per session.
  EXPECT_EQ(sessions[0].id, batch.value());
  EXPECT_EQ(sessions[0].mode, SessionMode::kBatch);
  EXPECT_TRUE(sessions[0].resident);
  EXPECT_EQ(sessions[0].steps_served, 2u);
  EXPECT_GT(sessions[0].footprint_bytes, 0u);
  EXPECT_EQ(sessions[1].id, streaming.value());
  EXPECT_EQ(sessions[1].mode, SessionMode::kStreaming);
  EXPECT_EQ(sessions[1].steps_served, 1u);

  // Termination removes the row.
  ASSERT_TRUE(manager.Terminate(batch.value()).ok());
  sessions = manager.ListSessions();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].id, streaming.value());
}

TEST_F(SessionManagerTest, ServiceStatsCountsStepsAcrossTerminations) {
  auto corpus = MakeTinyCorpus(10);
  SessionManager manager;
  auto a = manager.Create(corpus.db, BatchSpec(1, 3));
  auto b = manager.Create(corpus.db, BatchSpec(2, 3));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(manager.Advance(a.value()).ok());
  ASSERT_TRUE(manager.Advance(b.value()).ok());
  EXPECT_EQ(manager.stats().steps_served, 3u);
  EXPECT_EQ(manager.stats().sessions_spilled, 0u);

  // Steps of a terminated session stay in the aggregate: the counter is a
  // service-lifetime figure, not a sum over live sessions.
  ASSERT_TRUE(manager.Terminate(a.value()).ok());
  ASSERT_TRUE(manager.Advance(b.value()).ok());
  const ServiceStats stats = manager.stats();
  EXPECT_EQ(stats.steps_served, 4u);
  EXPECT_EQ(stats.sessions_created, 2u);
  EXPECT_EQ(stats.sessions_active, 1u);
}

TEST_F(SessionManagerTest, ListSessionsSeesSpilledSessionsWithoutRestoring) {
  auto corpus = MakeTinyCorpus(16);
  size_t one_session_bytes = 0;
  {
    SessionManager probe;
    ASSERT_TRUE(probe.Create(corpus.db, BatchSpec(100, 3)).ok());
    one_session_bytes = probe.stats().resident_bytes;
  }
  SessionManagerOptions options;
  options.memory_budget_bytes = one_session_bytes + one_session_bytes / 2;
  options.spill_directory = dir_;
  SessionManager manager(options);
  std::vector<SessionId> ids;
  for (uint64_t s = 0; s < 3; ++s) {
    auto id = manager.Create(corpus.db, BatchSpec(100 + s, 3));
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(id.value());
    ASSERT_TRUE(manager.Advance(id.value()).ok());
  }
  const ServiceStats before = manager.stats();
  ASSERT_GT(before.sessions_spilled, 0u) << "budget never forced a spill";
  EXPECT_EQ(before.sessions_spilled + before.sessions_resident,
            before.sessions_active);

  // Listing reports every session - including spilled ones - from cached
  // metadata: spill_restores must not move.
  auto sessions = manager.ListSessions();
  ASSERT_EQ(sessions.size(), 3u);
  size_t resident = 0, spilled = 0;
  for (const SessionInfo& info : sessions) {
    EXPECT_EQ(info.steps_served, 1u);
    EXPECT_EQ(info.mode, SessionMode::kBatch);
    (info.resident ? resident : spilled) += 1;
  }
  EXPECT_EQ(resident, before.sessions_resident);
  EXPECT_EQ(spilled, before.sessions_spilled);
  EXPECT_EQ(manager.stats().spill_restores, before.spill_restores)
      << "ListSessions forced a restore";
}

}  // namespace
}  // namespace veritas
