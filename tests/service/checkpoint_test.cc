#include "service/checkpoint.h"

#include <cstring>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "service/service_fixtures.h"

namespace veritas {
namespace {

using testing::BatchSpec;
using testing::MakeTinyCorpus;
using testing::StreamingSpec;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/veritas_ckpt_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
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

TEST_F(CheckpointTest, BatchRoundTripRestoresExactPosterior) {
  auto corpus = MakeTinyCorpus(11);
  auto session = Session::Create(corpus.db, BatchSpec(21, 3));
  ASSERT_TRUE(session.ok());
  Session& live = *session.value();
  for (int i = 0; i < 3; ++i) {
    auto step = live.Advance();
    ASSERT_TRUE(step.ok()) << step.status();
  }
  ASSERT_TRUE(SaveSessionCheckpoint(live, dir_).ok());

  auto restored = LoadSessionCheckpoint(dir_);
  ASSERT_TRUE(restored.ok()) << restored.status();
  auto live_view = live.Ground();
  auto restored_view = restored.value()->Ground();
  ASSERT_TRUE(live_view.ok());
  ASSERT_TRUE(restored_view.ok());
  ExpectBitwiseEqual(live_view.value().probs, restored_view.value().probs);
  EXPECT_EQ(live_view.value().grounding, restored_view.value().grounding);
  EXPECT_EQ(live_view.value().labeled, restored_view.value().labeled);
  EXPECT_EQ(restored.value()->steps_served(), live.steps_served());
}

// The headline guarantee: checkpoint/restore in the middle of a run changes
// NOTHING about the remaining trajectory. The erroneous user, the hybrid
// strategy's roulette stream, the Gibbs chains and the confirmation check
// all continue bit-for-bit.
TEST_F(CheckpointTest, RestoreThenContinueEqualsUninterruptedRun) {
  auto corpus = MakeTinyCorpus(12);
  SessionSpec spec = BatchSpec(31, 10);
  spec.validation.strategy = StrategyKind::kHybrid;
  spec.validation.confirmation_interval = 3;
  spec.user.kind = UserSpec::Kind::kErroneous;
  spec.user.rate = 0.3;
  spec.user.seed = 5;

  // Uninterrupted reference run: 3 + 5 steps.
  auto reference = Session::Create(corpus.db, spec);
  ASSERT_TRUE(reference.ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(reference.value()->Advance().ok());

  // Interrupted run: same first 3 steps, checkpoint, drop the live object.
  auto interrupted = Session::Create(corpus.db, spec);
  ASSERT_TRUE(interrupted.ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(interrupted.value()->Advance().ok());
  ASSERT_TRUE(SaveSessionCheckpoint(*interrupted.value(), dir_).ok());
  interrupted.value().reset();

  auto restored = LoadSessionCheckpoint(dir_);
  ASSERT_TRUE(restored.ok()) << restored.status();

  for (int i = 0; i < 5; ++i) {
    auto ref_step = reference.value()->Advance();
    auto res_step = restored.value()->Advance();
    ASSERT_TRUE(ref_step.ok());
    ASSERT_TRUE(res_step.ok());
    ASSERT_EQ(ref_step.value().done, res_step.value().done);
    ASSERT_EQ(ref_step.value().record.claims, res_step.value().record.claims);
    ASSERT_EQ(ref_step.value().record.answers, res_step.value().record.answers);
  }
  auto ref_view = reference.value()->Ground();
  auto res_view = restored.value()->Ground();
  ASSERT_TRUE(ref_view.ok());
  ASSERT_TRUE(res_view.ok());
  ExpectBitwiseEqual(ref_view.value().probs, res_view.value().probs);
  EXPECT_EQ(ref_view.value().grounding, res_view.value().grounding);

  auto ref_outcome = reference.value()->Finalize();
  auto res_outcome = restored.value()->Finalize();
  ASSERT_TRUE(ref_outcome.ok());
  ASSERT_TRUE(res_outcome.ok());
  EXPECT_EQ(ref_outcome.value().validations, res_outcome.value().validations);
  EXPECT_EQ(ref_outcome.value().mistakes_made, res_outcome.value().mistakes_made);
  EXPECT_EQ(ref_outcome.value().trace.size(), res_outcome.value().trace.size());
}

TEST_F(CheckpointTest, StreamingRestoreThenContinueEqualsUninterrupted) {
  auto corpus = MakeTinyCorpus(13, 16);
  const SessionSpec spec = StreamingSpec(77, 2);

  auto reference = Session::Create(corpus.db, spec);
  ASSERT_TRUE(reference.ok());
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(reference.value()->Advance().ok());

  auto interrupted = Session::Create(corpus.db, spec);
  ASSERT_TRUE(interrupted.ok());
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(interrupted.value()->Advance().ok());
  ASSERT_TRUE(SaveSessionCheckpoint(*interrupted.value(), dir_).ok());
  interrupted.value().reset();

  auto restored = LoadSessionCheckpoint(dir_);
  ASSERT_TRUE(restored.ok()) << restored.status();

  // Drain the remaining arrivals on both; they must stay in lockstep.
  for (;;) {
    auto ref_step = reference.value()->Advance();
    auto res_step = restored.value()->Advance();
    ASSERT_TRUE(ref_step.ok()) << ref_step.status();
    ASSERT_TRUE(res_step.ok()) << res_step.status();
    ASSERT_EQ(ref_step.value().done, res_step.value().done);
    if (ref_step.value().done) break;
    uint64_t bits_ref = 0, bits_res = 0;
    std::memcpy(&bits_ref, &ref_step.value().arrival.initial_prob, 8);
    std::memcpy(&bits_res, &res_step.value().arrival.initial_prob, 8);
    ASSERT_EQ(bits_ref, bits_res);
  }
  auto ref_view = reference.value()->Ground();
  auto res_view = restored.value()->Ground();
  ASSERT_TRUE(ref_view.ok());
  ASSERT_TRUE(res_view.ok());
  ExpectBitwiseEqual(ref_view.value().probs, res_view.value().probs);
}

TEST_F(CheckpointTest, PendingExternalPlanSurvivesRoundTrip) {
  auto corpus = MakeTinyCorpus(14);
  SessionSpec spec = BatchSpec(51, 6);
  spec.user.kind = UserSpec::Kind::kNone;  // answers come from outside

  auto session = Session::Create(corpus.db, spec);
  ASSERT_TRUE(session.ok());
  auto planned = session.value()->Advance();
  ASSERT_TRUE(planned.ok());
  ASSERT_TRUE(planned.value().awaiting_answers);
  ASSERT_FALSE(planned.value().candidates.empty());

  ASSERT_TRUE(SaveSessionCheckpoint(*session.value(), dir_).ok());
  auto restored = LoadSessionCheckpoint(dir_);
  ASSERT_TRUE(restored.ok()) << restored.status();

  // The restored session still awaits the same candidates...
  auto replanned = restored.value()->Advance();
  ASSERT_TRUE(replanned.ok());
  ASSERT_TRUE(replanned.value().awaiting_answers);
  EXPECT_EQ(replanned.value().candidates, planned.value().candidates);

  // ...and answering produces the same iteration on both.
  StepAnswers answers;
  answers.claims = {planned.value().candidates.front()};
  answers.answers = {1};
  auto live_done = session.value()->Answer(answers);
  auto restored_done = restored.value()->Answer(answers);
  ASSERT_TRUE(live_done.ok());
  ASSERT_TRUE(restored_done.ok());
  auto live_view = session.value()->Ground();
  auto restored_view = restored.value()->Ground();
  ASSERT_TRUE(live_view.ok());
  ASSERT_TRUE(restored_view.ok());
  ExpectBitwiseEqual(live_view.value().probs, restored_view.value().probs);
}

// Regression: the v1 layout silently dropped gibbs.num_threads, the two CRF
// backend selectors and the guidance fan-out kernel + schedule, so restored
// sessions quietly reverted those knobs to defaults (a different kernel than
// the one checkpointed under). v2 persists all of them.
TEST_F(CheckpointTest, PreviouslyDroppedOptionFieldsSurviveRestore) {
  auto corpus = MakeTinyCorpus(19);
  SessionSpec spec = BatchSpec(91, 2);
  spec.validation.icrf.gibbs.num_threads = 4;
  spec.validation.icrf.hypothetical_gibbs.num_threads = 2;
  spec.validation.icrf.backend = CrfBackend::kDispatch;
  spec.validation.icrf.hypothetical_backend = CrfBackend::kMeanField;
  spec.validation.guidance.fanout = FanoutKernel::kPerCandidate;
  spec.validation.guidance.fanout_base_sweeps = 9;
  spec.validation.guidance.fanout_burn_in = 5;
  spec.validation.guidance.fanout_samples = 17;
  auto session = Session::Create(corpus.db, spec);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Advance().ok());
  ASSERT_TRUE(SaveSessionCheckpoint(*session.value(), dir_).ok());

  auto restored = LoadSessionCheckpoint(dir_);
  ASSERT_TRUE(restored.ok()) << restored.status();
  const SessionSpec& got = restored.value()->spec();
  EXPECT_EQ(got.validation.icrf.gibbs.num_threads, 4u);
  EXPECT_EQ(got.validation.icrf.hypothetical_gibbs.num_threads, 2u);
  EXPECT_EQ(got.validation.icrf.backend, CrfBackend::kDispatch);
  EXPECT_EQ(got.validation.icrf.hypothetical_backend, CrfBackend::kMeanField);
  EXPECT_EQ(got.validation.guidance.fanout, FanoutKernel::kPerCandidate);
  EXPECT_EQ(got.validation.guidance.fanout_base_sweeps, 9u);
  EXPECT_EQ(got.validation.guidance.fanout_burn_in, 5u);
  EXPECT_EQ(got.validation.guidance.fanout_samples, 17u);
}

TEST_F(CheckpointTest, UnsupportedVersionIsRejected) {
  auto corpus = MakeTinyCorpus(15);
  auto session = Session::Create(corpus.db, BatchSpec(61, 2));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(SaveSessionCheckpoint(*session.value(), dir_).ok());

  // Patch the version field (bytes 4..7, little endian) to a future one.
  const std::string path = dir_ + "/session.bin";
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  file.seekp(4);
  const uint32_t future = kCheckpointVersion + 9;
  file.write(reinterpret_cast<const char*>(&future), 4);
  file.close();

  auto restored = LoadSessionCheckpoint(dir_);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, BadMagicAndTruncationAreRejectedNotCrashes) {
  auto corpus = MakeTinyCorpus(16);
  auto session = Session::Create(corpus.db, BatchSpec(71, 2));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Advance().ok());
  ASSERT_TRUE(SaveSessionCheckpoint(*session.value(), dir_).ok());

  const std::string path = dir_ + "/session.bin";
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  {  // corrupt magic
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "XXXX" << bytes.substr(4);
  }
  auto bad_magic = LoadSessionCheckpoint(dir_);
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_EQ(bad_magic.status().code(), StatusCode::kInvalidArgument);

  {  // truncate to half
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() / 2);
  }
  auto truncated = LoadSessionCheckpoint(dir_);
  ASSERT_FALSE(truncated.ok());

  {  // one byte past a valid record: a writer/reader layout mismatch
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes << '\0';
  }
  auto trailing = LoadSessionCheckpoint(dir_);
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().code(), StatusCode::kInvalidArgument);

  {  // out-of-range enum: the session mode byte follows magic and version
    std::string patched = bytes;
    patched[8] = 7;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << patched;
  }
  auto bad_enum = LoadSessionCheckpoint(dir_);
  ASSERT_FALSE(bad_enum.ok());
  EXPECT_EQ(bad_enum.status().code(), StatusCode::kInvalidArgument);

  auto missing = LoadSessionCheckpoint(dir_ + "/nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace veritas
