#include "service/checkpoint.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "data/io.h"
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

  static std::string ReadAll(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  /// Appends the trailing checksum to a patched record, so the patch gets
  /// past the envelope checks to the reader check it targets.
  static std::string Seal(const std::string& body) {
    BinaryWriter checksum;
    checksum.U64(HashBytes(body, /*seed=*/0));
    return body + checksum.buffer();
  }

  /// Flips the low bit of every byte of dir_/session.bin in turn, then
  /// truncates it to every shorter length: each variant must be rejected
  /// with kInvalidArgument by the envelope checks.
  void ExpectEveryFlipAndTruncationRejected() {
    const std::string path = dir_ + "/session.bin";
    const std::string bytes = ReadAll(path);
    ASSERT_FALSE(bytes.empty());
    {
      std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(file.good());
      for (size_t i = 0; i < bytes.size(); ++i) {
        file.seekp(static_cast<std::streamoff>(i));
        file.put(static_cast<char>(bytes[i] ^ 0x01)).flush();
        auto loaded = LoadSessionCheckpoint(dir_);
        ASSERT_FALSE(loaded.ok()) << "flipped byte " << i << " loaded";
        ASSERT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
            << "byte " << i << ": " << loaded.status();
        file.seekp(static_cast<std::streamoff>(i));
        file.put(bytes[i]).flush();
      }
    }
    ASSERT_TRUE(LoadSessionCheckpoint(dir_).ok());
    for (size_t size = bytes.size(); size-- > 0;) {
      std::filesystem::resize_file(path, size);
      auto loaded = LoadSessionCheckpoint(dir_);
      ASSERT_FALSE(loaded.ok()) << "truncation to " << size << " loaded";
      ASSERT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
          << "truncation to " << size << ": " << loaded.status();
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

// Regression: the v1 layout silently dropped the CRF backend selector and
// the guidance fan-out kernel + schedule, so restored sessions quietly
// reverted those knobs to defaults (a different kernel than the one
// checkpointed under). Since v2 the record persists all of them.
TEST_F(CheckpointTest, PreviouslyDroppedOptionFieldsSurviveRestore) {
  auto corpus = MakeTinyCorpus(19);
  SessionSpec spec = BatchSpec(91, 2);
  spec.validation.icrf.backend = CrfBackend::kDispatch;
  spec.validation.guidance.fanout = FanoutKernel::kPerCandidate;
  spec.validation.guidance.fanout_burn_in = 5;
  spec.validation.guidance.fanout_samples = 17;
  auto session = Session::Create(corpus.db, spec);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Advance().ok());
  ASSERT_TRUE(SaveSessionCheckpoint(*session.value(), dir_).ok());

  auto restored = LoadSessionCheckpoint(dir_);
  ASSERT_TRUE(restored.ok()) << restored.status();
  const SessionSpec& got = restored.value()->spec();
  EXPECT_EQ(got.validation.icrf.backend, CrfBackend::kDispatch);
  EXPECT_EQ(got.validation.guidance.fanout, FanoutKernel::kPerCandidate);
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
  const std::string bytes = ReadAll(path);

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

  // The record without its checksum, for the patches below to re-seal.
  const std::string record = bytes.substr(0, bytes.size() - 8);
  {  // one byte past a valid record: a writer/reader layout mismatch
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << Seal(record + '\0');
  }
  auto trailing = LoadSessionCheckpoint(dir_);
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(trailing.status().message().find("trailing bytes"),
            std::string::npos)
      << trailing.status();

  {  // out-of-range enum: the session mode byte follows magic and version
    std::string patched = record;
    patched[8] = 7;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << Seal(patched);
  }
  auto bad_enum = LoadSessionCheckpoint(dir_);
  ASSERT_FALSE(bad_enum.ok());
  EXPECT_EQ(bad_enum.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_enum.status().message().find("enum value 7"),
            std::string::npos)
      << bad_enum.status();

  auto missing = LoadSessionCheckpoint(dir_ + "/nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// Format v3 is checked as a whole before any field is parsed, so a flipped
// bit or a torn write anywhere in the file is refused instead of restoring
// a session with corrupt state.
TEST_F(CheckpointTest, EveryFlipAndTruncationIsRejected) {
  auto corpus = MakeTinyCorpus(17, 8);
  auto batch = Session::Create(corpus.db, BatchSpec(81, 3));
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(batch.value()->Advance().ok());
  ASSERT_TRUE(SaveSessionCheckpoint(*batch.value(), dir_).ok());
  ExpectEveryFlipAndTruncationRejected();

  auto streaming = Session::Create(corpus.db, StreamingSpec(83, 2));
  ASSERT_TRUE(streaming.ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(streaming.value()->Advance().ok());
  ASSERT_TRUE(SaveSessionCheckpoint(*streaming.value(), dir_).ok());
  ExpectEveryFlipAndTruncationRejected();
}

// A save killed after writing part of session.bin.tmp leaves the previous
// checkpoint in place: it still loads, and the next save replaces both.
TEST_F(CheckpointTest, PartialTempFileLeavesPreviousCheckpointWhole) {
  auto corpus = MakeTinyCorpus(18);
  auto session = Session::Create(corpus.db, BatchSpec(85, 4));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Advance().ok());
  ASSERT_TRUE(SaveSessionCheckpoint(*session.value(), dir_).ok());
  const std::string saved = ReadAll(dir_ + "/session.bin");

  ASSERT_TRUE(session.value()->Advance().ok());
  {  // the next save died half-way through its temp file
    std::ofstream partial(dir_ + "/session.bin.tmp", std::ios::binary);
    partial << saved.substr(0, saved.size() / 2);
  }
  auto restored = LoadSessionCheckpoint(dir_);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value()->steps_served(), 1u);

  ASSERT_TRUE(SaveSessionCheckpoint(*session.value(), dir_).ok());
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"session.bin"});
  auto latest = LoadSessionCheckpoint(dir_);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest.value()->steps_served(), 2u);
}

}  // namespace
}  // namespace veritas
