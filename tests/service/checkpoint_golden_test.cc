// Committed checkpoint files (DESIGN.md §9): loading each v6 fixture and
// saving it again must reproduce session.bin byte for byte, as the only
// file in the directory. A field dropped from both the writer and the
// reader still passes a save -> load -> save round trip of freshly written
// bytes; it cannot pass this one, because the committed bytes carry the
// field. The v2 to v5 fixtures under v2/ to v5/ are kept as inputs: there
// is no reader for any of them, so each must be refused by the version
// check.

#include "service/checkpoint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace veritas {
namespace {

namespace fs = std::filesystem;

std::string ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

class CheckpointGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    out_ = ::testing::TempDir() + "/veritas_ckpt_golden_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(out_, ec);
  }

  /// Load -> save, then compare the one file of the fixture directory.
  void ExpectResavedIdentically(const std::string& name, SessionMode mode) {
    const fs::path fixture = fs::path(VERITAS_SERVICE_TESTDATA) / name;
    auto session = LoadSessionCheckpoint(fixture.string());
    ASSERT_TRUE(session.ok()) << session.status();
    EXPECT_EQ(session.value()->mode(), mode);
    ASSERT_TRUE(SaveSessionCheckpoint(*session.value(), out_).ok());

    size_t written = 0;
    for (const auto& entry : fs::recursive_directory_iterator(out_)) {
      EXPECT_EQ(entry.path().filename(), "session.bin");
      ++written;
    }
    EXPECT_EQ(written, 1u);
    EXPECT_EQ(ReadBytes(fs::path(out_) / "session.bin"),
              ReadBytes(fixture / "session.bin"))
        << name << "/session.bin differs after load -> save";
  }

  static void ExpectOldVersionRejected(int version, const std::string& name) {
    const std::string tag = std::to_string(version);
    const fs::path fixture =
        fs::path(VERITAS_SERVICE_TESTDATA) / ("v" + tag) / name;
    ASSERT_TRUE(fs::exists(fixture / "session.bin"));
    auto session = LoadSessionCheckpoint(fixture.string());
    ASSERT_FALSE(session.ok());
    EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(session.status().message().find(
                  "unsupported checkpoint version " + tag),
              std::string::npos)
        << session.status();
  }

  std::string out_;
};

TEST_F(CheckpointGoldenTest, BatchSessionAwaitingAnswers) {
  ExpectResavedIdentically("batch_awaiting_answers", SessionMode::kBatch);
}

TEST_F(CheckpointGoldenTest, StreamingSessionMidStream) {
  ExpectResavedIdentically("streaming_mid_stream", SessionMode::kStreaming);
}

TEST_F(CheckpointGoldenTest, Version2CheckpointsAreRejected) {
  ExpectOldVersionRejected(2, "batch_awaiting_answers");
  ExpectOldVersionRejected(2, "streaming_mid_stream");
}

TEST_F(CheckpointGoldenTest, Version3CheckpointsAreRejected) {
  // v3 stored the backend as an index into the six-value spelling table; a
  // v3 byte 3 (`exact`) would read as today's `dispatch`.
  ExpectOldVersionRejected(3, "batch_awaiting_answers");
  ExpectOldVersionRejected(3, "streaming_mid_stream");
}

TEST_F(CheckpointGoldenTest, Version4CheckpointsAreRejected) {
  // v4 specs carried thread counts, TRON constants and three guidance and
  // trace knobs; read as v5, their slots would shift every later field.
  ExpectOldVersionRejected(4, "batch_awaiting_answers");
  ExpectOldVersionRejected(4, "streaming_mid_stream");
}

TEST_F(CheckpointGoldenTest, Version5CheckpointsAreRejected) {
  // v5 specs carried 27 more eight-byte slots (the model, neighborhood,
  // batch-weight and step-schedule values that became constants); read as
  // v6, every field after the first of them would shift.
  ExpectOldVersionRejected(5, "batch_awaiting_answers");
  ExpectOldVersionRejected(5, "streaming_mid_stream");
}

}  // namespace
}  // namespace veritas
