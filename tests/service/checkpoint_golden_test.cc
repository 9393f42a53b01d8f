// Committed v2 checkpoint directories (DESIGN.md §9): loading each one and
// saving it again must reproduce session.bin and every db/ file byte for
// byte. A field dropped from both the writer and the reader still passes a
// save -> load -> save round trip of freshly written bytes; it cannot pass
// this one, because the committed bytes carry the field.

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

  /// Load -> save, then compare every file of the fixture directory.
  void ExpectResavedIdentically(const std::string& name, SessionMode mode) {
    const fs::path fixture = fs::path(VERITAS_SERVICE_TESTDATA) / name;
    auto session = LoadSessionCheckpoint(fixture.string());
    ASSERT_TRUE(session.ok()) << session.status();
    EXPECT_EQ(session.value()->mode(), mode);
    ASSERT_TRUE(SaveSessionCheckpoint(*session.value(), out_).ok());

    size_t compared = 0;
    for (const auto& entry : fs::recursive_directory_iterator(fixture)) {
      if (!entry.is_regular_file()) continue;
      const fs::path rel = fs::relative(entry.path(), fixture);
      EXPECT_EQ(ReadBytes(fs::path(out_) / rel), ReadBytes(entry.path()))
          << name << "/" << rel.string() << " differs after load -> save";
      ++compared;
    }
    // session.bin plus the four database tables.
    EXPECT_EQ(compared, 5u);
    size_t written = 0;
    for (const auto& entry : fs::recursive_directory_iterator(out_)) {
      if (entry.is_regular_file()) ++written;
    }
    EXPECT_EQ(written, compared);
  }

  std::string out_;
};

TEST_F(CheckpointGoldenTest, BatchSessionAwaitingAnswers) {
  ExpectResavedIdentically("batch_awaiting_answers", SessionMode::kBatch);
}

TEST_F(CheckpointGoldenTest, StreamingSessionMidStream) {
  ExpectResavedIdentically("streaming_mid_stream", SessionMode::kStreaming);
}

}  // namespace
}  // namespace veritas
