// Seeded mutation of the checkpoint reader (DESIGN.md §9): both committed
// v6 fixtures are mutated after their 8-byte header (magic and version) by
// byte overwrites, truncations, and duplicated and deleted spans, with
// every choice drawn from CounterUniform (testing/mutation.h), so the run is
// the same on every host. Each mutant gets a fresh trailing checksum, so it
// passes the envelope checks and reaches the field reader, and is loaded.
// None may crash (run it under ASAN/UBSAN). A mutant that loads must then
// serve two advances, answering any plan they leave pending, and a
// grounding; errors are fine, since a well-formed record can still hold a
// state its session refuses.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/hash.h"
#include "data/io.h"
#include "service/checkpoint.h"
#include "testing/mutation.h"

namespace veritas {
namespace {

using testing::Draws;
using testing::Mutate;

namespace fs = std::filesystem;

constexpr uint64_t kSeed = 0xc4ec;
constexpr size_t kMutantsPerFixture = 2000;
constexpr size_t kHeaderBytes = 8;
constexpr size_t kChecksumBytes = 8;

std::string ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// `record` followed by its checksum, as SaveSessionCheckpoint seals it.
std::string Seal(const std::string& record) {
  BinaryWriter checksum;
  checksum.U64(HashBytes(record, /*seed=*/0));
  return record + checksum.buffer();
}

/// Two advances, answering whatever plan each leaves pending, then a
/// grounding. Only a crash or a sanitizer report fails.
void Exercise(Session* session) {
  for (int step = 0; step < 2; ++step) {
    auto advanced = session->Advance();
    if (!advanced.ok() || !advanced.value().awaiting_answers) continue;
    const StepResult& plan = advanced.value();
    StepAnswers answers;
    const size_t count =
        plan.batch ? plan.candidates.size()
                   : std::min<size_t>(1, plan.candidates.size());
    for (size_t i = 0; i < count; ++i) {
      answers.claims.push_back(plan.candidates[i]);
      answers.answers.push_back(static_cast<uint8_t>(i % 2));
    }
    (void)session->Answer(answers);
  }
  (void)session->Ground();
}

class CheckpointMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/veritas_ckpt_mutation_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Loads every mutant of fixture `name` and steps the ones that load;
  /// returns how many loaded.
  size_t MutateFixture(const std::string& name, uint64_t stream) {
    const std::string file = ReadBytes(
        fs::path(VERITAS_SERVICE_TESTDATA) / name / "session.bin");
    EXPECT_GT(file.size(), kHeaderBytes + kChecksumBytes);
    const std::string header = file.substr(0, kHeaderBytes);
    const std::string body = file.substr(
        kHeaderBytes, file.size() - kHeaderBytes - kChecksumBytes);
    Draws draws(kSeed, stream);
    size_t loaded = 0;
    for (size_t m = 0; m < kMutantsPerFixture; ++m) {
      {
        std::ofstream out(dir_ + "/session.bin",
                          std::ios::binary | std::ios::trunc);
        out << Seal(header + Mutate(body, &draws));
      }
      auto session = LoadSessionCheckpoint(dir_);
      if (!session.ok()) continue;
      ++loaded;
      Exercise(session.value().get());
    }
    RecordProperty("loaded", static_cast<int>(loaded));
    return loaded;
  }

  std::string dir_;
};

// Some mutants must load (a flipped weight or probability is still a
// well-formed record), or the stepping half checked nothing.
TEST_F(CheckpointMutationTest, BatchMutantsLoadOrAreRefused) {
  EXPECT_GT(MutateFixture("batch_awaiting_answers", 0), 0u);
}

TEST_F(CheckpointMutationTest, StreamingMutantsLoadOrAreRefused) {
  EXPECT_GT(MutateFixture("streaming_mid_stream", 1), 0u);
}

}  // namespace
}  // namespace veritas
