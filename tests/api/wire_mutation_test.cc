// Seeded mutation of wire frames (DESIGN.md §10): every committed golden
// document and a corpus of request frames is mutated by byte flips,
// truncations, and duplicated and deleted spans, with every choice drawn
// from CounterUniform (testing/mutation.h), so the run is the same on every
// host. Each mutant
// goes through the request and response decoders and through the envelope
// readers the router uses. None may crash (run it under ASAN/UBSAN); every
// mutant that still decodes must re-encode to a fixed point; and the
// router's envelope read must agree with the full decode on every request
// mutant, since the router forwards what the backend then decodes.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/codec.h"
#include "testing/corpus_fixtures.h"
#include "testing/mutation.h"
#include "testing/wire_fixtures.h"

namespace veritas {
namespace {

using testing::Draws;
using testing::Mutate;

constexpr uint64_t kSeed = 0x5eed;
constexpr size_t kMutantsPerFrame = 1000;

std::string ReadFixture(const std::string& name) {
  std::ifstream in(std::string(VERITAS_API_TESTDATA) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::vector<std::string> Corpus() {
  std::vector<std::string> frames;
  for (const char* name :
       {"create_session_request.json",
        "create_session_request_removed_members.json", "error_response.json",
        "ground_response.json", "stats_response.json", "step_response.json",
        "terminate_response.json"}) {
    frames.push_back(ReadFixture(name));
  }
  std::vector<ApiRequest> requests(9);
  requests[0].params = CreateSessionRequest{testing::MakeHandDatabase(),
                                            testing::ExternalAnswerSpec(3, 2)};
  StepAnswers answers;
  answers.claims = {0, 2};
  answers.answers = {1, 0};
  answers.skips = 3;
  requests[1].params = AnswerRequest{7, answers};
  requests[2].params = AdvanceRequest{12345678901234};
  requests[3].params = GroundRequest{1};
  requests[4].params = CheckpointRequest{2, "/ckpt/dir \"quoted\""};
  requests[5].params = RestoreRequest{"/ckpt/dir"};
  requests[6].params = StatsRequest{};
  requests[7].params = TerminateRequest{3};
  requests[8].params = MetricsRequest{};
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].id = i + 1;
    if (i % 2 == 0) requests[i].trace_id = "trace-" + std::to_string(i);
    frames.push_back(EncodeRequest(requests[i]).value());
  }
  return frames;
}

void CheckRequest(const std::string& mutant) {
  uint64_t envelope_id = 0;
  uint64_t decode_id = 0;
  auto envelope = DecodeRequestEnvelope(mutant, &envelope_id);
  auto decoded = DecodeRequest(mutant, &decode_id);
  // The router reads what the backend reads.
  EXPECT_EQ(envelope_id, decode_id) << mutant;
  if (!envelope.ok()) {
    ASSERT_FALSE(decoded.ok()) << mutant;
    EXPECT_EQ(decoded.status(), envelope.status()) << mutant;
    return;
  }
  if (!decoded.ok()) return;  // the payload failed after the envelope read
  EXPECT_EQ(decoded.value().method(), envelope.value().method) << mutant;
  EXPECT_EQ(decoded.value().id, envelope.value().id) << mutant;

  auto encoded = EncodeRequest(decoded.value());
  ASSERT_TRUE(encoded.ok()) << encoded.status() << " for " << mutant;
  auto again = DecodeRequest(encoded.value());
  ASSERT_TRUE(again.ok()) << again.status() << " for " << encoded.value();
  auto fixed = EncodeRequest(again.value());
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(fixed.value(), encoded.value()) << "not a fixed point: " << mutant;
}

void CheckResponse(const std::string& mutant) {
  auto envelope = DecodeResponseEnvelope(mutant);
  auto decoded = DecodeResponse(mutant);
  if (!envelope.ok()) {
    ASSERT_FALSE(decoded.ok()) << mutant;
    EXPECT_EQ(decoded.status(), envelope.status()) << mutant;
    return;
  }
  if (!decoded.ok()) return;
  EXPECT_EQ(IsError(decoded.value()), !envelope.value().ok) << mutant;

  auto encoded = EncodeResponse(decoded.value());
  ASSERT_TRUE(encoded.ok()) << encoded.status() << " for " << mutant;
  auto again = DecodeResponse(encoded.value());
  ASSERT_TRUE(again.ok()) << again.status() << " for " << encoded.value();
  auto fixed = EncodeResponse(again.value());
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(fixed.value(), encoded.value()) << "not a fixed point: " << mutant;
}

TEST(WireMutationTest, MutantsDecodeToAValueOrAStatus) {
  const std::vector<std::string> corpus = Corpus();
  size_t decoded = 0;
  for (size_t f = 0; f < corpus.size(); ++f) {
    Draws draws(kSeed, f);
    for (size_t m = 0; m < kMutantsPerFrame; ++m) {
      const std::string mutant = Mutate(corpus[f], &draws);
      CheckRequest(mutant);
      CheckResponse(mutant);
      if (DecodeRequest(mutant).ok() || DecodeResponse(mutant).ok()) {
        ++decoded;
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // Some mutants must survive, or the fixed-point half checked nothing.
  EXPECT_GT(decoded, corpus.size());
}

TEST(WireMutationTest, UnmutatedCorpusRoundTrips) {
  for (const std::string& frame : Corpus()) {
    if (DecodeRequest(frame).ok()) {
      CheckRequest(frame);
    } else {
      ASSERT_TRUE(DecodeResponse(frame).ok()) << frame;
      CheckResponse(frame);
    }
  }
}

}  // namespace
}  // namespace veritas
