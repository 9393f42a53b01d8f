// Exact-bytes fixtures of the wire protocol (DESIGN.md §10). Each
// hand-built message below must encode to its committed document in
// testdata/ byte for byte, and decoding that document and encoding it again
// must reproduce it. The round-trip suite only checks that re-encoding is a
// fixed point, which a field dropped from BOTH the encoder and the decoder
// passes; a fixture cannot be passed that way. Every option of the spec is
// set to a non-default value, so a decoder that skips a field re-encodes
// the default and fails too.

#include "api/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

namespace veritas {
namespace {

std::string ReadFixture(const std::string& name) {
  std::ifstream in(std::string(VERITAS_API_TESTDATA) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void ExpectRequestFixture(const ApiRequest& request, const std::string& name) {
  auto encoded = EncodeRequest(request);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  const std::string fixture = ReadFixture(name);
  EXPECT_EQ(encoded.value(), fixture) << name << ": encoding drifted";
  auto decoded = DecodeRequest(fixture);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  auto again = EncodeRequest(decoded.value());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again.value(), fixture) << name << ": decode -> encode drifted";
}

void ExpectResponseFixture(const ApiResponse& response,
                           const std::string& name) {
  auto encoded = EncodeResponse(response);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  const std::string fixture = ReadFixture(name);
  EXPECT_EQ(encoded.value(), fixture) << name << ": encoding drifted";
  auto decoded = DecodeResponse(fixture);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  auto again = EncodeResponse(decoded.value());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again.value(), fixture) << name << ": decode -> encode drifted";
}

// ---- hand-built messages ---------------------------------------------------

FactDatabase TinyDatabase() {
  FactDatabase db;
  db.AddSource({"wire \"desk\"", {0.75, 1.0 / 3.0}});
  db.AddSource({"blog\ttab", {0.125, -2.5}});
  db.AddDocument({0, {0.5, 0.1, 1e-300}});
  db.AddDocument({1, {-0.0, 2.0, 0.3}});
  db.AddClaim({"the \"moon\" is\tmade\nof\x01 cheese\x1f"});
  db.AddClaim({"water is wet"});
  db.AddClaim({"back\\slash\rreturn"});
  EXPECT_TRUE(db.AddMention(0, 0, Stance::kSupport).ok());
  EXPECT_TRUE(db.AddMention(1, 0, Stance::kRefute).ok());
  EXPECT_TRUE(db.AddMention(1, 2, Stance::kSupport).ok());
  db.SetGroundTruth(0, false);
  db.SetGroundTruth(1, true);
  return db;
}

/// Every member differs from its default; `k` keeps the validation and
/// streaming copies apart.
ICrfOptions NonDefaultIcrf(size_t k) {
  ICrfOptions o;
  o.crf.l2_lambda = 1.5 + k;
  o.crf.coupling = 0.625 + k;
  o.crf.prior_weight = 0.375 + k;
  o.crf.prior_clamp = 0.0625 + k;
  o.crf.labeled_weight = 6.5 + k;
  o.crf.unlabeled_weight_floor = 0.015625 + k;
  o.crf.unlabeled_confidence_scale = 0.1 + k;
  o.crf.unlabeled_mass_cap_ratio = 2.75 + k;
  o.crf.max_pairs_per_source = 300 + k;
  o.gibbs = GibbsOptions{20 + k, 60 + k, 2 + k, 3 + k};
  o.hypothetical_gibbs = GibbsOptions{10 + k, 30 + k, 4 + k, 5 + k};
  o.tron.max_iterations = 70 + k;
  o.tron.gradient_tolerance = 1e-6 * static_cast<double>(k);
  o.tron.initial_radius = 0.5 + k;
  o.tron.cg_max_iterations = 40 + k;
  o.tron.cg_tolerance = 0.2 + k;
  o.tron.eta0 = 1e-3 * static_cast<double>(k);
  o.tron.eta1 = 0.3 + k;
  o.tron.eta2 = 0.8 + k;
  o.tron.sigma1 = 0.2 + k;
  o.tron.sigma2 = 0.6 + k;
  o.tron.sigma3 = 5.0 + k;
  o.max_em_iterations = 6 + k;
  o.em_tolerance = 1e-2 * static_cast<double>(k);
  o.fit_weights = false;
  o.backend = k == 1 ? CrfBackend::kDispatch : CrfBackend::kChromatic;
  return o;
}

SessionSpec EveryOptionSet() {
  SessionSpec spec;
  spec.mode = SessionMode::kStreaming;
  spec.user.kind = UserSpec::Kind::kSkipping;
  spec.user.rate = 0.125;
  spec.user.seed = 18446744073709551615ull;
  spec.user.latency_ms = 2.5;
  spec.streaming_label_interval = 3;

  ValidationOptions& v = spec.validation;
  v.icrf = NonDefaultIcrf(1);
  v.guidance.variant = GuidanceVariant::kOrigin;
  v.guidance.candidate_pool = 65;
  v.guidance.neighborhood_radius = 3;
  v.guidance.neighborhood_cap = 129;
  v.guidance.num_threads = 2;
  v.guidance.max_enumeration_claims = 17;
  v.guidance.seed = 9007199254740993ull;
  v.guidance.fanout = FanoutKernel::kPerCandidate;
  v.guidance.fanout_base_sweeps = 5;
  v.guidance.fanout_burn_in = 6;
  v.guidance.fanout_samples = 9;
  v.strategy = StrategyKind::kInfoGain;
  v.budget = 12;
  v.target_precision = 0.95;
  v.batch_size = 2;
  v.batch_benefit_weight = 0.5;
  v.confirmation_interval = 4;
  v.termination.enable_urr = true;
  v.termination.urr_threshold = 0.25;
  v.termination.urr_patience = 4;
  v.termination.enable_cng = true;
  v.termination.cng_threshold = 0.02;
  v.termination.cng_patience = 5;
  v.termination.enable_pre = true;
  v.termination.pre_streak = 11;
  v.termination.enable_pir = true;
  v.termination.pir_threshold = 0.03;
  v.termination.pir_folds = 6;
  v.termination.pir_interval = 12;
  v.termination.pir_patience = 7;
  v.exact_entropy_trace = true;
  v.seed = 43;

  StreamingOptions& s = spec.streaming;
  s.icrf = NonDefaultIcrf(2);
  s.step_a = 1.25;
  s.step_t0 = 3.0;
  s.step_kappa = 0.6;
  s.window_cap = 4097;
  s.tron_iterations_per_arrival = 8;
  s.seed = 100;
  return spec;
}

IterationRecord Record(size_t iteration) {
  IterationRecord record;
  record.iteration = iteration;
  record.claims = {static_cast<ClaimId>(iteration), 4294967295u};
  record.answers = {1, 0};
  record.seconds = 0.001953125 * static_cast<double>(iteration);
  record.entropy = 1.0 / 3.0 + static_cast<double>(iteration);
  record.precision = 0.6;
  record.effort = 0.2 * static_cast<double>(iteration);
  record.error_rate = 0.1;
  record.z_score = -0.0;
  record.unreliable_ratio = 5e-324;
  record.repairs = iteration + 1;
  record.skips = 2;
  record.flagged = {3};
  record.prediction_matched = false;
  record.urr = 0.7;
  record.cng = 0.05;
  record.pre_streak = iteration + 3;
  record.pir = 1e300;
  return record;
}

// ---- the fixtures ----------------------------------------------------------

TEST(CodecGoldenTest, CreateSessionRequest) {
  ApiRequest request;
  request.id = 7;
  request.trace_id = "trace \"golden\"\t1";
  request.params = CreateSessionRequest{TinyDatabase(), EveryOptionSet()};
  ExpectRequestFixture(request, "create_session_request.json");
}

TEST(CodecGoldenTest, StepResponse) {
  StepResult step;
  step.done = true;
  step.stop_reason = "budget \"spent\"";
  step.awaiting_answers = true;
  step.candidates = {5, 2, 4294967295u};
  step.batch = true;
  step.iteration_completed = true;
  step.record = Record(3);
  step.arrival_processed = true;
  step.arrival.claim = 7;
  step.arrival.update_seconds = 0.00125;
  step.arrival.initial_prob = 1.0 / 3.0;
  ApiResponse response;
  response.id = 8;
  response.trace_id = "t-8";
  response.result = StepResponse{step};
  ExpectResponseFixture(response, "step_response.json");
}

TEST(CodecGoldenTest, GroundResponse) {
  GroundingView view;
  view.grounding = {1, 0, 1};
  view.probs = {1.0, 0.25, 1.0 / 3.0};
  view.precision = 0.5;
  view.labeled = 2;
  view.num_claims = 3;
  ApiResponse response;
  response.id = 9;
  response.result = GroundResponse{view};
  ExpectResponseFixture(response, "ground_response.json");
}

TEST(CodecGoldenTest, StatsResponse) {
  StatsResponse stats;
  stats.stats.sessions_created = 11;
  stats.stats.sessions_active = 7;
  stats.stats.sessions_resident = 5;
  stats.stats.sessions_spilled = 2;
  stats.stats.evictions = 3;
  stats.stats.spill_restores = 1;
  stats.stats.resident_bytes = 4096;
  stats.stats.steps_served = 99;
  stats.stats.spill_bytes = 1234567;
  stats.stats.peak_resident_bytes = 18446744073709551615ull;
  SessionInfo batch;
  batch.id = 4;
  batch.mode = SessionMode::kBatch;
  batch.resident = true;
  batch.steps_served = 12;
  batch.footprint_bytes = 2048;
  SessionInfo streaming;
  streaming.id = 5;
  streaming.mode = SessionMode::kStreaming;
  streaming.resident = false;
  streaming.steps_served = 3;
  streaming.footprint_bytes = 0;
  stats.sessions = {batch, streaming};
  ApiResponse response;
  response.id = 10;
  response.result = std::move(stats);
  ExpectResponseFixture(response, "stats_response.json");
}

TEST(CodecGoldenTest, TerminateResponse) {
  ValidationOutcome outcome;
  outcome.state = BeliefState(4);
  outcome.state.SetLabel(1, true);
  outcome.state.SetLabel(3, false);
  outcome.state.set_prob(0, 0.875);
  outcome.state.set_prob(2, 1.0 / 3.0);
  outcome.grounding = {1, 1, 0, 0};
  outcome.trace = {Record(1), Record(2)};
  outcome.validations = 5;
  outcome.mistakes_made = 3;
  outcome.mistakes_detected = 2;
  outcome.mistakes_repaired = 1;
  outcome.stop_reason = "goal\treached";
  outcome.initial_precision = 0.25;
  outcome.final_precision = 0.75;
  ApiResponse response;
  response.id = 11;
  response.result = TerminateResponse{outcome};
  ExpectResponseFixture(response, "terminate_response.json");
}

TEST(CodecGoldenTest, ErrorResponse) {
  ApiResponse response =
      MakeErrorResponse(12, Status::NotFound("session 9 \"gone\"\n"));
  response.trace_id = "t-12";
  ExpectResponseFixture(response, "error_response.json");
}

}  // namespace
}  // namespace veritas
