// Round-trip property tests of the wire codec (DESIGN.md §10): every
// message encodes to JSON and decodes back FIELD-IDENTICAL — 64-bit seeds,
// SIZE_MAX budgets, max_digits10 doubles, and free text full of tabs,
// quotes, newlines and raw control bytes included. Re-encoding the decoded
// message must reproduce the exact same document (a fixed point), which is
// what makes the codec's losslessness testable without golden files.

#include "api/codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/rng.h"
#include "obs/metrics.h"
#include "testing/corpus_fixtures.h"

namespace veritas {
namespace {

// ---- randomized message generators -----------------------------------------

std::string NastyText(Rng* rng) {
  static const char* kPieces[] = {
      "plain",  "tab\t",    "quote\"", "back\\slash", "new\nline",
      "ret\r",  "ctrl\x01", "{json}",  "[\"array\"]", "\xc3\xa9\xe2\x82\xac",
      "a:b,c.", "",
  };
  std::string text;
  const size_t pieces = rng->UniformInt(5);
  for (size_t i = 0; i < pieces; ++i) {
    text += kPieces[rng->UniformInt(sizeof(kPieces) / sizeof(kPieces[0]))];
  }
  return text;
}

double AnyFinite(Rng* rng) {
  switch (rng->UniformInt(6)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return 5e-324;  // smallest denormal
    case 3: return -1.7976931348623157e308;
    case 4: return rng->Normal(0.0, 1e9);
    default: return rng->Uniform(-1.0, 1.0);
  }
}

size_t AnySize(Rng* rng) {
  switch (rng->UniformInt(4)) {
    case 0: return 0;
    case 1: return SIZE_MAX;
    case 2: return static_cast<size_t>(rng->NextU64());
    default: return rng->UniformInt(1000);
  }
}

SessionSpec RandomSpec(Rng* rng) {
  SessionSpec spec;
  spec.mode = rng->Bernoulli(0.5) ? SessionMode::kBatch : SessionMode::kStreaming;
  spec.user.kind = static_cast<UserSpec::Kind>(rng->UniformInt(4));
  spec.user.rate = AnyFinite(rng);
  spec.user.seed = rng->NextU64();
  spec.user.latency_ms = AnyFinite(rng);
  spec.streaming_label_interval = AnySize(rng);
  ValidationOptions& v = spec.validation;
  v.strategy = static_cast<StrategyKind>(rng->UniformInt(5));
  v.budget = AnySize(rng);
  v.target_precision = AnyFinite(rng);
  v.batch_size = AnySize(rng);
  v.batch_benefit_weight = AnyFinite(rng);
  v.confirmation_interval = AnySize(rng);
  v.seed = rng->NextU64();
  v.guidance.variant = static_cast<GuidanceVariant>(rng->UniformInt(3));
  v.guidance.candidate_pool = AnySize(rng);
  v.guidance.neighborhood_radius = AnySize(rng);
  v.guidance.neighborhood_cap = AnySize(rng);
  v.guidance.seed = rng->NextU64();
  v.guidance.fanout = rng->Bernoulli(0.5) ? FanoutKernel::kBatched
                                          : FanoutKernel::kPerCandidate;
  v.guidance.fanout_burn_in = AnySize(rng);
  v.guidance.fanout_samples = AnySize(rng);
  v.termination.enable_urr = rng->Bernoulli(0.5);
  v.termination.urr_threshold = AnyFinite(rng);
  v.termination.urr_patience = AnySize(rng);
  v.termination.enable_cng = rng->Bernoulli(0.5);
  v.termination.cng_threshold = AnyFinite(rng);
  v.termination.cng_patience = AnySize(rng);
  v.termination.enable_pre = rng->Bernoulli(0.5);
  v.termination.pre_streak = AnySize(rng);
  v.termination.enable_pir = rng->Bernoulli(0.5);
  v.termination.pir_threshold = AnyFinite(rng);
  v.termination.pir_folds = AnySize(rng);
  v.termination.pir_interval = AnySize(rng);
  v.termination.pir_patience = AnySize(rng);
  ICrfOptions& icrf = v.icrf;
  icrf.crf.l2_lambda = AnyFinite(rng);
  icrf.crf.coupling = AnyFinite(rng);
  icrf.crf.prior_weight = AnyFinite(rng);
  icrf.crf.prior_clamp = AnyFinite(rng);
  icrf.crf.labeled_weight = AnyFinite(rng);
  icrf.crf.unlabeled_weight_floor = AnyFinite(rng);
  icrf.crf.unlabeled_confidence_scale = AnyFinite(rng);
  icrf.crf.unlabeled_mass_cap_ratio = AnyFinite(rng);
  icrf.crf.max_pairs_per_source = AnySize(rng);
  icrf.gibbs = GibbsOptions{AnySize(rng), AnySize(rng), AnySize(rng)};
  icrf.hypothetical_gibbs =
      GibbsOptions{AnySize(rng), AnySize(rng), AnySize(rng)};
  icrf.max_em_iterations = AnySize(rng);
  icrf.em_tolerance = AnyFinite(rng);
  icrf.fit_weights = rng->Bernoulli(0.5);
  icrf.backend = static_cast<CrfBackend>(rng->UniformInt(4));
  StreamingOptions& s = spec.streaming;
  s.icrf = icrf;
  s.step_a = AnyFinite(rng);
  s.step_t0 = AnyFinite(rng);
  s.step_kappa = AnyFinite(rng);
  s.window_cap = AnySize(rng);
  s.tron_iterations_per_arrival = AnySize(rng);
  s.seed = rng->NextU64();
  return spec;
}

IterationRecord RandomRecord(Rng* rng) {
  IterationRecord record;
  record.iteration = AnySize(rng);
  const size_t n = rng->UniformInt(5);
  for (size_t i = 0; i < n; ++i) {
    record.claims.push_back(static_cast<ClaimId>(rng->UniformInt(1000)));
    record.answers.push_back(rng->Bernoulli(0.5) ? 1 : 0);
  }
  record.seconds = AnyFinite(rng);
  record.entropy = AnyFinite(rng);
  record.precision = AnyFinite(rng);
  record.effort = AnyFinite(rng);
  record.error_rate = AnyFinite(rng);
  record.z_score = AnyFinite(rng);
  record.unreliable_ratio = AnyFinite(rng);
  record.repairs = AnySize(rng);
  record.skips = AnySize(rng);
  for (size_t i = 0; i < rng->UniformInt(3); ++i) {
    record.flagged.push_back(static_cast<ClaimId>(rng->UniformInt(1000)));
  }
  record.prediction_matched = rng->Bernoulli(0.5);
  record.urr = AnyFinite(rng);
  record.cng = AnyFinite(rng);
  record.pre_streak = AnySize(rng);
  record.pir = AnyFinite(rng);
  return record;
}

StepResult RandomStep(Rng* rng) {
  StepResult step;
  step.done = rng->Bernoulli(0.3);
  step.stop_reason = NastyText(rng);
  step.awaiting_answers = rng->Bernoulli(0.5);
  for (size_t i = 0; i < rng->UniformInt(6); ++i) {
    step.candidates.push_back(static_cast<ClaimId>(rng->NextU64() & 0xffffffffu));
  }
  step.batch = rng->Bernoulli(0.5);
  step.iteration_completed = rng->Bernoulli(0.5);
  step.record = RandomRecord(rng);
  step.arrival_processed = rng->Bernoulli(0.5);
  step.arrival.claim = static_cast<ClaimId>(rng->UniformInt(100000));
  step.arrival.update_seconds = AnyFinite(rng);
  step.arrival.initial_prob = AnyFinite(rng);
  return step;
}

// ---- field-equality helpers ------------------------------------------------
// Doubles compare by bit pattern (== would call -0.0 and 0.0 equal and the
// point is exactness).

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectRecordEqual(const IterationRecord& a, const IterationRecord& b) {
  EXPECT_EQ(a.iteration, b.iteration);
  EXPECT_EQ(a.claims, b.claims);
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_TRUE(BitEqual(a.seconds, b.seconds));
  EXPECT_TRUE(BitEqual(a.entropy, b.entropy));
  EXPECT_TRUE(BitEqual(a.precision, b.precision));
  EXPECT_TRUE(BitEqual(a.effort, b.effort));
  EXPECT_TRUE(BitEqual(a.error_rate, b.error_rate));
  EXPECT_TRUE(BitEqual(a.z_score, b.z_score));
  EXPECT_TRUE(BitEqual(a.unreliable_ratio, b.unreliable_ratio));
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.skips, b.skips);
  EXPECT_EQ(a.flagged, b.flagged);
  EXPECT_EQ(a.prediction_matched, b.prediction_matched);
  EXPECT_TRUE(BitEqual(a.urr, b.urr));
  EXPECT_TRUE(BitEqual(a.cng, b.cng));
  EXPECT_EQ(a.pre_streak, b.pre_streak);
  EXPECT_TRUE(BitEqual(a.pir, b.pir));
}

/// Encode -> decode -> re-encode; the two encodings must be byte-equal
/// (decode(encode(x)) is a fixed point of the codec).
template <typename Msg, typename Encoder, typename Decoder>
Msg RoundTrip(const Msg& message, Encoder encode, Decoder decode) {
  JsonWriter w1;
  encode(message, &w1);
  auto text1 = w1.Take();
  EXPECT_TRUE(text1.ok()) << text1.status();
  Msg decoded;
  const Status status = decode(text1.value(), &decoded);
  EXPECT_TRUE(status.ok()) << status;
  JsonWriter w2;
  encode(decoded, &w2);
  auto text2 = w2.Take();
  EXPECT_TRUE(text2.ok());
  EXPECT_EQ(text1.value(), text2.value()) << "codec is not a fixed point";
  return decoded;
}

// ---- the properties --------------------------------------------------------

TEST(CodecRoundTripTest, SessionSpecEveryFieldSurvives) {
  Rng rng(101);
  for (int trial = 0; trial < 50; ++trial) {
    const SessionSpec spec = RandomSpec(&rng);
    const SessionSpec decoded =
        RoundTrip(spec, EncodeJson<SessionSpec>, DecodeJson<SessionSpec>);
    EXPECT_EQ(decoded.mode, spec.mode);
    EXPECT_EQ(decoded.user.kind, spec.user.kind);
    EXPECT_TRUE(BitEqual(decoded.user.rate, spec.user.rate));
    EXPECT_EQ(decoded.user.seed, spec.user.seed);
    EXPECT_TRUE(BitEqual(decoded.user.latency_ms, spec.user.latency_ms));
    EXPECT_EQ(decoded.streaming_label_interval, spec.streaming_label_interval);
    EXPECT_EQ(decoded.validation.strategy, spec.validation.strategy);
    EXPECT_EQ(decoded.validation.budget, spec.validation.budget);
    EXPECT_TRUE(BitEqual(decoded.validation.target_precision,
                         spec.validation.target_precision));
    EXPECT_EQ(decoded.validation.batch_size, spec.validation.batch_size);
    EXPECT_EQ(decoded.validation.confirmation_interval,
              spec.validation.confirmation_interval);
    EXPECT_EQ(decoded.validation.guidance.variant,
              spec.validation.guidance.variant);
    EXPECT_EQ(decoded.validation.guidance.seed, spec.validation.guidance.seed);
    EXPECT_EQ(decoded.validation.icrf.crf.max_pairs_per_source,
              spec.validation.icrf.crf.max_pairs_per_source);
    EXPECT_EQ(decoded.validation.icrf.backend, spec.validation.icrf.backend);
    EXPECT_EQ(decoded.validation.icrf.gibbs.thin,
              spec.validation.icrf.gibbs.thin);
    EXPECT_TRUE(BitEqual(decoded.validation.icrf.em_tolerance,
                         spec.validation.icrf.em_tolerance));
    EXPECT_EQ(decoded.validation.termination.pir_folds,
              spec.validation.termination.pir_folds);
    EXPECT_EQ(decoded.streaming.seed, spec.streaming.seed);
    EXPECT_TRUE(BitEqual(decoded.streaming.step_kappa, spec.streaming.step_kappa));
    EXPECT_EQ(decoded.streaming.window_cap, spec.streaming.window_cap);
  }
}

TEST(CodecRoundTripTest, StepResultAndRecordSurvive) {
  Rng rng(202);
  for (int trial = 0; trial < 100; ++trial) {
    const StepResult step = RandomStep(&rng);
    const StepResult decoded =
        RoundTrip(step, EncodeJson<StepResult>, DecodeJson<StepResult>);
    EXPECT_EQ(decoded.done, step.done);
    EXPECT_EQ(decoded.stop_reason, step.stop_reason);
    EXPECT_EQ(decoded.awaiting_answers, step.awaiting_answers);
    EXPECT_EQ(decoded.candidates, step.candidates);
    EXPECT_EQ(decoded.batch, step.batch);
    EXPECT_EQ(decoded.iteration_completed, step.iteration_completed);
    ExpectRecordEqual(decoded.record, step.record);
    EXPECT_EQ(decoded.arrival_processed, step.arrival_processed);
    EXPECT_EQ(decoded.arrival.claim, step.arrival.claim);
    EXPECT_TRUE(BitEqual(decoded.arrival.update_seconds,
                         step.arrival.update_seconds));
  }
}

TEST(CodecRoundTripTest, FactDatabaseSurvivesWithNastyText) {
  Rng rng(303);
  FactDatabase db = testing::MakeHandDatabase();
  // Adversarial free text on top of the hand-built structure.
  FactDatabase nasty;
  for (int s = 0; s < 4; ++s) {
    nasty.AddSource({NastyText(&rng), {rng.Uniform(), 5e-324}});
  }
  for (int d = 0; d < 6; ++d) {
    nasty.AddDocument({static_cast<SourceId>(d % 4), {rng.Normal(), -0.0}});
  }
  for (int c = 0; c < 5; ++c) nasty.AddClaim({NastyText(&rng)});
  ASSERT_TRUE(nasty.AddMention(0, 0, Stance::kSupport).ok());
  ASSERT_TRUE(nasty.AddMention(1, 2, Stance::kRefute).ok());
  nasty.SetGroundTruth(0, true);
  nasty.SetGroundTruth(3, false);

  for (const FactDatabase* original : {&db, &nasty}) {
    const FactDatabase decoded = RoundTrip(
        *original, EncodeJson<FactDatabase>, DecodeJson<FactDatabase>);
    ASSERT_EQ(decoded.num_sources(), original->num_sources());
    ASSERT_EQ(decoded.num_documents(), original->num_documents());
    ASSERT_EQ(decoded.num_claims(), original->num_claims());
    ASSERT_EQ(decoded.num_cliques(), original->num_cliques());
    for (size_t s = 0; s < decoded.num_sources(); ++s) {
      EXPECT_EQ(decoded.source(s).name, original->source(s).name);
      EXPECT_EQ(decoded.source(s).features, original->source(s).features);
    }
    for (size_t c = 0; c < decoded.num_claims(); ++c) {
      const ClaimId id = static_cast<ClaimId>(c);
      EXPECT_EQ(decoded.claim(id).text, original->claim(id).text);
      EXPECT_EQ(decoded.has_ground_truth(id), original->has_ground_truth(id));
      if (decoded.has_ground_truth(id)) {
        EXPECT_EQ(decoded.ground_truth(id), original->ground_truth(id));
      }
    }
    for (size_t k = 0; k < decoded.num_cliques(); ++k) {
      EXPECT_EQ(decoded.clique(k).claim, original->clique(k).claim);
      EXPECT_EQ(decoded.clique(k).document, original->clique(k).document);
      EXPECT_EQ(decoded.clique(k).stance, original->clique(k).stance);
    }
  }
}

TEST(CodecRoundTripTest, EnvelopesSurvive) {
  Rng rng(404);
  // Request envelope with the biggest payload: create_session.
  ApiRequest request;
  request.id = rng.NextU64();
  request.params =
      CreateSessionRequest{testing::MakeHandDatabase(), RandomSpec(&rng)};
  auto encoded = EncodeRequest(request);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  auto decoded = DecodeRequest(encoded.value());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value().id, request.id);
  EXPECT_EQ(decoded.value().method(), ApiMethod::kCreateSession);
  auto re_encoded = EncodeRequest(decoded.value());
  ASSERT_TRUE(re_encoded.ok());
  EXPECT_EQ(re_encoded.value(), encoded.value());

  // Every other request kind.
  ApiRequest others[] = {{}, {}, {}, {}, {}, {}, {}};
  others[0].params = AdvanceRequest{7};
  others[1].params = AnswerRequest{8, StepAnswers{{1, 2}, {1, 0}, 3}};
  others[2].params = GroundRequest{9};
  others[3].params = CheckpointRequest{10, NastyText(&rng)};
  others[4].params = RestoreRequest{NastyText(&rng)};
  others[5].params = StatsRequest{};
  others[6].params = TerminateRequest{11};
  for (ApiRequest& other : others) {
    other.id = rng.NextU64();
    auto text = EncodeRequest(other);
    ASSERT_TRUE(text.ok());
    auto back = DecodeRequest(text.value());
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back.value().method(), other.method());
    auto again = EncodeRequest(back.value());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value(), text.value());
  }

  // Response envelopes: a step payload and a tagged error.
  ApiResponse step_response;
  step_response.id = 77;
  step_response.result = StepResponse{RandomStep(&rng)};
  auto response_text = EncodeResponse(step_response);
  ASSERT_TRUE(response_text.ok()) << response_text.status();
  auto response_back = DecodeResponse(response_text.value());
  ASSERT_TRUE(response_back.ok()) << response_back.status();
  EXPECT_FALSE(IsError(response_back.value()));
  ExpectRecordEqual(
      std::get<StepResponse>(response_back.value().result).step.record,
      std::get<StepResponse>(step_response.result).step.record);

  for (const StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kUnavailable}) {
    const ApiResponse error = MakeErrorResponse(
        rng.NextU64(), Status(code, "nasty " + NastyText(&rng)));
    auto error_text = EncodeResponse(error);
    ASSERT_TRUE(error_text.ok());
    auto error_back = DecodeResponse(error_text.value());
    ASSERT_TRUE(error_back.ok()) << error_back.status();
    ASSERT_TRUE(IsError(error_back.value()));
    const ErrorResponse& original = std::get<ErrorResponse>(error.result);
    const ErrorResponse& decoded_error =
        std::get<ErrorResponse>(error_back.value().result);
    // The exact Status comes back: code AND message.
    EXPECT_EQ(ToStatus(decoded_error), ToStatus(original));
    EXPECT_EQ(error_back.value().id, error.id);
  }
}

TEST(CodecRoundTripTest, ValidationOutcomeSurvives) {
  Rng rng(505);
  ValidationOutcome outcome;
  outcome.state = BeliefState(6);
  outcome.state.SetLabel(1, true);
  outcome.state.SetLabel(4, false);
  outcome.state.set_prob(0, 5e-324);
  outcome.state.set_prob(2, 1.0 / 3.0);
  outcome.grounding = {1, 1, 0, 1, 0, 0};
  outcome.trace.push_back(RandomRecord(&rng));
  outcome.trace.push_back(RandomRecord(&rng));
  outcome.validations = SIZE_MAX;
  outcome.mistakes_made = 3;
  outcome.mistakes_detected = 2;
  outcome.mistakes_repaired = 1;
  outcome.stop_reason = "budget\texhausted \"now\"\n";
  outcome.initial_precision = 0.25;
  outcome.final_precision = 1.0 / 3.0;

  const ValidationOutcome decoded = RoundTrip(
      outcome, EncodeJson<ValidationOutcome>, DecodeJson<ValidationOutcome>);
  EXPECT_EQ(decoded.state.probs(), outcome.state.probs());
  EXPECT_EQ(decoded.state.labeled_count(), outcome.state.labeled_count());
  EXPECT_EQ(decoded.state.label(1), ClaimLabel::kCredible);
  EXPECT_EQ(decoded.state.label(4), ClaimLabel::kNonCredible);
  EXPECT_EQ(decoded.grounding, outcome.grounding);
  ASSERT_EQ(decoded.trace.size(), outcome.trace.size());
  for (size_t i = 0; i < decoded.trace.size(); ++i) {
    ExpectRecordEqual(decoded.trace[i], outcome.trace[i]);
  }
  EXPECT_EQ(decoded.validations, outcome.validations);
  EXPECT_EQ(decoded.stop_reason, outcome.stop_reason);
}

// ---- rejection properties --------------------------------------------------

TEST(CodecRejectionTest, NonFiniteDoublesRejectedAtEncode) {
  SessionSpec spec;
  spec.validation.target_precision = std::numeric_limits<double>::quiet_NaN();
  JsonWriter w;
  EncodeJson(spec, &w);
  EXPECT_FALSE(w.Take().ok());

  StepResult step;
  step.record.entropy = std::numeric_limits<double>::infinity();
  ApiResponse response;
  response.result = StepResponse{step};
  EXPECT_FALSE(EncodeResponse(response).ok());
}

TEST(CodecRejectionTest, WrongApiVersionRejected) {
  for (const char* json :
       {"{\"api_version\":2,\"id\":1,\"method\":\"stats\",\"params\":{}}",
        "{\"api_version\":0,\"id\":1,\"method\":\"stats\",\"params\":{}}"}) {
    uint64_t id = 0;
    auto decoded = DecodeRequest(json, &id);
    EXPECT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(id, 1u) << "id must be salvaged for the error response";
  }
  // Missing version entirely.
  auto decoded = DecodeRequest("{\"id\":1,\"method\":\"stats\"}");
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(CodecRejectionTest, ApiVersionAbove32BitsRejected) {
  // 2^32 + 1: the low 32 bits read 1, the version this build speaks.
  const std::string request =
      "{\"api_version\":4294967297,\"id\":1,\"method\":\"stats\","
      "\"params\":{}}";
  const std::string response =
      "{\"api_version\":4294967297,\"id\":3,\"ok\":true,"
      "\"result_type\":\"stats\",\"result\":"
      "{\"stats\":{\"sessions_created\":2},\"sessions\":[]}}";
  const Status refusals[] = {
      DecodeRequest(request).status(),
      DecodeRequestEnvelope(request).status(),
      DecodeResponse(response).status(),
      DecodeResponseEnvelope(response).status(),
  };
  for (const Status& refused : refusals) {
    EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition) << refused;
    EXPECT_NE(refused.message().find("api_version 4294967297"),
              std::string::npos)
        << refused;
  }
}

TEST(CodecRejectionTest, UnknownMethodRejected) {
  auto decoded = DecodeRequest(
      "{\"api_version\":1,\"id\":4,\"method\":\"explode\",\"params\":{}}");
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kUnimplemented);
}

TEST(CodecRejectionTest, TruncatedAndMalformedDocumentsRejected) {
  ApiRequest request;
  request.params = AdvanceRequest{3};
  auto text = EncodeRequest(request);
  ASSERT_TRUE(text.ok());
  // Every proper prefix of a valid request must fail to decode cleanly.
  for (size_t cut = 0; cut < text.value().size(); cut += 7) {
    auto decoded = DecodeRequest(text.value().substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "accepted prefix of length " << cut;
  }
  // Type confusion: session as a string.
  auto confused = DecodeRequest(
      "{\"api_version\":1,\"id\":1,\"method\":\"advance\","
      "\"params\":{\"session\":\"seven\"}}");
  EXPECT_FALSE(confused.ok());
}

TEST(CodecRejectionTest, UnknownEnumValuesRejectedNotCoerced) {
  // Every string-valued enum must reject names it does not know with
  // kInvalidArgument — never coerce to a default, which would silently run
  // a different algorithm than the caller asked for.
  const struct {
    const char* json;
  } cases[] = {
      {"{\"validation\":{\"icrf\":{\"backend\":\"quantum\"}}}"},
      {"{\"validation\":{\"strategy\":\"psychic\"}}"},
      {"{\"validation\":{\"guidance\":{\"variant\":\"parallel\"}}}"},
      {"{\"validation\":{\"guidance\":{\"fanout\":\"vectorized\"}}}"},
      {"{\"user\":{\"kind\":\"omniscient\"}}"},
  };
  for (const auto& test_case : cases) {
    SessionSpec spec;
    const Status status = DecodeJson(test_case.json, &spec);
    EXPECT_FALSE(status.ok()) << test_case.json;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << test_case.json;
  }
}

TEST(CodecRejectionTest, RemovedBackendSpellingsRejectedWithKeyPath) {
  // "exact" and "mean_field" named E-step backends that no longer exist. A
  // create request naming either is refused like any unknown spelling, and
  // the message names the member.
  ApiRequest request;
  request.id = 5;
  SessionSpec spec;
  spec.validation.icrf.backend = CrfBackend::kGibbs;
  spec.streaming.icrf.backend = CrfBackend::kChromatic;
  request.params = CreateSessionRequest{testing::MakeHandDatabase(), spec};
  auto encoded = EncodeRequest(request);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  ASSERT_TRUE(DecodeRequest(encoded.value()).ok());

  const struct {
    const char* from;
    const char* removed;
    const char* path;
  } cases[] = {
      {"\"backend\":\"gibbs\"", "\"backend\":\"exact\"",
       "spec: validation: icrf: backend: unknown value \"exact\""},
      {"\"backend\":\"chromatic\"", "\"backend\":\"mean_field\"",
       "spec: streaming: icrf: backend: unknown value \"mean_field\""},
  };
  for (const auto& test_case : cases) {
    std::string text = encoded.value();
    const size_t at = text.find(test_case.from);
    ASSERT_NE(at, std::string::npos) << test_case.from;
    text.replace(at, std::strlen(test_case.from), test_case.removed);
    auto decoded = DecodeRequest(text);
    ASSERT_FALSE(decoded.ok()) << test_case.removed;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find(test_case.path),
              std::string::npos)
        << decoded.status();
  }
}

TEST(CodecRejectionTest, WrongTypeEnumValuesRejected) {
  // Numeric payloads where a wire name is expected: out-of-range integers
  // must not be castable into an enum through the decoder.
  for (const char* json :
       {"{\"validation\":{\"icrf\":{\"backend\":7}}}",
        "{\"validation\":{\"strategy\":99}}",
        "{\"validation\":{\"guidance\":{\"fanout\":2}}}"}) {
    SessionSpec spec;
    EXPECT_FALSE(DecodeJson(json, &spec).ok()) << json;
  }
}

TEST(CodecRoundTripTest, MissingBackendKeysDecodeToDefaults) {
  // Payloads from pre-backend peers carry no backend keys at all: they must
  // decode to kAuto — the exact legacy behavior — not error out.
  SessionSpec spec;
  ASSERT_TRUE(
      DecodeJson("{\"validation\":{\"icrf\":{\"max_em_iterations\":3}}}", &spec)
          .ok());
  EXPECT_EQ(spec.validation.icrf.backend, CrfBackend::kAuto);
  EXPECT_EQ(spec.validation.icrf.max_em_iterations, 3u);

  // And the known names decode to the matching enumerators.
  SessionSpec explicit_spec;
  ASSERT_TRUE(DecodeJson("{\"validation\":{\"icrf\":{\"backend\":\"dispatch\"}}}",
                         &explicit_spec)
                  .ok());
  EXPECT_EQ(explicit_spec.validation.icrf.backend, CrfBackend::kDispatch);
}

TEST(CodecRejectionTest, UnknownMembersAreTolerated) {
  // The forward-compatibility rule: a v1 peer adding NEW members must not
  // break this decoder.
  auto decoded = DecodeRequest(
      "{\"api_version\":1,\"id\":9,\"method\":\"advance\","
      "\"params\":{\"session\":5,\"future_hint\":{\"x\":[1,2]}},"
      "\"trace_context\":\"abc\"}");
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(std::get<AdvanceRequest>(decoded.value().params).session, 5u);

  JsonWriter w;
  w.BeginObject();
  w.Key("done").Bool(true);
  w.Key("stop_reason").String("ok");
  w.Key("from_the_future").UInt(1);
  w.EndObject();
  StepResult step;
  EXPECT_TRUE(DecodeJson(w.Take().value(), &step).ok());
  EXPECT_TRUE(step.done);
  EXPECT_EQ(step.stop_reason, "ok");
}

TEST(CodecRoundTripTest, ServiceStatsEveryCounterSurvives) {
  StatsResponse response;
  response.stats.sessions_created = 11;
  response.stats.sessions_active = 7;
  response.stats.sessions_resident = 5;
  response.stats.sessions_spilled = 2;
  response.stats.evictions = 3;
  response.stats.spill_restores = 1;
  response.stats.resident_bytes = SIZE_MAX;
  response.stats.steps_served = 99;
  response.stats.spill_bytes = 1234567;
  response.stats.peak_resident_bytes = SIZE_MAX - 1;
  SessionInfo info;
  info.id = 4;
  info.resident = false;
  info.steps_served = 12;
  response.sessions.push_back(info);

  ApiResponse envelope;
  envelope.id = 21;
  envelope.result = std::move(response);
  auto text = EncodeResponse(envelope);
  ASSERT_TRUE(text.ok()) << text.status();
  auto back = DecodeResponse(text.value());
  ASSERT_TRUE(back.ok()) << back.status();
  const StatsResponse& decoded = std::get<StatsResponse>(back.value().result);
  EXPECT_EQ(decoded.stats.sessions_created, 11u);
  EXPECT_EQ(decoded.stats.evictions, 3u);
  EXPECT_EQ(decoded.stats.spill_restores, 1u);
  EXPECT_EQ(decoded.stats.resident_bytes, SIZE_MAX);
  EXPECT_EQ(decoded.stats.spill_bytes, 1234567u);
  EXPECT_EQ(decoded.stats.peak_resident_bytes, SIZE_MAX - 1);
  auto again = EncodeResponse(back.value());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), text.value());

  // Pre-§14 peers omit the new counters entirely: they decode to 0, not
  // to an error (the missing-tolerant Get* contract).
  auto legacy = DecodeResponse(
      "{\"api_version\":1,\"id\":3,\"ok\":true,"
      "\"result_type\":\"stats\",\"result\":"
      "{\"stats\":{\"sessions_created\":2,\"steps_served\":8},"
      "\"sessions\":[]}}");
  ASSERT_TRUE(legacy.ok()) << legacy.status();
  const ServiceStats& legacy_stats =
      std::get<StatsResponse>(legacy.value().result).stats;
  EXPECT_EQ(legacy_stats.sessions_created, 2u);
  EXPECT_EQ(legacy_stats.steps_served, 8u);
  EXPECT_EQ(legacy_stats.spill_bytes, 0u);
  EXPECT_EQ(legacy_stats.peak_resident_bytes, 0u);
}

TEST(CodecRoundTripTest, MetricsEnvelopeSurvives) {
  // Request side: method "metrics" with an empty params object.
  ApiRequest request;
  request.id = 31;
  request.params = MetricsRequest{};
  auto text = EncodeRequest(request);
  ASSERT_TRUE(text.ok()) << text.status();
  auto back = DecodeRequest(text.value());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.value().method(), ApiMethod::kMetrics);

  // Response side: a snapshot with every series kind, including a
  // histogram whose +Inf bound must survive the JSON no-non-finite rule.
  MetricsRegistry registry;
  registry.counter("veritas_a_total")->Increment(5);
  registry.counter(WithLabel("veritas_b_total", "kind", "x"))->Increment(2);
  registry.gauge("veritas_level")->Set(-40);
  registry.histogram("veritas_lat_seconds")->Record(1e-3);
  registry.histogram("veritas_lat_seconds")->Record(1e9);  // overflow bucket
  const MetricsSnapshot snapshot = registry.Snapshot();

  ApiResponse envelope;
  envelope.id = 32;
  envelope.result = MetricsResponse{snapshot};
  auto response_text = EncodeResponse(envelope);
  ASSERT_TRUE(response_text.ok()) << response_text.status();
  auto response_back = DecodeResponse(response_text.value());
  ASSERT_TRUE(response_back.ok()) << response_back.status();
  const MetricsSnapshot& decoded =
      std::get<MetricsResponse>(response_back.value().result).snapshot;
  EXPECT_EQ(decoded.counters, snapshot.counters);
  EXPECT_EQ(decoded.gauges, snapshot.gauges);
  ASSERT_EQ(decoded.histograms.size(), 1u);
  const HistogramSnapshot& h = decoded.histograms.at("veritas_lat_seconds");
  const HistogramSnapshot& original =
      snapshot.histograms.at("veritas_lat_seconds");
  EXPECT_EQ(h.counts, original.counts);
  EXPECT_EQ(h.count, original.count);
  EXPECT_EQ(h.upper_bounds.size(), original.upper_bounds.size());
  EXPECT_TRUE(std::isinf(h.upper_bounds.back()));
  auto again = EncodeResponse(response_back.value());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), response_text.value());
}

TEST(CodecRoundTripTest, TraceIdOmittedWhenEmptyPreservedWhenSet) {
  // Untraced: the member must be ABSENT, keeping the envelope
  // byte-identical to the pre-tracing protocol.
  ApiRequest untraced;
  untraced.id = 5;
  untraced.params = AdvanceRequest{3};
  auto untraced_text = EncodeRequest(untraced);
  ASSERT_TRUE(untraced_text.ok());
  EXPECT_EQ(untraced_text.value().find("trace_id"), std::string::npos);
  EXPECT_EQ(untraced_text.value(),
            "{\"api_version\":1,\"id\":5,\"method\":\"advance\","
            "\"params\":{\"session\":3}}");

  ApiResponse untraced_response;
  untraced_response.id = 5;
  untraced_response.result = CheckpointResponse{};
  auto untraced_response_text = EncodeResponse(untraced_response);
  ASSERT_TRUE(untraced_response_text.ok());
  EXPECT_EQ(untraced_response_text.value().find("trace_id"),
            std::string::npos);

  // Traced: the id survives both directions, fixed-point re-encode.
  ApiRequest traced = untraced;
  traced.trace_id = "req-\"quoted\"-\tid";
  auto traced_text = EncodeRequest(traced);
  ASSERT_TRUE(traced_text.ok());
  auto traced_back = DecodeRequest(traced_text.value());
  ASSERT_TRUE(traced_back.ok()) << traced_back.status();
  EXPECT_EQ(traced_back.value().trace_id, traced.trace_id);
  auto traced_again = EncodeRequest(traced_back.value());
  ASSERT_TRUE(traced_again.ok());
  EXPECT_EQ(traced_again.value(), traced_text.value());

  ApiResponse traced_response = untraced_response;
  traced_response.trace_id = "resp-1";
  auto traced_response_text = EncodeResponse(traced_response);
  ASSERT_TRUE(traced_response_text.ok());
  auto response_back = DecodeResponse(traced_response_text.value());
  ASSERT_TRUE(response_back.ok()) << response_back.status();
  EXPECT_EQ(response_back.value().trace_id, "resp-1");
}

}  // namespace
}  // namespace veritas
