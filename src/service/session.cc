#include "service/session.h"

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/grounding.h"

namespace veritas {

std::unique_ptr<UserModel> MakeUserModel(const UserSpec& spec) {
  switch (spec.kind) {
    case UserSpec::Kind::kNone:
      return nullptr;
    case UserSpec::Kind::kOracle:
      return std::make_unique<OracleUser>();
    case UserSpec::Kind::kErroneous:
      return std::make_unique<ErroneousUser>(spec.rate, spec.seed);
    case UserSpec::Kind::kSkipping:
      return std::make_unique<SkippingUser>(spec.rate, spec.seed);
  }
  return nullptr;
}

namespace {

/// Refuses a spec that asks one step for more work than the create-time
/// bounds allow (session.h), or for a sample count of zero that every step
/// would then fail on, naming the key path.
Status CheckWorkBounds(const SessionSpec& spec) {
  struct Bound {
    std::string path;
    size_t value;
    size_t limit;
    size_t floor = 0;
  };
  // Every sum comes after the bounds on its terms, which refuse the spec
  // before a sum that could wrap is read.
  std::vector<Bound> bounds;
  const std::pair<std::string, const GibbsOptions*> schedules[] = {
      {"validation.icrf.gibbs", &spec.validation.icrf.gibbs},
      {"validation.icrf.hypothetical_gibbs",
       &spec.validation.icrf.hypothetical_gibbs},
      {"streaming.icrf.gibbs", &spec.streaming.icrf.gibbs},
      {"streaming.icrf.hypothetical_gibbs",
       &spec.streaming.icrf.hypothetical_gibbs},
  };
  for (const auto& [path, gibbs] : schedules) {
    bounds.push_back(
        {path + ".num_samples", gibbs->num_samples, kMaxGibbsSamples, 1});
    bounds.push_back({path + ".burn_in", gibbs->burn_in, kMaxGibbsSweeps});
    bounds.push_back({path + ".burn_in + num_samples",
                      gibbs->burn_in + gibbs->num_samples, kMaxGibbsSweeps});
  }
  const GuidanceConfig& guidance = spec.validation.guidance;
  bounds.push_back({"validation.icrf.max_em_iterations",
                    spec.validation.icrf.max_em_iterations, kMaxEmIterations});
  bounds.push_back({"streaming.icrf.max_em_iterations",
                    spec.streaming.icrf.max_em_iterations, kMaxEmIterations});
  bounds.push_back({"validation.guidance.fanout_burn_in",
                    guidance.fanout_burn_in, kMaxFanoutSweeps});
  bounds.push_back({"validation.guidance.fanout_samples",
                    guidance.fanout_samples, kMaxFanoutSweeps, 1});
  bounds.push_back({"validation.guidance.fanout_burn_in + fanout_samples",
                    guidance.fanout_burn_in + guidance.fanout_samples,
                    kMaxFanoutSweeps});
  bounds.push_back({"streaming.tron_iterations_per_arrival",
                    spec.streaming.tron_iterations_per_arrival,
                    kMaxTronIterationsPerArrival});
  for (const Bound& bound : bounds) {
    if (bound.value < bound.floor) {
      return Status::InvalidArgument(
          "Session: " + bound.path + " is " + std::to_string(bound.value) +
          ", below " + std::to_string(bound.floor));
    }
    if (bound.value > bound.limit) {
      return Status::InvalidArgument(
          "Session: " + bound.path + " is " + std::to_string(bound.value) +
          ", above " + std::to_string(bound.limit));
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Session>> Session::Create(FactDatabase db,
                                                 const SessionSpec& spec) {
  VERITAS_RETURN_IF_ERROR(CheckWorkBounds(spec));
  VERITAS_RETURN_IF_ERROR(db.Validate());
  std::unique_ptr<Session> session(new Session());
  session->spec_ = spec;
  if (spec.mode == SessionMode::kBatch) {
    VERITAS_RETURN_IF_ERROR(session->InitBatch(std::move(db)));
  } else {
    VERITAS_RETURN_IF_ERROR(session->InitStreaming(std::move(db)));
  }
  return session;
}

Status Session::InitBatch(FactDatabase db) {
  if (db.num_claims() == 0) {
    return Status::InvalidArgument("Session: batch session needs claims");
  }
  db_ = std::make_unique<FactDatabase>(std::move(db));
  user_ = MakeUserModel(spec_.user);
  process_ = std::make_unique<ValidationProcess>(db_.get(), user_.get(),
                                                 spec_.validation);
  return Status::OK();
}

Status Session::InitStreaming(FactDatabase db) {
  source_corpus_ = std::make_unique<FactDatabase>(std::move(db));
  user_ = MakeUserModel(spec_.user);
  checker_ = std::make_unique<StreamingFactChecker>(spec_.streaming);
  for (size_t s = 0; s < source_corpus_->num_sources(); ++s) {
    checker_->AddSource(source_corpus_->source(static_cast<SourceId>(s)));
  }
  for (size_t d = 0; d < source_corpus_->num_documents(); ++d) {
    checker_->AddDocument(source_corpus_->document(static_cast<DocumentId>(d)));
  }
  arrival_mentions_.assign(source_corpus_->num_claims(), {});
  for (const Clique& clique : source_corpus_->cliques()) {
    arrival_mentions_[clique.claim].emplace_back(clique.document, clique.stance);
  }
  return Status::OK();
}

void Session::SleepUserLatency() const {
  if (spec_.user.latency_ms <= 0.0) return;
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(spec_.user.latency_ms));
}

Result<StepResult> Session::Advance() {
  ++steps_served_;
  return spec_.mode == SessionMode::kBatch ? AdvanceBatch()
                                           : AdvanceStreaming();
}

Result<StepResult> Session::AdvanceBatch() {
  if (awaiting_answers_) {
    StepResult result;
    result.awaiting_answers = true;
    result.candidates = pending_plan_.candidates;
    result.batch = pending_plan_.batch;
    return result;
  }
  auto plan = process_->PlanStep();
  if (!plan.ok()) return plan.status();
  StepResult result;
  if (plan.value().done) {
    result.done = true;
    result.stop_reason = plan.value().stop_reason;
    return result;
  }
  if (user_ == nullptr) {
    pending_plan_ = plan.value();
    awaiting_answers_ = true;
    result.awaiting_answers = true;
    result.candidates = pending_plan_.candidates;
    result.batch = pending_plan_.batch;
    return result;
  }
  // Simulated validator: the round trip (think time) happens here, between
  // the question and the answer — the window the worker pool overlaps
  // across sessions.
  SleepUserLatency();
  auto answers = process_->ElicitAnswers(plan.value());
  if (!answers.ok()) return answers.status();
  auto record = process_->CompleteStep(answers.value());
  if (!record.ok()) return record.status();
  result.iteration_completed = true;
  result.record = std::move(record).value();
  return result;
}

Result<StepResult> Session::AdvanceStreaming() {
  StepResult result;
  if (next_arrival_ >= source_corpus_->num_claims()) {
    if (!stream_synced_) {
      auto synced = checker_->SyncForValidation();
      if (!synced.ok()) return synced.status();
      stream_synced_ = true;
    }
    result.done = true;
    result.stop_reason = "stream-drained";
    return result;
  }
  const ClaimId source_id = static_cast<ClaimId>(next_arrival_);
  const bool has_truth = source_corpus_->has_ground_truth(source_id);
  const bool truth = has_truth && source_corpus_->ground_truth(source_id);
  auto arrival = checker_->OnClaimArrival(source_corpus_->claim(source_id),
                                          arrival_mentions_[next_arrival_],
                                          has_truth, truth);
  if (!arrival.ok()) return arrival.status();
  ++next_arrival_;
  stream_synced_ = false;
  result.arrival_processed = true;
  result.arrival = arrival.value();

  // Periodic validator input (Alg. 2 line 7): the user labels the arrival.
  if (user_ != nullptr && spec_.streaming_label_interval > 0 &&
      next_arrival_ % spec_.streaming_label_interval == 0) {
    SleepUserLatency();
    bool skipped = false;
    const bool verdict =
        user_->Validate(checker_->db(), arrival.value().claim, &skipped);
    if (!skipped) {
      auto labeled = checker_->OnUserLabel(arrival.value().claim, verdict);
      if (!labeled.ok()) return labeled.status();
    }
  }
  return result;
}

Result<StepResult> Session::Answer(const StepAnswers& answers) {
  ++steps_served_;
  if (spec_.mode == SessionMode::kStreaming) {
    if (answers.claims.size() != answers.answers.size()) {
      return Status::InvalidArgument("Session::Answer: claims/answers mismatch");
    }
    StepResult result;
    for (size_t i = 0; i < answers.claims.size(); ++i) {
      auto labeled =
          checker_->OnUserLabel(answers.claims[i], answers.answers[i] != 0);
      if (!labeled.ok()) return labeled.status();
      result.arrival = labeled.value();
    }
    result.arrival_processed = !answers.claims.empty();
    return result;
  }
  if (!awaiting_answers_) {
    return Status::FailedPrecondition(
        "Session::Answer: no pending step; call Advance() first");
  }
  auto record = process_->CompleteStep(answers);
  if (!record.ok()) return record.status();
  awaiting_answers_ = false;
  pending_plan_ = StepPlan();
  StepResult result;
  result.iteration_completed = true;
  result.record = std::move(record).value();
  return result;
}

Result<GroundingView> Session::Ground() {
  GroundingView view;
  if (spec_.mode == SessionMode::kBatch) {
    VERITAS_RETURN_IF_ERROR(process_->Initialize());
    view.grounding = process_->grounding();
    view.probs = process_->state().probs();
    view.precision = GroundingPrecision(view.grounding, *db_);
    view.labeled = process_->state().labeled_count();
    view.num_claims = process_->state().num_claims();
    return view;
  }
  view.probs = checker_->state().probs();
  view.grounding = GroundingFromProbs(view.probs);
  view.precision = GroundingPrecision(view.grounding, checker_->db());
  view.labeled = checker_->state().labeled_count();
  view.num_claims = checker_->state().num_claims();
  return view;
}

Result<ValidationOutcome> Session::Finalize() {
  if (spec_.mode == SessionMode::kBatch) {
    VERITAS_RETURN_IF_ERROR(process_->Initialize());
    return process_->FinalizedOutcome();
  }
  ValidationOutcome outcome;
  outcome.state = checker_->state();
  outcome.grounding = GroundingFromProbs(outcome.state.probs());
  outcome.final_precision = GroundingPrecision(outcome.grounding, checker_->db());
  outcome.stop_reason = next_arrival_ >= source_corpus_->num_claims()
                            ? "stream-drained"
                            : "stream-open";
  return outcome;
}

namespace {

size_t DatabaseBytes(const FactDatabase& db) {
  size_t bytes = db.num_cliques() * sizeof(Clique);
  for (size_t s = 0; s < db.num_sources(); ++s) {
    const Source& source = db.source(static_cast<SourceId>(s));
    bytes += sizeof(Source) + source.name.size() +
             source.features.size() * sizeof(double);
  }
  for (size_t d = 0; d < db.num_documents(); ++d) {
    bytes += sizeof(Document) +
             db.document(static_cast<DocumentId>(d)).features.size() * sizeof(double);
  }
  for (size_t c = 0; c < db.num_claims(); ++c) {
    bytes += sizeof(Claim) + db.claim(static_cast<ClaimId>(c)).text.size();
  }
  // Per-claim clique and per-source claim indices.
  bytes += db.num_cliques() * 2 * sizeof(size_t);
  return bytes;
}

}  // namespace

size_t Session::MemoryFootprintBytes() const {
  size_t bytes = sizeof(Session);
  if (spec_.mode == SessionMode::kBatch) {
    bytes += DatabaseBytes(*db_);
    const BeliefState& state = process_->state();
    bytes += state.num_claims() * (sizeof(double) + sizeof(ClaimLabel));
    bytes += process_->outcome().trace.size() * sizeof(IterationRecord);
    // MRF + couplings + samples scale with cliques/claims; a coarse factor
    // keeps the estimate monotone in corpus size without walking engine
    // internals.
    bytes += DatabaseBytes(*db_) / 2;
  } else {
    bytes += DatabaseBytes(*source_corpus_);
    bytes += DatabaseBytes(checker_->db());
    const size_t feature_dim = 1 + checker_->db().document_feature_dim() +
                               checker_->db().source_feature_dim();
    bytes += checker_->em_window_size() *
             (sizeof(StreamingWindowExample) + feature_dim * sizeof(double));
  }
  return bytes;
}

}  // namespace veritas
