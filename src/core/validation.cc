#include "core/validation.h"

#include <algorithm>
#include <cmath>

#include "crf/entropy.h"

namespace veritas {

ValidationProcess::ValidationProcess(const FactDatabase* db, UserModel* user,
                                     const ValidationOptions& options)
    : db_(db),
      user_(user),
      options_(options),
      pool_(options.guidance.variant == GuidanceVariant::kParallelPartition
                ? &ComputePool()
                : nullptr),
      icrf_(db, options.icrf, options.seed, pool_),
      strategy_(MakeStrategy(options.strategy, options.guidance, pool_)),
      state_(db->num_claims()),
      monitor_(options.termination) {
  hybrid_ = dynamic_cast<HybridControl*>(strategy_.get());
}

Status ValidationProcess::Initialize() {
  if (initialized_) return Status::OK();
  // Initial inference from the maximum-entropy prior (Alg. 1 lines 1-4).
  state_ = BeliefState(db_->num_claims());
  auto initial = icrf_.Infer(&state_);
  if (!initial.ok()) return initial.status();
  grounding_ = GroundingFromSamples(icrf_.last_samples(), state_);
  outcome_ = ValidationOutcome();
  outcome_.state = BeliefState(db_->num_claims());
  outcome_.initial_precision = GroundingPrecision(grounding_, *db_);
  initialized_ = true;
  return Status::OK();
}

Result<ValidationOutcome> ValidationProcess::Run() {
  if (user_ == nullptr) {
    return Status::FailedPrecondition(
        "ValidationProcess::Run: no UserModel attached; drive the process "
        "through PlanStep()/CompleteStep() instead");
  }
  VERITAS_RETURN_IF_ERROR(Initialize());

  for (;;) {
    auto plan = PlanStep();
    if (!plan.ok()) return plan.status();
    if (plan.value().done) break;
    auto answers = ElicitAnswers(plan.value());
    if (!answers.ok()) return answers.status();
    auto record = CompleteStep(answers.value());
    if (!record.ok()) return record.status();
  }
  return FinalizedOutcome();
}

Result<StepPlan> ValidationProcess::PlanStep() {
  VERITAS_RETURN_IF_ERROR(Initialize());
  StepPlan plan;

  const double precision = GroundingPrecision(grounding_, *db_);
  if (precision >= options_.target_precision) {
    plan.done = true;
    plan.stop_reason = "goal-reached";
  } else if (outcome_.validations >= options_.budget) {
    plan.done = true;
    plan.stop_reason = "budget-exhausted";
  } else {
    std::string reason;
    if (monitor_.ShouldStop(&reason)) {
      plan.done = true;
      plan.stop_reason = "early-termination:" + reason;
    } else if (state_.unlabeled_count() == 0) {
      plan.done = true;
      plan.stop_reason = "claims-exhausted";
    }
  }
  if (plan.done) {
    outcome_.stop_reason = plan.stop_reason;
    return plan;
  }

  step_watch_.Restart();
  if (options_.batch_size > 1) {
    BatchOptions batch_options;
    batch_options.batch_size =
        std::min(options_.batch_size, state_.unlabeled_count());
    batch_options.guidance = options_.guidance;
    auto batch = SelectBatch(icrf_, state_, batch_options, pool_);
    if (!batch.ok()) return batch.status();
    plan.candidates = batch.value().claims;
    plan.batch = true;
  } else {
    // Ranked list so a skipping user can fall back to the runner-up (§8.5).
    auto ranked = strategy_->Rank(icrf_, state_, 5);
    if (!ranked.ok()) return ranked.status();
    plan.candidates = std::move(ranked).value();
    plan.batch = false;
  }
  return plan;
}

Result<StepAnswers> ValidationProcess::ElicitAnswers(const StepPlan& plan) {
  StepAnswers answers;
  if (plan.batch) {
    answers.claims = plan.candidates;
    for (const ClaimId claim : plan.candidates) {
      bool skipped = false;
      answers.answers.push_back(
          static_cast<uint8_t>(user_->Validate(*db_, claim, &skipped) ? 1 : 0));
    }
    return answers;
  }
  for (const ClaimId candidate : plan.candidates) {
    bool skipped = false;
    const bool verdict = user_->Validate(*db_, candidate, &skipped);
    if (!skipped) {
      answers.claims = {candidate};
      answers.answers = {static_cast<uint8_t>(verdict ? 1 : 0)};
      return answers;
    }
    ++answers.skips;
  }
  // Every ranked claim was skipped; force the top choice.
  bool skipped = false;
  const ClaimId forced = plan.candidates.front();
  const bool verdict = user_->Validate(*db_, forced, &skipped);
  answers.claims = {forced};
  answers.answers = {static_cast<uint8_t>(verdict ? 1 : 0)};
  return answers;
}

Result<IterationRecord> ValidationProcess::CompleteStep(const StepAnswers& answers) {
  if (!initialized_) {
    return Status::FailedPrecondition(
        "ValidationProcess::CompleteStep: PlanStep() must come first");
  }
  if (answers.claims.empty() || answers.claims.size() != answers.answers.size()) {
    return Status::InvalidArgument(
        "ValidationProcess::CompleteStep: claims/answers mismatch");
  }
  for (const ClaimId claim : answers.claims) {
    if (claim >= db_->num_claims()) {
      return Status::OutOfRange("ValidationProcess::CompleteStep: bad claim id");
    }
  }

  IterationRecord record;
  record.iteration = ++iteration_;
  record.claims = answers.claims;
  record.answers = answers.answers;
  record.skips = answers.skips;

  // --- Error rate (Eq. 22), from the belief state BEFORE incorporation. ----
  {
    const ClaimId first = answers.claims.front();
    const bool first_answer = answers.answers.front() != 0;
    const double prior_prob = state_.prob(first);
    const bool prior_grounding =
        first < grounding_.size() && grounding_[first] != 0;
    record.error_rate = prior_grounding ? 1.0 - prior_prob : prior_prob;
    record.prediction_matched = prior_grounding == first_answer;
    last_error_rate_ = record.error_rate;
  }

  // --- Incorporate input and infer (Alg. 1 lines 14-15). ----------------
  for (size_t i = 0; i < answers.claims.size(); ++i) {
    const ClaimId claim = answers.claims[i];
    const bool verdict = answers.answers[i] != 0;
    const bool was_labeled = state_.IsLabeled(claim);
    const bool previous =
        was_labeled && state_.label(claim) == ClaimLabel::kCredible;
    state_.SetLabel(claim, verdict);
    ++outcome_.validations;
    ++validations_since_confirmation_;
    if (was_labeled) {
      // Re-validation of an existing label: the external analogue of the
      // confirmation-check repair (the Run() path re-elicits flagged labels
      // inline and never routes them through here).
      if (verdict != previous) {
        confirmed_labels_.erase(claim);
        ++outcome_.mistakes_repaired;
        ++record.repairs;
      } else {
        confirmed_labels_.insert(claim);  // re-confirmed: stop flagging it
      }
    } else if (db_->has_ground_truth(claim) &&
               verdict != db_->ground_truth(claim)) {
      ++outcome_.mistakes_made;
    }
  }
  auto stats = icrf_.Infer(&state_);
  if (!stats.ok()) return stats.status();

  // --- Decide on the grounding (Alg. 1 line 16). -------------------------
  const Grounding new_grounding =
      GroundingFromSamples(icrf_.last_samples(), state_);
  const size_t changes = GroundingChanges(grounding_, new_grounding);
  grounding_ = new_grounding;

  // Hybrid score bookkeeping (Alg. 1 lines 17-18).
  const std::vector<double> trust = SourceTrustworthiness(*db_, grounding_);
  record.unreliable_ratio = UnreliableSourceRatio(trust);
  record.z_score =
      HybridScore(last_error_rate_, record.unreliable_ratio, state_.Effort());
  if (hybrid_ != nullptr) hybrid_->set_z(record.z_score);

  // Database uncertainty for the trace and the URR indicator, incrementally:
  // re-scores only the claims Infer() actually moved; Total() is
  // bit-identical to ApproxDatabaseEntropy(state_.probs()).
  MarginalEntropyCache& cache = icrf_.entropy_cache();
  cache.Refresh(state_.probs(), icrf_.hypothetical().structure_epoch());
  record.entropy = cache.Total();

  // Confirmation check (§5.2).
  if (options_.confirmation_interval > 0 &&
      validations_since_confirmation_ >= options_.confirmation_interval) {
    validations_since_confirmation_ = 0;
    VERITAS_RETURN_IF_ERROR(RunConfirmationCheck(&record));
  }

  // Early-termination signals (§6.1).
  TerminationSignals signals;
  signals.entropy = record.entropy;
  signals.grounding_changes = changes;
  signals.num_claims = db_->num_claims();
  signals.prediction_matched_input = record.prediction_matched;
  signals.cv_precision = -1.0;
  if (options_.termination.enable_pir &&
      iteration_ % std::max<size_t>(1, options_.termination.pir_interval) == 0) {
    // Salted so the CV chains never collide with the guidance streams.
    auto cv = EstimateCvPrecision(icrf_, state_, options_.termination.pir_folds,
                                  options_.seed ^ 0x2545f4914f6cdd1dULL);
    if (cv.ok()) signals.cv_precision = cv.value();
  }
  monitor_.Observe(signals);
  record.urr = monitor_.last_urr();
  record.cng = monitor_.last_cng_rate();
  record.pre_streak = monitor_.prediction_streak();
  record.pir = monitor_.last_pir();

  record.precision = GroundingPrecision(grounding_, *db_);
  record.effort = state_.Effort();
  record.seconds = step_watch_.ElapsedSeconds();
  outcome_.trace.push_back(record);
  return record;
}

ValidationOutcome ValidationProcess::FinalizedOutcome() {
  outcome_.state = state_;
  outcome_.grounding = grounding_;
  outcome_.final_precision = GroundingPrecision(grounding_, *db_);
  return outcome_;
}

Status ValidationProcess::RunConfirmationCheck(IterationRecord* record) {
  ConfirmationOptions options;
  // Salted so the audit chains never collide with the guidance streams.
  options.seed = options_.seed ^ 0xd6e8feb86659fd93ULL;
  auto suspicious = FindSuspiciousLabels(icrf_, state_, options);
  if (!suspicious.ok()) return suspicious.status();

  for (const ClaimId claim : suspicious.value()) {
    if (confirmed_labels_.count(claim) != 0) continue;
    record->flagged.push_back(claim);
    const bool current = state_.label(claim) == ClaimLabel::kCredible;
    const bool was_mistake =
        db_->has_ground_truth(claim) && current != db_->ground_truth(claim);
    if (was_mistake) ++outcome_.mistakes_detected;
    if (user_ == nullptr) {
      // External sessions: report the flag once and wait for the client to
      // re-validate through CompleteStep (which clears this suppression on
      // a label change). Without it the same still-suspicious label would
      // re-flag — and re-count as detected — every interval.
      confirmed_labels_.insert(claim);
      continue;
    }

    // The user reconsiders the flagged input; this costs effort (§8.5).
    bool skipped = false;
    const bool reconsidered = user_->Validate(*db_, claim, &skipped);
    ++outcome_.validations;
    if (reconsidered != current) {
      state_.SetLabel(claim, reconsidered);
      confirmed_labels_.erase(claim);
      ++outcome_.mistakes_repaired;
      ++record->repairs;
    } else {
      // Re-confirmed: stop second-guessing this label.
      confirmed_labels_.insert(claim);
    }
  }
  return Status::OK();
}

ValidationSessionState ValidationProcess::ExportSessionState() const {
  ValidationSessionState session;
  session.initialized = initialized_;
  session.iteration = iteration_;
  session.last_error_rate = last_error_rate_;
  session.validations_since_confirmation = validations_since_confirmation_;
  session.confirmed_labels.assign(confirmed_labels_.begin(),
                                  confirmed_labels_.end());
  session.hybrid_z = hybrid_ != nullptr ? hybrid_->z() : 0.0;
  session.monitor = monitor_.ExportState();
  session.state = state_;
  session.grounding = grounding_;
  session.outcome = outcome_;
  session.icrf_rng = icrf_.rng_state();
  if (Rng* rng = strategy_->mutable_rng()) {
    session.strategy_rng = rng->SaveState();
    session.has_strategy_rng = true;
  }
  session.weights = icrf_.model().weights();
  return session;
}

Status ValidationProcess::RestoreSessionState(const ValidationSessionState& session) {
  if (session.state.num_claims() != db_->num_claims()) {
    return Status::InvalidArgument(
        "RestoreSessionState: belief state does not match the database");
  }
  if (session.weights.size() != icrf_.model().feature_dim()) {
    return Status::InvalidArgument(
        "RestoreSessionState: weight vector does not match the feature dim");
  }
  initialized_ = session.initialized;
  iteration_ = static_cast<size_t>(session.iteration);
  last_error_rate_ = session.last_error_rate;
  validations_since_confirmation_ =
      static_cast<size_t>(session.validations_since_confirmation);
  confirmed_labels_.clear();
  confirmed_labels_.insert(session.confirmed_labels.begin(),
                           session.confirmed_labels.end());
  monitor_.RestoreState(session.monitor);
  state_ = session.state;
  grounding_ = session.grounding;
  outcome_ = session.outcome;
  *icrf_.mutable_model()->mutable_weights() = session.weights;
  icrf_.restore_rng_state(session.icrf_rng);
  if (session.has_strategy_rng) {
    if (Rng* rng = strategy_->mutable_rng()) {
      rng->RestoreState(session.strategy_rng);
    }
  }
  if (hybrid_ != nullptr) hybrid_->set_z(session.hybrid_z);
  if (initialized_) {
    VERITAS_RETURN_IF_ERROR(icrf_.RestoreEngine(state_));
  }
  return Status::OK();
}

}  // namespace veritas
