#include "core/termination.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/stats.h"

namespace veritas {

TerminationMonitor::TerminationMonitor(const TerminationOptions& options)
    : options_(options) {}

void TerminationMonitor::Observe(const TerminationSignals& signals) {
  // Uncertainty reduction rate (H_i - H_{i+1}) / H_i.
  if (previous_entropy_ > 0.0) {
    last_urr_ = (previous_entropy_ - signals.entropy) / previous_entropy_;
    if (std::fabs(last_urr_) < options_.urr_threshold) {
      ++urr_calm_rounds_;
    } else {
      urr_calm_rounds_ = 0;
    }
  }
  previous_entropy_ = signals.entropy;

  // Amount of grounding changes.
  last_cng_rate_ = static_cast<double>(signals.grounding_changes) /
                   static_cast<double>(std::max<size_t>(1, signals.num_claims));
  if (last_cng_rate_ < options_.cng_threshold) {
    ++cng_calm_rounds_;
  } else {
    cng_calm_rounds_ = 0;
  }

  // Validated predictions streak.
  if (signals.prediction_matched_input) {
    ++prediction_streak_;
  } else {
    prediction_streak_ = 0;
  }

  // Precision improvement rate (when cross-validation was run).
  if (signals.cv_precision >= 0.0) {
    if (previous_cv_precision_ > 0.0) {
      last_pir_ = (signals.cv_precision - previous_cv_precision_) /
                  previous_cv_precision_;
      pir_available_ = true;
      if (std::fabs(last_pir_) < options_.pir_threshold) {
        ++pir_calm_rounds_;
      } else {
        pir_calm_rounds_ = 0;
      }
    }
    previous_cv_precision_ = signals.cv_precision;
  }
}

TerminationMonitorState TerminationMonitor::ExportState() const {
  TerminationMonitorState state;
  state.previous_entropy = previous_entropy_;
  state.last_urr = last_urr_;
  state.urr_calm_rounds = urr_calm_rounds_;
  state.last_cng_rate = last_cng_rate_;
  state.cng_calm_rounds = cng_calm_rounds_;
  state.prediction_streak = prediction_streak_;
  state.previous_cv_precision = previous_cv_precision_;
  state.last_pir = last_pir_;
  state.pir_available = pir_available_;
  state.pir_calm_rounds = pir_calm_rounds_;
  return state;
}

void TerminationMonitor::RestoreState(const TerminationMonitorState& state) {
  previous_entropy_ = state.previous_entropy;
  last_urr_ = state.last_urr;
  urr_calm_rounds_ = static_cast<size_t>(state.urr_calm_rounds);
  last_cng_rate_ = state.last_cng_rate;
  cng_calm_rounds_ = static_cast<size_t>(state.cng_calm_rounds);
  prediction_streak_ = static_cast<size_t>(state.prediction_streak);
  previous_cv_precision_ = state.previous_cv_precision;
  last_pir_ = state.last_pir;
  pir_available_ = state.pir_available;
  pir_calm_rounds_ = static_cast<size_t>(state.pir_calm_rounds);
}

bool TerminationMonitor::ShouldStop(std::string* reason) const {
  if (options_.enable_urr && urr_calm_rounds_ >= options_.urr_patience) {
    if (reason != nullptr) *reason = "uncertainty-reduction-rate";
    return true;
  }
  if (options_.enable_cng && cng_calm_rounds_ >= options_.cng_patience) {
    if (reason != nullptr) *reason = "grounding-changes";
    return true;
  }
  if (options_.enable_pre && prediction_streak_ >= options_.pre_streak) {
    if (reason != nullptr) *reason = "validated-predictions";
    return true;
  }
  if (options_.enable_pir && pir_calm_rounds_ >= options_.pir_patience) {
    if (reason != nullptr) *reason = "precision-improvement-rate";
    return true;
  }
  return false;
}

Result<double> EstimateCvPrecision(const ICrf& icrf, const BeliefState& state,
                                   size_t folds, uint64_t seed) {
  const std::vector<ClaimId> labeled = state.LabeledClaims();
  if (labeled.size() < folds || folds == 0) {
    return Status::FailedPrecondition("EstimateCvPrecision: not enough labels");
  }
  auto split = KFoldSplit(labeled.size(), folds);
  if (!split.ok()) return split.status();
  const HypotheticalEngine& engine = icrf.hypothetical();

  double total_accuracy = 0.0;
  for (size_t fold_index = 0; fold_index < split.value().size(); ++fold_index) {
    const auto& fold = split.value()[fold_index];
    BeliefState holdout = state;
    std::vector<ClaimId> fold_claims;
    fold_claims.reserve(fold.size());
    for (const size_t index : fold) {
      fold_claims.push_back(labeled[index]);
      holdout.ClearLabel(labeled[index], 0.5);
    }
    // Re-infer over the union of the fold claims' cached neighborhoods.
    std::vector<ClaimId> scope;
    {
      std::vector<uint8_t> seen(state.num_claims(), 0);
      for (const ClaimId c : fold_claims) {
        for (const ClaimId n : engine.Neighborhood(c)) {
          if (!seen[n]) {
            seen[n] = 1;
            scope.push_back(n);
          }
        }
      }
    }
    Rng rng = CandidateRng(seed, fold_claims.front(),
                           static_cast<int>(fold_index));
    auto evaluation =
        engine.ResampleScoped(holdout, &scope, &rng, /*neutral_prior=*/true);
    if (!evaluation.ok()) return evaluation.status();
    const std::vector<double>& probs = evaluation.value().probs();
    size_t correct = 0;
    for (const ClaimId c : fold_claims) {
      const bool predicted = probs[c] >= 0.5;
      const bool user_value = state.label(c) == ClaimLabel::kCredible;
      if (predicted == user_value) ++correct;
    }
    total_accuracy +=
        static_cast<double>(correct) / static_cast<double>(fold_claims.size());
  }
  return total_accuracy / static_cast<double>(folds);
}

}  // namespace veritas
