#include "core/streaming.h"

#include <algorithm>
#include <cmath>

#include "common/math.h"
#include "common/stopwatch.h"
#include "optim/logistic.h"

namespace veritas {

StreamingFactChecker::StreamingFactChecker(const StreamingOptions& options)
    : options_(options), icrf_(&db_, options.icrf, options.seed) {}

SourceId StreamingFactChecker::AddSource(Source source) {
  return db_.AddSource(std::move(source));
}

DocumentId StreamingFactChecker::AddDocument(Document document) {
  return db_.AddDocument(std::move(document));
}

void StreamingFactChecker::SetWeights(const std::vector<double>& weights) {
  auto* theta = icrf_.mutable_model()->mutable_weights();
  const size_t n = std::min(theta->size(), weights.size());
  for (size_t i = 0; i < n; ++i) (*theta)[i] = weights[i];
}

Result<ArrivalStats> StreamingFactChecker::OnClaimArrival(
    Claim claim, const std::vector<std::pair<DocumentId, Stance>>& mentions,
    bool has_truth, bool truth) {
  // Structural updates (Alg. 2 lines 2-6) are bookkeeping; the measured
  // update time covers the model estimation (lines 8-9).
  const ClaimId id = db_.AddClaim(std::move(claim));
  if (has_truth) db_.SetGroundTruth(id, truth);
  for (const auto& [document, stance] : mentions) {
    VERITAS_RETURN_IF_ERROR(db_.AddMention(document, id, stance));
  }
  state_.Append(0.5);
  ++arrivals_;
  // The arrival changed the coupling structure: the shared hypothetical
  // engine must drop its cached neighborhoods when validation next syncs.
  icrf_.MarkStructuresStale();

  Stopwatch watch;
  ArrivalStats stats;
  stats.claim = id;

  // Ensure the model dimension matches the database features (first arrival
  // establishes it).
  const size_t want_dim = 1 + db_.document_feature_dim() + db_.source_feature_dim();
  if (icrf_.model().feature_dim() != want_dim) {
    *icrf_.mutable_model() = CrfModel(want_dim);
  }
  const CrfModel& model = icrf_.model();

  // Educated credibility guess from the current weights (direct relations
  // only; the full joint is re-estimated when validation syncs).
  double evidence = 0.0;
  std::vector<double> x;
  std::vector<std::pair<std::vector<double>, double>> clique_rows;
  for (const size_t ci : db_.ClaimCliques(id)) {
    const Clique& clique = db_.clique(ci);
    model.BuildCliqueFeatures(db_, ci, &x);
    double score = 0.0;
    const auto& theta = model.weights();
    for (size_t j = 0; j < theta.size() && j < x.size(); ++j) score += theta[j] * x[j];
    const double sign = clique.stance == Stance::kSupport ? 1.0 : -1.0;
    evidence += sign * score;
    clique_rows.emplace_back(x, sign);
  }
  const double prob = Sigmoid(evidence);
  state_.set_prob(id, prob);
  stats.initial_prob = prob;

  // Stochastic approximation of the surrogate (Eq. 29): new examples enter
  // with weight gamma_t while all previous examples decay by (1 - gamma_t).
  auto schedule = StepSchedule::Create(options_.step_a, options_.step_t0,
                                       options_.step_kappa);
  if (!schedule.ok()) return schedule.status();
  const double gamma = std::min(0.95, schedule.value().Step(arrivals_));
  log_scale_ += std::log1p(-gamma);
  for (const auto& [features, sign] : clique_rows) {
    StreamingWindowExample example;
    example.features = features;
    example.target = sign > 0.0 ? prob : 1.0 - prob;
    example.log_weight = std::log(gamma) - log_scale_;
    window_.push_back(std::move(example));
  }
  while (window_.size() > options_.window_cap) window_.pop_front();

  // M-step (Eq. 30): warm-started TRON on the decayed window.
  LogisticObjective objective(model.feature_dim(), options_.icrf.crf.l2_lambda);
  objective.Reserve(window_.size());
  for (const auto& example : window_) {
    const double weight = std::exp(example.log_weight + log_scale_);
    objective.AddExample(example.features, example.target, weight);
  }
  if (objective.num_examples() > 0) {
    TronOptions tron = options_.icrf.tron;
    tron.max_iterations = options_.tron_iterations_per_arrival;
    auto report =
        MinimizeTron(objective, icrf_.mutable_model()->mutable_weights(), tron);
    if (!report.ok()) return report.status();
  }

  stats.update_seconds = watch.ElapsedSeconds();
  return stats;
}

Result<ArrivalStats> StreamingFactChecker::OnUserLabel(ClaimId claim,
                                                       bool credible) {
  if (claim >= db_.num_claims()) {
    return Status::OutOfRange("OnUserLabel: unknown claim");
  }
  Stopwatch watch;
  ArrivalStats stats;
  stats.claim = claim;
  state_.SetLabel(claim, credible);
  stats.initial_prob = credible ? 1.0 : 0.0;

  const CrfModel& model = icrf_.model();
  std::vector<double> x;
  for (const size_t ci : db_.ClaimCliques(claim)) {
    const Clique& clique = db_.clique(ci);
    model.BuildCliqueFeatures(db_, ci, &x);
    StreamingWindowExample example;
    example.features = x;
    const double target = credible ? 1.0 : 0.0;
    example.target = clique.stance == Stance::kSupport ? target : 1.0 - target;
    // Labeled cliques enter at the labeled weight, undecayed.
    example.log_weight =
        std::log(options_.icrf.crf.labeled_weight) - log_scale_;
    window_.push_back(std::move(example));
  }
  while (window_.size() > options_.window_cap) window_.pop_front();

  LogisticObjective objective(model.feature_dim(), options_.icrf.crf.l2_lambda);
  objective.Reserve(window_.size());
  for (const auto& example : window_) {
    objective.AddExample(example.features, example.target,
                         std::exp(example.log_weight + log_scale_));
  }
  if (objective.num_examples() > 0) {
    TronOptions tron = options_.icrf.tron;
    tron.max_iterations = options_.tron_iterations_per_arrival;
    auto report =
        MinimizeTron(objective, icrf_.mutable_model()->mutable_weights(), tron);
    if (!report.ok()) return report.status();
  }
  stats.update_seconds = watch.ElapsedSeconds();
  return stats;
}

Result<InferenceStats> StreamingFactChecker::SyncForValidation() {
  VERITAS_RETURN_IF_ERROR(icrf_.SyncStructures());
  return icrf_.Infer(&state_);
}

StreamingEmState StreamingFactChecker::ExportEmState() const {
  StreamingEmState em;
  em.window.assign(window_.begin(), window_.end());
  em.log_scale = log_scale_;
  em.arrivals = arrivals_;
  return em;
}

void StreamingFactChecker::RestoreEmState(const StreamingEmState& em) {
  window_.assign(em.window.begin(), em.window.end());
  log_scale_ = em.log_scale;
  arrivals_ = static_cast<size_t>(em.arrivals);
}

void StreamingFactChecker::RestoreDatabase(FactDatabase db, BeliefState state) {
  db_ = std::move(db);
  state_ = std::move(state);
  // db_ is a member, so the engine's database pointer stays valid; only the
  // cached structures went stale.
  icrf_.MarkStructuresStale();
  const size_t want_dim =
      1 + db_.document_feature_dim() + db_.source_feature_dim();
  if (icrf_.model().feature_dim() != want_dim) {
    *icrf_.mutable_model() = CrfModel(want_dim);
  }
}

}  // namespace veritas
