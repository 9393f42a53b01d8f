/// \file
/// Streaming fact checking (Algorithm 2, §7): the whole pipeline
/// (grounding -> inference -> guidance -> confirmation -> termination)
/// re-hosted in a setting where claims arrive over time. Model weights are
/// maintained by online EM with stochastic approximation (Eq. 29-30)
/// instead of full re-training, and validation (Algorithm 1) runs on
/// synced snapshots, sharing the same parameter vector.

#ifndef VERITAS_CORE_STREAMING_H_
#define VERITAS_CORE_STREAMING_H_

#include <deque>
#include <utility>
#include <vector>

#include "common/fields.h"
#include "common/status.h"
#include "core/icrf.h"
#include "data/model.h"
#include "optim/online_em.h"

namespace veritas {

/// Robbins-Monro step sizes gamma_t = a / (t0 + t)^kappa of the online-EM
/// update (Eq. 29). kappa in (0.5, 1] gives sum gamma = inf and
/// sum gamma^2 < inf, the conditions under which the update converges.
inline constexpr double kStepA = 1.0;
inline constexpr double kStepT0 = 2.0;
inline constexpr double kStepKappa = 0.7;
/// Examples retained in the surrogate objective; older (down-weighted)
/// clique examples are discarded, matching the paper's "claim and user
/// input are discarded after validation".
inline constexpr size_t kWindowCap = 4096;

/// Options of streaming fact checking (Algorithm 2, §7).
struct StreamingOptions {
  ICrfOptions icrf;
  /// M-step budget per arrival (TRON outer iterations).
  size_t tron_iterations_per_arrival = 6;
  uint64_t seed = 99;
};

template <typename V, typename S>
FieldsOf<S, StreamingOptions> VisitFields(V& v, S& o) {
  v("icrf", o.icrf);
  v("tron_iterations_per_arrival", o.tron_iterations_per_arrival);
  v("seed", o.seed);
}

/// Statistics of one arrival update.
struct ArrivalStats {
  ClaimId claim = 0;
  double update_seconds = 0.0;  ///< model-update time (the §8.8 metric)
  double initial_prob = 0.5;    ///< educated guess for the new claim
};

template <typename V, typename S>
FieldsOf<S, ArrivalStats> VisitFields(V& v, S& a) {
  v("claim", a.claim);
  v("update_seconds", a.update_seconds);
  v("initial_prob", a.initial_prob);
}

/// One retained example of the online-EM surrogate objective. Public (and
/// checkpointable, src/service/checkpoint.h) because warm-starting a
/// restored streaming checker requires the exact decayed window.
struct StreamingWindowExample {
  std::vector<double> features;
  double target = 0.5;
  double log_weight = 0.0;  ///< log of gamma_t at insertion
};

template <typename V, typename S>
FieldsOf<S, StreamingWindowExample> VisitFields(V& v, S& e) {
  v("features", e.features);
  v("target", e.target);
  v("log_weight", e.log_weight);
}

/// Complete online-EM state of a StreamingFactChecker between arrivals:
/// restoring it (plus the database, weights and belief state) resumes the
/// stochastic-approximation stream exactly where the exported run stood.
struct StreamingEmState {
  std::vector<StreamingWindowExample> window;
  double log_scale = 0.0;  ///< cumulative log prod (1 - gamma_t)
  uint64_t arrivals = 0;
};

template <typename V, typename S>
FieldsOf<S, StreamingEmState> VisitFields(V& v, S& em) {
  v("window", em.window);
  v("log_scale", em.log_scale);
  v("arrivals", em.arrivals);
}

/// Streaming fact checker (Algorithm 2): owns a growing fact database and
/// maintains the CRF weights by online EM with stochastic approximation
/// (Eq. 29-30) instead of re-training on the full history. The weights are
/// shared with the validation process (Alg. 1) through the embedded ICrf
/// engine: validation runs on a synced snapshot and both algorithms update
/// the same parameter vector (Alg. 2 lines 7/10).
class StreamingFactChecker {
 public:
  explicit StreamingFactChecker(const StreamingOptions& options);

  /// Pre-registers structure (sources must exist before their documents).
  SourceId AddSource(Source source);
  DocumentId AddDocument(Document document);

  /// Alg. 2 body: appends the claim with its mentions, estimates its
  /// credibility with the current weights, and performs the stochastic-
  /// approximation parameter update.
  Result<ArrivalStats> OnClaimArrival(
      Claim claim, const std::vector<std::pair<DocumentId, Stance>>& mentions,
      bool has_truth, bool truth);

  /// User input arriving from the validation process (Alg. 1 / Alg. 2 lines
  /// 7 and 10 exchange parameters): labels the claim, injects its cliques as
  /// strongly-weighted examples into the surrogate, and re-optimizes the
  /// weights. This is what breaks the uninformative theta = 0 fixed point of
  /// pure unlabeled streaming.
  Result<ArrivalStats> OnUserLabel(ClaimId claim, bool credible);

  /// Rebuilds the inference structures over the claims so far and runs a
  /// full iCRF pass — call before invoking validation on the snapshot.
  Result<InferenceStats> SyncForValidation();

  /// The hypothetical re-inference engine shared with validation (Alg. 1
  /// and Alg. 2 guide over the same cached neighborhoods and scratch
  /// pools; arrivals invalidate it, SyncForValidation() re-binds it).
  const HypotheticalEngine& hypothetical() const {
    return icrf_.hypothetical();
  }

  const FactDatabase& db() const { return db_; }
  const BeliefState& state() const { return state_; }
  BeliefState* mutable_state() { return &state_; }
  ICrf* icrf() { return &icrf_; }
  size_t arrivals() const { return arrivals_; }

  /// Current model weights (handoff with Alg. 1).
  const std::vector<double>& weights() const { return icrf_.model().weights(); }
  void SetWeights(const std::vector<double>& weights);

  /// Retained surrogate examples (diagnostics, memory accounting).
  size_t em_window_size() const { return window_.size(); }

  /// Captures / restores the online-EM surrogate state (checkpointing).
  StreamingEmState ExportEmState() const;
  void RestoreEmState(const StreamingEmState& em);

  /// Replaces the whole database and belief state (checkpoint restore). The
  /// embedded engine is marked stale; the next SyncForValidation() rebuilds
  /// its structures over the restored claims.
  void RestoreDatabase(FactDatabase db, BeliefState state);

 private:
  /// M-step (Eq. 30): warm-started TRON on the decayed window, after the
  /// window is trimmed to kWindowCap examples.
  Status FitWindow();

  StreamingOptions options_;
  StepSchedule schedule_;
  FactDatabase db_;
  BeliefState state_;
  ICrf icrf_;
  std::deque<StreamingWindowExample> window_;
  double log_scale_ = 0.0;  ///< cumulative log prod (1 - gamma_t)
  size_t arrivals_ = 0;
};

}  // namespace veritas

#endif  // VERITAS_CORE_STREAMING_H_
