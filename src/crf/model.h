#ifndef VERITAS_CRF_MODEL_H_
#define VERITAS_CRF_MODEL_H_

#include <vector>

#include "common/fields.h"
#include "common/status.h"
#include "crf/mrf.h"
#include "data/model.h"
#include "optim/tron.h"

namespace veritas {

/// Constants of the CRF model and its M-step (§3). The paper fixes one
/// regularized M-step for every experiment, so these are not session options.
///
/// L2 regularization strength of the M-step (Trust Region Newton, §3.2).
inline constexpr double kL2Lambda = 1.0;
/// Weight of the previous-iteration probability prior in the Gibbs
/// conditional (the Pr^{l-1}(c) factor of Eq. 6).
inline constexpr double kPriorWeight = 0.3;
/// The prior probability is clamped to [clamp, 1 - clamp] before taking
/// its logit, bounding the hysteresis a wrong earlier estimate can exert.
inline constexpr double kPriorClamp = 0.1;
/// Example-weight multiplier for cliques of user-labelled claims in the
/// M-step (user input as first-class evidence, §3.2).
inline constexpr double kLabeledWeight = 4.0;
/// Floor on the confidence weight of unlabeled cliques in the M-step.
inline constexpr double kUnlabeledWeightFloor = 0.05;
/// Scale of the confidence term |2P-1| in unlabeled clique weights.
inline constexpr double kUnlabeledConfidenceScale = 0.3;
/// The total M-step mass of unlabeled cliques is capped at this multiple
/// of the labelled mass (at least 1.0 of absolute mass when nothing is
/// labelled). This breaks the self-training runaway: without the cap, a
/// chance-inverted model grows confident marginals, which grow confident
/// clique weights, which entrench the inversion against user input.
inline constexpr double kUnlabeledMassCapRatio = 1.0;
/// Cap on the number of coupling pairs materialized per source; larger
/// sources fall back to a ring-plus-strides topology that preserves
/// connectivity (documented approximation, see DESIGN.md).
inline constexpr size_t kMaxPairsPerSource = 200;

/// The one CRF hyper-parameter a caller varies (§3).
struct CrfConfig {
  /// Strength of the source-consistency coupling between claims sharing a
  /// source (the indirect relation of §3.1, realized as Ising couplings).
  /// Couplings are degree-normalized so that the total coupling mass on any
  /// claim is at most this value — evidence can always override hearsay.
  double coupling = 0.8;
};

template <typename V, typename S>
FieldsOf<S, CrfConfig> VisitFields(V& v, S& c) {
  v("coupling", c.coupling);
}

/// The log-linear weights of the CRF (Eq. 2). Weights are shared across
/// cliques per credibility class; for a binary output only the difference
/// vector matters, so the model stores a single theta of dimension
/// 1 + mD + mS (intercept, document features, source features). A clique's
/// score theta . x is its log-odds contribution towards "credible" when the
/// stance is support, and towards "non-credible" when the stance is refute
/// (the opposing-variable construction of Eq. 3).
class CrfModel {
 public:
  explicit CrfModel(size_t feature_dim);

  /// Builds a zero-initialized model sized for the database's features.
  static CrfModel ForDatabase(const FactDatabase& db);

  size_t feature_dim() const { return theta_.size(); }
  const std::vector<double>& weights() const { return theta_; }
  std::vector<double>* mutable_weights() { return &theta_; }

  /// Writes the clique feature vector x = [1, f^D(d), f^S(s)] into *x.
  void BuildCliqueFeatures(const FactDatabase& db, size_t clique_index,
                           std::vector<double>* x) const;

  /// theta . x for a clique (stance sign NOT applied).
  double CliqueScore(const FactDatabase& db, size_t clique_index) const;

  /// Per-claim evidence: sum over the claim's cliques of the stance-signed
  /// clique scores. This is the log-odds contribution of the direct
  /// relations (Eq. 2) towards each claim being credible.
  std::vector<double> EvidenceLogOdds(const FactDatabase& db) const;

 private:
  std::vector<double> theta_;
};

/// Materializes the source-consistency couplings of a database (independent
/// of the weights, so computed once and cached by the inference engine).
std::vector<ClaimMrf::Edge> BuildSourceCouplings(const FactDatabase& db,
                                                 const CrfConfig& config);

/// Assembles the claim MRF for one E-step: fields from the current weights
/// plus the prior carried from `prev_probs`, couplings as precomputed.
ClaimMrf BuildClaimMrf(const FactDatabase& db, const CrfModel& model,
                       const std::vector<double>& prev_probs,
                       const std::vector<ClaimMrf::Edge>& couplings);

/// M-step (Eq. 8): fits the weights by L2-regularized TRON on one soft-
/// labelled logistic example per clique. `targets` holds the current
/// credibility estimate per claim (user labels included as 0/1);
/// refuting cliques see the flipped target (opposing variables). Cliques of
/// labelled claims are up-weighted; unlabelled ones are weighted by their
/// confidence |2P - 1| (the paper's credibility weighting of cliques),
/// floored so the model never stops learning entirely. TRON runs at its
/// default options.
Result<TronReport> FitCrfWeights(const FactDatabase& db,
                                 const std::vector<double>& targets,
                                 const BeliefState& state, CrfModel* model);

}  // namespace veritas

#endif  // VERITAS_CRF_MODEL_H_
