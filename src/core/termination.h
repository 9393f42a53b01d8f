/// \file
/// Termination stage of the pipeline (grounding -> inference -> guidance ->
/// confirmation -> termination): the four convergence indicators of §6.1
/// (uncertainty-reduction rate, changes-in-grounding, prediction streak,
/// precision-improvement rate via cross-validation) that let the
/// validation process stop as soon as further user effort stops paying
/// for itself.

#ifndef VERITAS_CORE_TERMINATION_H_
#define VERITAS_CORE_TERMINATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.h"
#include "common/status.h"
#include "core/grounding.h"
#include "core/icrf.h"

namespace veritas {

/// Which early-termination criteria are armed, and their thresholds (§6.1).
struct TerminationOptions {
  bool enable_urr = false;
  double urr_threshold = 0.2;   ///< stop when the uncertainty-reduction rate
  size_t urr_patience = 3;      ///< stays below threshold this many rounds

  bool enable_cng = false;
  double cng_threshold = 0.01;  ///< fraction of claims changing grounding
  size_t cng_patience = 3;

  bool enable_pre = false;
  size_t pre_streak = 10;       ///< consecutive validated predictions

  bool enable_pir = false;
  double pir_threshold = 0.02;  ///< precision-improvement rate
  size_t pir_folds = 5;
  size_t pir_interval = 10;     ///< iterations between cross-validations
  size_t pir_patience = 2;
};

template <typename V, typename S>
FieldsOf<S, TerminationOptions> VisitFields(V& v, S& t) {
  v("enable_urr", t.enable_urr);
  v("urr_threshold", t.urr_threshold);
  v("urr_patience", t.urr_patience);
  v("enable_cng", t.enable_cng);
  v("cng_threshold", t.cng_threshold);
  v("cng_patience", t.cng_patience);
  v("enable_pre", t.enable_pre);
  v("pre_streak", t.pre_streak);
  v("enable_pir", t.enable_pir);
  v("pir_threshold", t.pir_threshold);
  v("pir_folds", t.pir_folds);
  v("pir_interval", t.pir_interval);
  v("pir_patience", t.pir_patience);
}

/// Per-iteration convergence signals fed to the monitor by the validation
/// loop. `cv_precision` is negative when cross-validation was not run this
/// iteration.
struct TerminationSignals {
  double entropy = 0.0;
  size_t grounding_changes = 0;
  size_t num_claims = 1;
  bool prediction_matched_input = false;
  double cv_precision = -1.0;
};

/// Snapshot of a TerminationMonitor's internal indicator state, exported for
/// session checkpoints (src/service/checkpoint.h): restoring it makes the
/// monitor continue its streak/patience counters exactly where it left off.
struct TerminationMonitorState {
  double previous_entropy = -1.0;
  double last_urr = 1.0;
  uint64_t urr_calm_rounds = 0;
  double last_cng_rate = 1.0;
  uint64_t cng_calm_rounds = 0;
  uint64_t prediction_streak = 0;
  double previous_cv_precision = -1.0;
  double last_pir = 1.0;
  bool pir_available = false;
  uint64_t pir_calm_rounds = 0;
};

template <typename V, typename S>
FieldsOf<S, TerminationMonitorState> VisitFields(V& v, S& m) {
  v("previous_entropy", m.previous_entropy);
  v("last_urr", m.last_urr);
  v("urr_calm_rounds", m.urr_calm_rounds);
  v("last_cng_rate", m.last_cng_rate);
  v("cng_calm_rounds", m.cng_calm_rounds);
  v("prediction_streak", m.prediction_streak);
  v("previous_cv_precision", m.previous_cv_precision);
  v("last_pir", m.last_pir);
  v("pir_available", m.pir_available);
  v("pir_calm_rounds", m.pir_calm_rounds);
}

/// Tracks the four convergence indicators of §6.1 (URR, CNG, PRE, PIR) and
/// decides when the validation process may stop early.
class TerminationMonitor {
 public:
  explicit TerminationMonitor(const TerminationOptions& options);

  /// Feeds the signals of one completed iteration.
  void Observe(const TerminationSignals& signals);

  /// True when any armed criterion has fired; *reason names it.
  bool ShouldStop(std::string* reason) const;

  // Last indicator values (plotted by the Fig. 9 bench).
  double last_urr() const { return last_urr_; }
  double last_cng_rate() const { return last_cng_rate_; }
  size_t prediction_streak() const { return prediction_streak_; }
  double last_pir() const { return last_pir_; }
  bool pir_available() const { return pir_available_; }

  /// Captures the indicator state for checkpointing.
  TerminationMonitorState ExportState() const;
  /// Restores a state captured by ExportState().
  void RestoreState(const TerminationMonitorState& state);

 private:
  TerminationOptions options_;
  double previous_entropy_ = -1.0;
  double last_urr_ = 1.0;
  size_t urr_calm_rounds_ = 0;
  double last_cng_rate_ = 1.0;
  size_t cng_calm_rounds_ = 0;
  size_t prediction_streak_ = 0;
  double previous_cv_precision_ = -1.0;
  double last_pir_ = 1.0;
  bool pir_available_ = false;
  size_t pir_calm_rounds_ = 0;
};

/// Estimated model precision by k-fold cross-validation over the labelled
/// claims (§6.1 "Precision improvement rate"): per fold, the fold's labels
/// are removed, credibility is re-inferred with frozen weights over the
/// union of the fold claims' cached coupling neighborhoods
/// (HypotheticalEngine), and the re-inferred grounding is compared with the
/// held-out user input. Each fold's chain derives from CandidateRng(seed,
/// first fold claim, fold index), so the estimate is reproducible from
/// `seed` alone. Errors when fewer labelled claims than folds exist.
Result<double> EstimateCvPrecision(const ICrf& icrf, const BeliefState& state,
                                   size_t folds, uint64_t seed);

}  // namespace veritas

#endif  // VERITAS_CORE_TERMINATION_H_
