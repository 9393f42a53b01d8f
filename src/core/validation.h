/// \file
/// The validation process (Algorithm 1, §5.1): the driver that wires the
/// whole pipeline — grounding -> inference -> guidance -> confirmation ->
/// termination — into the interactive loop. Each iteration selects claims,
/// elicits user input, runs iCRF inference, re-grounds the database,
/// updates the hybrid z-score, and consults the confirmation check and
/// termination monitor. Produces the per-iteration trace behind Figs. 3-9.

#ifndef VERITAS_CORE_VALIDATION_H_
#define VERITAS_CORE_VALIDATION_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/fields.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/batch.h"
#include "core/confirmation.h"
#include "core/grounding.h"
#include "core/icrf.h"
#include "core/strategy.h"
#include "core/termination.h"
#include "core/user_model.h"
#include "data/model.h"

namespace veritas {

/// Options of the complete validation process (Algorithm 1).
struct ValidationOptions {
  ICrfOptions icrf;
  GuidanceConfig guidance;
  StrategyKind strategy = StrategyKind::kHybrid;

  /// Effort budget b: maximum number of validations (labels + repairs).
  size_t budget = SIZE_MAX;
  /// Validation goal Delta: stop once the grounding precision (measured
  /// against ground truth, as in §8) reaches this value. Set above 1 to
  /// disable and run on budget/termination alone.
  double target_precision = 1.0;

  /// Claims validated per iteration (k = 1 disables batching, §6.2).
  size_t batch_size = 1;

  /// Confirmation check (§5.2): triggered every `confirmation_interval`
  /// validations (0 disables). Flagged labels are re-elicited from the user
  /// (a "repair", which costs additional effort, §8.5).
  size_t confirmation_interval = 0;

  /// Early-termination criteria (§6.1).
  TerminationOptions termination;

  uint64_t seed = 42;
};

template <typename V, typename S>
FieldsOf<S, ValidationOptions> VisitFields(V& v, S& o) {
  v("icrf", o.icrf);
  v("guidance", o.guidance);
  v("strategy", o.strategy);
  v("budget", o.budget);
  v("target_precision", o.target_precision);
  v("batch_size", o.batch_size);
  v("confirmation_interval", o.confirmation_interval);
  v("termination", o.termination);
  v("seed", o.seed);
}

/// The selection half of one iteration of Algorithm 1: which claims the
/// guidance stage wants validated next, or the stop decision. Produced by
/// ValidationProcess::PlanStep(); the caller elicits the verdicts (from a
/// UserModel, a service client, a crowd...) and feeds them back through
/// CompleteStep().
struct StepPlan {
  /// A stop criterion fired; `candidates` is empty and the loop is over.
  bool done = false;
  std::string stop_reason;
  /// Ranked claims to validate. Batch mode: exactly the batch (answer all).
  /// Single mode: the top-ranked claim plus fallbacks for a skipping user
  /// (answer one).
  std::vector<ClaimId> candidates;
  /// True when every candidate must be answered (batching, §6.2).
  bool batch = false;
};

/// The elicitation half of one iteration: the verdicts the user actually
/// gave, fed to ValidationProcess::CompleteStep().
struct StepAnswers {
  std::vector<ClaimId> claims;   ///< claims validated (parallel to `answers`)
  std::vector<uint8_t> answers;  ///< 1 = credible
  size_t skips = 0;              ///< ranked candidates skipped beforehand
};

template <typename V, typename S>
FieldsOf<S, StepAnswers> VisitFields(V& v, S& a) {
  v("claims", a.claims);
  v("answers", a.answers);
  v("skips", a.skips);
}

/// Everything recorded about one iteration of Algorithm 1 (the raw series
/// behind Figs. 3-9).
struct IterationRecord {
  size_t iteration = 0;
  std::vector<ClaimId> claims;   ///< validated this iteration (batch >= 1)
  std::vector<uint8_t> answers;  ///< user verdicts, parallel to `claims`
  double seconds = 0.0;          ///< response time of the iteration (Fig. 2/3)
  double entropy = 0.0;          ///< database uncertainty after inference
  double precision = 0.0;        ///< grounding precision vs ground truth
  double effort = 0.0;           ///< labelled fraction after this iteration
  double error_rate = 0.0;       ///< epsilon_i (Eq. 22)
  double z_score = 0.0;          ///< z_i (Eq. 23)
  double unreliable_ratio = 0.0; ///< r_i
  size_t repairs = 0;            ///< confirmation-check repairs
  size_t skips = 0;              ///< user skips before a validation happened
  /// Labels the confirmation check flagged this iteration. With an attached
  /// user they were re-elicited in place (see `repairs`); without one
  /// (external-answer service sessions) they await client re-validation.
  std::vector<ClaimId> flagged;
  bool prediction_matched = true;
  double urr = 0.0;              ///< indicator values for Fig. 9
  double cng = 0.0;
  size_t pre_streak = 0;
  double pir = 0.0;
};

template <typename V, typename S>
FieldsOf<S, IterationRecord> VisitFields(V& v, S& r) {
  v("iteration", r.iteration);
  v("claims", r.claims);
  v("answers", r.answers);
  v("seconds", r.seconds);
  v("entropy", r.entropy);
  v("precision", r.precision);
  v("effort", r.effort);
  v("error_rate", r.error_rate);
  v("z_score", r.z_score);
  v("unreliable_ratio", r.unreliable_ratio);
  v("repairs", r.repairs);
  v("skips", r.skips);
  v("flagged", r.flagged);
  v("prediction_matched", r.prediction_matched);
  v("urr", r.urr);
  v("cng", r.cng);
  v("pre_streak", r.pre_streak);
  v("pir", r.pir);
}

/// Outcome of a validation run.
struct ValidationOutcome {
  BeliefState state;
  Grounding grounding;
  std::vector<IterationRecord> trace;
  size_t validations = 0;     ///< user interactions spent (labels + repairs)
  size_t mistakes_made = 0;   ///< labels disagreeing with ground truth
  size_t mistakes_detected = 0;  ///< flagged by the confirmation check
  size_t mistakes_repaired = 0;
  std::string stop_reason;
  double initial_precision = 0.0;
  double final_precision = 0.0;
};

template <typename V, typename S>
FieldsOf<S, ValidationOutcome> VisitFields(V& v, S& o) {
  v("state", o.state);
  v("grounding", o.grounding);
  v("trace", o.trace);
  v("validations", o.validations);
  v("mistakes_made", o.mistakes_made);
  v("mistakes_detected", o.mistakes_detected);
  v("mistakes_repaired", o.mistakes_repaired);
  v("stop_reason", o.stop_reason);
  v("initial_precision", o.initial_precision);
  v("final_precision", o.final_precision);
}

/// Complete mutable state of a ValidationProcess between iterations,
/// exported for session checkpoints (src/service/checkpoint.h). Together
/// with the fact database and the options it fully determines the rest of
/// the run: restoring it and continuing produces bit-for-bit the posterior
/// a never-interrupted run would have produced.
struct ValidationSessionState {
  bool initialized = false;
  uint64_t iteration = 0;
  double last_error_rate = 0.0;
  uint64_t validations_since_confirmation = 0;
  std::vector<ClaimId> confirmed_labels;
  double hybrid_z = 0.0;
  TerminationMonitorState monitor;
  BeliefState state;
  Grounding grounding;
  ValidationOutcome outcome;
  RngState icrf_rng;
  bool has_strategy_rng = false;
  RngState strategy_rng;
  std::vector<double> weights;  ///< log-linear CRF weights (warm start)
};

template <typename V, typename S>
FieldsOf<S, ValidationSessionState> VisitFields(V& v, S& s) {
  v("initialized", s.initialized);
  v("iteration", s.iteration);
  v("last_error_rate", s.last_error_rate);
  v("validations_since_confirmation", s.validations_since_confirmation);
  v("confirmed_labels", s.confirmed_labels);
  v("hybrid_z", s.hybrid_z);
  v("monitor", s.monitor);
  v("state", s.state);
  v("grounding", s.grounding);
  v("outcome", s.outcome);
  v("icrf_rng", s.icrf_rng);
  v("has_strategy_rng", s.has_strategy_rng);
  v("strategy_rng", s.strategy_rng);
  v("weights", s.weights);
}

/// The complete validation process for fact checking (Algorithm 1, §5.1):
/// iteratively selects claims (strategy of §4), elicits user input, runs
/// iCRF inference, decides the grounding, and maintains the hybrid z-score,
/// optional confirmation checks, batching and early termination.
///
/// Two driving surfaces share the same internals:
///  - Run() executes Algorithm 1 to completion against the attached
///    UserModel (the batch experiments).
///  - Initialize() / PlanStep() / CompleteStep() expose one iteration as a
///    resumable select-then-answer exchange, which is what the session
///    service (src/service/) multiplexes across many concurrent checkers.
///    `user` may then be null; elicitation happens outside the process.
class ValidationProcess {
 public:
  /// `db` and `user` must outlive the process. `user` may be null when the
  /// process is driven through PlanStep()/CompleteStep() with externally
  /// elicited answers; Run() then fails, and confirmation checks flag labels
  /// (IterationRecord::flagged) without re-eliciting them. Under
  /// GuidanceVariant::kParallelPartition every step borrows ComputePool();
  /// the other variants run on the calling thread.
  ValidationProcess(const FactDatabase* db, UserModel* user,
                    const ValidationOptions& options);

  /// Runs Algorithm 1 to completion and returns the outcome.
  Result<ValidationOutcome> Run();

  /// Runs the initial inference from the maximum-entropy prior (Alg. 1
  /// lines 1-4). Idempotent; PlanStep() calls it on demand.
  Status Initialize();

  /// Selection half of one iteration: checks the stop criteria (goal,
  /// budget, early termination, claims exhausted) and, when the loop goes
  /// on, returns the claims to validate.
  Result<StepPlan> PlanStep();

  /// Elicitation half: incorporates the verdicts, runs iCRF inference,
  /// re-grounds, updates the hybrid z-score, and consults the confirmation
  /// check and the termination monitor. Must follow a PlanStep() whose
  /// `done` was false.
  Result<IterationRecord> CompleteStep(const StepAnswers& answers);

  /// Outcome accumulated so far (trace, validation/mistake counters).
  const ValidationOutcome& outcome() const { return outcome_; }

  /// Finalizes the accumulated outcome (posterior, grounding, final
  /// precision) and returns it. The process stays usable.
  ValidationOutcome FinalizedOutcome();

  /// Captures / restores the complete inter-iteration state (checkpointing;
  /// see ValidationSessionState). Restore rebuilds the inference engine so
  /// the next PlanStep() continues exactly where the exported run stood.
  ValidationSessionState ExportSessionState() const;
  Status RestoreSessionState(const ValidationSessionState& session);

  /// Elicits answers for a plan from the attached UserModel, honoring skips
  /// (§8.5). Used by Run() and by auto-answering service sessions.
  Result<StepAnswers> ElicitAnswers(const StepPlan& plan);

  const ICrf& icrf() const { return icrf_; }
  const BeliefState& state() const { return state_; }
  const Grounding& grounding() const { return grounding_; }
  const ValidationOptions& options() const { return options_; }

 private:
  Status RunConfirmationCheck(IterationRecord* record);

  const FactDatabase* db_;
  UserModel* user_;
  ValidationOptions options_;
  ThreadPool* pool_;  ///< borrowed by every step; null = calling thread
  ICrf icrf_;
  std::unique_ptr<SelectionStrategy> strategy_;
  HybridControl* hybrid_ = nullptr;  // non-null for the hybrid strategy
  BeliefState state_;
  Grounding grounding_;
  TerminationMonitor monitor_;
  ValidationOutcome outcome_;
  bool initialized_ = false;
  Stopwatch step_watch_;  ///< spans PlanStep -> CompleteStep (Fig. 2/3 time)
  size_t iteration_ = 0;
  double last_error_rate_ = 0.0;
  size_t validations_since_confirmation_ = 0;
  /// Labels the user already re-confirmed (flagged, re-elicited, unchanged).
  /// They are not flagged again unless the label changes: without this, a
  /// model that temporarily disagrees with a correct label would re-ask the
  /// user every interval until the user eventually errs — a ratchet that
  /// destroys correct labels.
  std::set<ClaimId> confirmed_labels_;
};

}  // namespace veritas

#endif  // VERITAS_CORE_VALIDATION_H_
