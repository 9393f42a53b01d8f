/// \file
/// One hosted fact-checking session: the deployment unit of the guidance
/// service (DESIGN.md §9). A session wraps either a resumable validation
/// process (Algorithm 1, batch mode) or a streaming fact checker
/// (Algorithm 2) behind a uniform advance/answer/ground/finalize surface,
/// so the SessionManager can multiplex many independent checkers — each
/// with their own database, iCRF engine and simulated (or external)
/// validator — over a bounded worker pool.

#ifndef VERITAS_SERVICE_SESSION_H_
#define VERITAS_SERVICE_SESSION_H_

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/fields.h"
#include "common/status.h"
#include "core/streaming.h"
#include "core/user_model.h"
#include "core/validation.h"
#include "data/model.h"

namespace veritas {

/// Which algorithm a session hosts.
enum class SessionMode : uint8_t { kBatch = 0, kStreaming = 1 };

constexpr Spellings<2> EnumSpellings(SessionMode) {
  return {"batch", "streaming"};
}

/// The session's validator. kNone means answers arrive externally through
/// Answer() — the deployment shape, where a human sits on the other side of
/// the API. The other kinds attach a simulated user (§8.1/§8.5) and make
/// Advance() self-contained: it elicits and incorporates in one call.
struct UserSpec {
  enum class Kind : uint8_t { kNone = 0, kOracle = 1, kErroneous = 2, kSkipping = 3 };
  Kind kind = Kind::kOracle;
  /// Error rate (kErroneous) or skip rate (kSkipping).
  double rate = 0.0;
  uint64_t seed = 7;
  /// Emulated validator round-trip per elicitation, in milliseconds. A real
  /// deployment spends most of a step's wall-clock here, which is exactly
  /// why K workers multiplex M >> K sessions; the throughput bench models
  /// it explicitly.
  double latency_ms = 0.0;
};

constexpr Spellings<4> EnumSpellings(UserSpec::Kind) {
  return {"none", "oracle", "erroneous", "skipping"};
}

template <typename V, typename S>
FieldsOf<S, UserSpec> VisitFields(V& v, S& u) {
  v("kind", u.kind);
  v("rate", u.rate);
  v("seed", u.seed);
  v("latency_ms", u.latency_ms);
}

/// Everything needed to start (or restore) a session.
struct SessionSpec {
  SessionMode mode = SessionMode::kBatch;
  ValidationOptions validation;  ///< batch mode
  StreamingOptions streaming;    ///< streaming mode
  /// Streaming: after every k-th arrival the validator labels the arrived
  /// claim (Alg. 2 line 7 exchange). 0 disables.
  size_t streaming_label_interval = 0;
  UserSpec user;
};

template <typename V, typename S>
FieldsOf<S, SessionSpec> VisitFields(V& v, S& spec) {
  v("mode", spec.mode);
  v("user", spec.user);
  v("streaming_label_interval", spec.streaming_label_interval);
  v("validation", spec.validation);
  v("streaming", spec.streaming);
}

/// Largest `num_samples` that Session::Create accepts for any Gibbs
/// schedule of a spec (`gibbs` and `hypothetical_gibbs`, batch and
/// streaming). The samplers reserve one configuration per retained sample
/// up front, so an unchecked count from the wire could exhaust memory at
/// the first step. The smallest accepted count is 1, here and for
/// `validation.guidance.fanout_samples`: the samplers refuse a count of
/// zero, so a session created with one could never step.
inline constexpr size_t kMaxGibbsSamples = 65536;

/// The work a spec may ask of one step, bounded at create so that one frame
/// cannot pin a queue worker and its session indefinitely. Each bound is far
/// above any schedule the benches and examples run.
/// Sweeps of one Gibbs schedule: `burn_in + num_samples`.
inline constexpr size_t kMaxGibbsSweeps = size_t{1} << 18;
/// `max_em_iterations` of the batch and the streaming iCRF.
inline constexpr size_t kMaxEmIterations = 64;
/// Per-candidate fan-out sweeps: `fanout_burn_in + fanout_samples`.
inline constexpr size_t kMaxFanoutSweeps = 1024;
/// `streaming.tron_iterations_per_arrival`.
inline constexpr size_t kMaxTronIterationsPerArrival = 64;

/// Outcome of one Advance()/Answer() call.
struct StepResult {
  /// The session reached a stop criterion (batch) or drained its stream.
  bool done = false;
  std::string stop_reason;
  /// Manual (kNone-user) batch session: the planned claims await Answer().
  bool awaiting_answers = false;
  std::vector<ClaimId> candidates;
  bool batch = false;
  /// A full Algorithm-1 iteration completed; `record` is its trace entry.
  bool iteration_completed = false;
  IterationRecord record;
  /// Streaming: one claim arrival was processed.
  bool arrival_processed = false;
  ArrivalStats arrival;
};

template <typename V, typename S>
FieldsOf<S, StepResult> VisitFields(V& v, S& step) {
  v("done", step.done);
  v("stop_reason", step.stop_reason);
  v("awaiting_answers", step.awaiting_answers);
  v("candidates", step.candidates);
  v("batch", step.batch);
  v("iteration_completed", step.iteration_completed);
  v("record", step.record);
  v("arrival_processed", step.arrival_processed);
  v("arrival", step.arrival);
}

/// Snapshot of a session's current grounding (the Ground() lifecycle call).
struct GroundingView {
  Grounding grounding;
  std::vector<double> probs;
  double precision = 0.0;  ///< vs ground truth where available
  size_t labeled = 0;
  size_t num_claims = 0;
};

template <typename V, typename S>
FieldsOf<S, GroundingView> VisitFields(V& v, S& view) {
  v("grounding", view.grounding);
  v("probs", view.probs);
  v("precision", view.precision);
  v("labeled", view.labeled);
  v("num_claims", view.num_claims);
}

/// A hosted fact-checking session. Not internally synchronized: callers
/// serialize access through mutex() (the SessionManager's per-session
/// locking), which lets steps of distinct sessions run in parallel while a
/// single session stays strictly ordered.
class Session {
 public:
  /// Creates a session over `db`. Batch mode validates the claims in place;
  /// streaming mode treats `db` as the source corpus — sources and
  /// documents are registered up front and the claims arrive one per
  /// Advance(), mentions and ground truth carried along. A spec asking for
  /// more work than the bounds above (kMaxGibbsSamples through
  /// kMaxTronIterationsPerArrival), or for a sample count of zero, is
  /// rejected with kInvalidArgument naming its key path.
  static Result<std::unique_ptr<Session>> Create(FactDatabase db,
                                                 const SessionSpec& spec);

  /// One unit of service work.
  /// Batch + simulated user: a full iteration (plan, elicit, infer).
  /// Batch + external answers: plans and returns `awaiting_answers`.
  /// Streaming: processes the next arrival; after the last one, syncs the
  /// engine for validation and reports `done`.
  Result<StepResult> Advance();

  /// External verdicts for a pending plan (batch) or a user label for an
  /// arrived claim (streaming; uses answers.claims/answers pairwise).
  /// Answering an already-labeled flagged claim re-validates it (a repair).
  Result<StepResult> Answer(const StepAnswers& answers);

  /// Current grounding + posterior snapshot.
  Result<GroundingView> Ground();

  /// Finalizes and returns the session outcome. The session stays readable;
  /// the manager discards it afterwards.
  Result<ValidationOutcome> Finalize();

  /// Per-session lock; all manager operations hold it around the calls
  /// above.
  std::mutex& mutex() { return mu_; }

  SessionMode mode() const { return spec_.mode; }
  const SessionSpec& spec() const { return spec_; }

  /// Rough resident size: database structure, posterior state, trace and
  /// online-EM window. Drives the manager's LRU eviction budget.
  size_t MemoryFootprintBytes() const;

  /// Total Advance()/Answer() calls served (diagnostics, LRU tie-breaks).
  size_t steps_served() const { return steps_served_; }

 private:
  friend Status SaveSessionCheckpoint(const Session& session,
                                      const std::string& directory);
  friend Result<std::unique_ptr<Session>> LoadSessionCheckpoint(
      const std::string& directory);

  Session() = default;

  Status InitBatch(FactDatabase db);
  Status InitStreaming(FactDatabase db);
  Result<StepResult> AdvanceBatch();
  Result<StepResult> AdvanceStreaming();
  void SleepUserLatency() const;

  SessionSpec spec_;
  std::mutex mu_;
  size_t steps_served_ = 0;

  // Batch mode. db_ is heap-held so the ValidationProcess' pointer stays
  // stable; user_ may be null (external answers).
  std::unique_ptr<FactDatabase> db_;
  std::unique_ptr<UserModel> user_;
  std::unique_ptr<ValidationProcess> process_;
  bool awaiting_answers_ = false;
  StepPlan pending_plan_;

  // Streaming mode. source_corpus_ holds the not-yet-arrived claims;
  // arrival_mentions_ is the per-claim mention list derived from it.
  std::unique_ptr<StreamingFactChecker> checker_;
  std::unique_ptr<FactDatabase> source_corpus_;
  std::vector<std::vector<std::pair<DocumentId, Stance>>> arrival_mentions_;
  size_t next_arrival_ = 0;
  bool stream_synced_ = false;
};

/// Builds the validator described by `spec` (null for Kind::kNone).
std::unique_ptr<UserModel> MakeUserModel(const UserSpec& spec);

}  // namespace veritas

#endif  // VERITAS_SERVICE_SESSION_H_
