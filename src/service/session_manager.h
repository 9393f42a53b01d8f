/// \file
/// The concurrent session host (DESIGN.md §9): owns N independent
/// fact-checking sessions behind a thread-safe create/advance/answer/
/// ground/terminate lifecycle. Steps of distinct sessions run in parallel
/// (each session carries its own lock); a single session's steps are
/// strictly serialized. Under a configurable memory budget the manager
/// evicts least-recently-used idle sessions to checkpoint directories
/// (service/checkpoint.h) and transparently restores them on next touch —
/// the same warm-start persistence that survives process restarts.

#ifndef VERITAS_SERVICE_SESSION_MANAGER_H_
#define VERITAS_SERVICE_SESSION_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/fields.h"
#include "common/status.h"
#include "service/session.h"

namespace veritas {

using SessionId = uint64_t;

struct SessionManagerOptions {
  /// Resident-session memory budget in bytes; 0 = unlimited. When an
  /// operation pushes the resident total past the budget, LRU idle sessions
  /// are spilled to `spill_directory` until it fits (the touched session
  /// itself always stays resident).
  size_t memory_budget_bytes = 0;
  /// Where evicted sessions checkpoint. Empty with a budget set means
  /// eviction cannot spill, so Create() fails once the budget is exhausted.
  std::string spill_directory;
};

/// Aggregate service counters (diagnostics, the throughput bench, and the
/// wire API's StatsRequest — DESIGN.md §10).
struct SessionManagerStats {
  size_t sessions_created = 0;
  size_t sessions_active = 0;   ///< resident + spilled
  size_t sessions_resident = 0;
  size_t sessions_spilled = 0;  ///< evicted to checkpoint, restorable on touch
  size_t evictions = 0;
  size_t spill_restores = 0;
  size_t resident_bytes = 0;    ///< footprint estimate of resident sessions
  /// Advance()/Answer() steps served across the manager's lifetime,
  /// including sessions that have since terminated.
  size_t steps_served = 0;
  /// Checkpoint bytes written by LRU spills (manager lifetime total) — the
  /// disk-side cost of the memory budget, invisible before DESIGN.md §14.
  size_t spill_bytes = 0;
  /// High-water mark of resident_bytes, observed at every admission/budget
  /// pass; sizes the budget against actual peak demand.
  size_t peak_resident_bytes = 0;
};

template <typename V, typename S>
FieldsOf<S, SessionManagerStats> VisitFields(V& v, S& stats) {
  v("sessions_created", stats.sessions_created);
  v("sessions_active", stats.sessions_active);
  v("sessions_resident", stats.sessions_resident);
  v("sessions_spilled", stats.sessions_spilled);
  v("evictions", stats.evictions);
  v("spill_restores", stats.spill_restores);
  v("resident_bytes", stats.resident_bytes);
  v("steps_served", stats.steps_served);
  v("spill_bytes", stats.spill_bytes);
  v("peak_resident_bytes", stats.peak_resident_bytes);
}

/// The per-manager snapshot name the wire API uses (api/wire.h).
using ServiceStats = SessionManagerStats;

/// One row of ListSessions(): enough for a remote operator to see what the
/// manager hosts without touching (and thereby restoring) any session.
struct SessionInfo {
  SessionId id = 0;
  SessionMode mode = SessionMode::kBatch;
  bool resident = true;       ///< false while spilled to checkpoint
  size_t steps_served = 0;    ///< as of the session's last completed step
  size_t footprint_bytes = 0; ///< last MemoryFootprintBytes() estimate
};

template <typename V, typename S>
FieldsOf<S, SessionInfo> VisitFields(V& v, S& info) {
  v("id", info.id);
  v("mode", info.mode);
  v("resident", info.resident);
  v("steps_served", info.steps_served);
  v("footprint_bytes", info.footprint_bytes);
}

/// Thread-safe multi-session host. All public methods may be called
/// concurrently from any thread.
class SessionManager {
 public:
  explicit SessionManager(const SessionManagerOptions& options = {});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Creates a session over `db` per `spec` and returns its id.
  Result<SessionId> Create(FactDatabase db, const SessionSpec& spec);

  /// One unit of work on the session (see Session::Advance).
  Result<StepResult> Advance(SessionId id);

  /// External verdicts for the session's pending step (see Session::Answer).
  Result<StepResult> Answer(SessionId id, const StepAnswers& answers);

  /// Current grounding + posterior snapshot.
  Result<GroundingView> Ground(SessionId id);

  /// Finalizes the session, removes it, and returns its outcome.
  Result<ValidationOutcome> Terminate(SessionId id);

  /// Checkpoints the session to `directory` (it stays active).
  Status Checkpoint(SessionId id, const std::string& directory);

  /// Restores a checkpointed session as a NEW session of this manager.
  Result<SessionId> Restore(const std::string& directory);

  SessionManagerStats stats() const;

  /// Snapshot of every hosted session, in id order. Spilled sessions are
  /// reported from their cached metadata — listing never forces a restore.
  std::vector<SessionInfo> ListSessions() const;

  /// Atomic combined snapshot: the stats and the session list observe the
  /// same instant (stats().sessions_active == sessions->size() always).
  /// This is what StatsRequest serves — two separate calls could straddle a
  /// concurrent Create/Terminate and disagree.
  ServiceStats Snapshot(std::vector<SessionInfo>* sessions) const;

 private:
  struct Entry {
    std::shared_ptr<Session> session;  ///< null while spilled
    std::string spill_path;            ///< non-empty while spilled
    uint64_t last_touch = 0;
    size_t footprint = 0;  ///< last MemoryFootprintBytes() of the session
    /// In-flight operations. A pinned session is never evicted: eviction
    /// checkpoints session state, which must be quiescent.
    size_t pins = 0;
    /// Cached for ListSessions()/stats() so spilled sessions stay listable.
    SessionMode mode = SessionMode::kBatch;
    size_t steps_served = 0;
    /// Steps the session had already served when it entered THIS manager
    /// (non-zero for sessions restored from a checkpoint). The manager's
    /// aggregate counts steps_served - steps_baseline, so restoring a
    /// checkpoint does not re-claim the steps the original run served.
    size_t steps_baseline = 0;
  };

  /// The one admission path of Create() and Restore(): registers the
  /// session under a fresh id, counts it, then enforces the budget and, on
  /// refusal, takes the session out again and returns the refusal.
  Result<SessionId> Admit(std::shared_ptr<Session> session);

  /// Pins the session resident (restoring it from spill when needed) and
  /// returns it. Bumps the LRU clock.
  Result<std::shared_ptr<Session>> Acquire(SessionId id);

  /// Drops the pin taken by Acquire() and records the fresh footprint and
  /// steps-served estimates (0 = leave unchanged; both only grow).
  void Release(SessionId id, size_t footprint, size_t steps_served = 0);

  /// Spills LRU idle sessions until the resident total fits the budget
  /// again. Never evicts `keep` or any pinned session.
  Status EnforceBudget(SessionId keep);

  /// The shared acquire → lock → step → release → budget protocol behind
  /// Advance() and Answer(). A budget shortfall after the step is NOT an
  /// error: the step already committed (verdict consumed, RNG advanced),
  /// so its result must reach the caller — the budget gates admission
  /// (Create/Restore), not completed work.
  Result<StepResult> RunStep(
      SessionId id, const std::function<Result<StepResult>(Session&)>& step);

  SessionManagerOptions options_;
  mutable std::mutex mu_;  ///< guards the map, LRU clock and counters
  std::map<SessionId, Entry> sessions_;
  SessionId next_id_ = 1;
  uint64_t touch_clock_ = 0;
  size_t created_ = 0;
  size_t evictions_ = 0;
  size_t spill_restores_ = 0;
  size_t spill_bytes_ = 0;
  size_t peak_resident_bytes_ = 0;
  /// Running resident-footprint total, updated at every residency change
  /// (create, spill, restore, release, terminate) so peak tracking and the
  /// resident-bytes gauge are O(1) per step instead of an O(sessions) walk.
  size_t resident_bytes_ = 0;
  /// Requires mu_. Applies a residency delta and folds the new total into
  /// the peak and the registry gauge.
  void AdjustResidentLocked(int64_t delta);
  /// Requires mu_. Shared body of stats()/Snapshot().
  SessionManagerStats StatsLocked() const;
  /// Requires mu_. Shared body of ListSessions()/Snapshot().
  std::vector<SessionInfo> ListLocked() const;

  /// Steps served by sessions that have since been terminated (net of
  /// their baselines); live sessions contribute steps_served -
  /// steps_baseline on top.
  size_t steps_retired_ = 0;
};

}  // namespace veritas

#endif  // VERITAS_SERVICE_SESSION_MANAGER_H_
