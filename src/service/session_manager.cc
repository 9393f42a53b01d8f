#include "service/session_manager.h"

#include <filesystem>
#include <vector>

#include "obs/metrics.h"
#include "service/checkpoint.h"

namespace veritas {

namespace {

/// Registry handles, resolved once (DESIGN.md §14): lifecycle counters the
/// wire `stats` response cannot carry (it is per-request; these are
/// scrape-able over time) plus the resident-footprint gauge.
struct ManagerMetrics {
  MetricsRegistry::Counter* created;
  MetricsRegistry::Counter* evictions;
  MetricsRegistry::Counter* spill_restores;
  MetricsRegistry::Counter* restores;
  MetricsRegistry::Counter* terminates;
  MetricsRegistry::Gauge* resident_bytes;
};

const ManagerMetrics& Metrics() {
  static const ManagerMetrics metrics = [] {
    MetricsRegistry& registry = GlobalMetrics();
    ManagerMetrics m;
    m.created = registry.counter("veritas_sessions_created_total");
    m.evictions = registry.counter("veritas_session_evictions_total");
    m.spill_restores = registry.counter("veritas_session_spill_restores_total");
    m.restores = registry.counter("veritas_session_restores_total");
    m.terminates = registry.counter("veritas_session_terminates_total");
    m.resident_bytes = registry.gauge("veritas_resident_bytes");
    return m;
  }();
  return metrics;
}

}  // namespace

SessionManager::SessionManager(const SessionManagerOptions& options)
    : options_(options) {}

void SessionManager::AdjustResidentLocked(int64_t delta) {
  resident_bytes_ = static_cast<size_t>(
      static_cast<int64_t>(resident_bytes_) + delta);
  if (resident_bytes_ > peak_resident_bytes_) {
    peak_resident_bytes_ = resident_bytes_;
  }
  Metrics().resident_bytes->Set(static_cast<int64_t>(resident_bytes_));
}

SessionManager::~SessionManager() = default;

Result<SessionId> SessionManager::Create(FactDatabase db,
                                         const SessionSpec& spec) {
  auto created = Session::Create(std::move(db), spec);
  if (!created.ok()) return created.status();
  return Admit(std::move(created).value());
}

Result<SessionId> SessionManager::Admit(std::shared_ptr<Session> session) {
  const size_t footprint = session->MemoryFootprintBytes();
  SessionId id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
    Entry entry;
    entry.mode = session->mode();
    // A restored checkpoint re-imports the original run's step counter;
    // the baseline keeps the manager aggregate counting only steps THIS
    // manager serves (SessionInfo still reports the session-lifetime
    // figure).
    entry.steps_served = session->steps_served();
    entry.steps_baseline = entry.steps_served;
    entry.session = std::move(session);
    entry.last_touch = ++touch_clock_;
    entry.footprint = footprint;
    sessions_.emplace(id, std::move(entry));
    ++created_;
    AdjustResidentLocked(static_cast<int64_t>(footprint));
  }
  Metrics().created->Increment();
  const Status fitted = EnforceBudget(id);
  if (!fitted.ok()) {
    // Admission failed, so the session must not linger in the map consuming
    // the very budget that rejected it. EnforceBudget never evicts the
    // protected session, so it is still resident here.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it != sessions_.end()) {
      AdjustResidentLocked(-static_cast<int64_t>(it->second.footprint));
      sessions_.erase(it);
    }
    return fitted;
  }
  return id;
}

Result<std::shared_ptr<Session>> SessionManager::Acquire(SessionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("SessionManager: unknown session " +
                            std::to_string(id));
  }
  Entry& entry = it->second;
  if (entry.session == nullptr) {
    // Spilled: transparently restore from the checkpoint. The load happens
    // under the map lock, which is acceptable because eviction targets idle
    // sessions only — hot sessions never take this path.
    auto restored = LoadSessionCheckpoint(entry.spill_path);
    if (!restored.ok()) return restored.status();
    entry.session = std::move(restored).value();
    std::error_code ec;
    std::filesystem::remove_all(entry.spill_path, ec);
    entry.spill_path.clear();
    entry.footprint = entry.session->MemoryFootprintBytes();
    ++spill_restores_;
    AdjustResidentLocked(static_cast<int64_t>(entry.footprint));
    Metrics().spill_restores->Increment();
  }
  entry.last_touch = ++touch_clock_;
  ++entry.pins;
  return entry.session;
}

void SessionManager::Release(SessionId id, size_t footprint,
                             size_t steps_served) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;  // terminated concurrently
  if (it->second.pins > 0) --it->second.pins;
  if (footprint > 0) {
    if (it->second.session != nullptr) {
      AdjustResidentLocked(static_cast<int64_t>(footprint) -
                           static_cast<int64_t>(it->second.footprint));
    }
    it->second.footprint = footprint;
  }
  if (steps_served > it->second.steps_served) {
    it->second.steps_served = steps_served;
  }
}

Status SessionManager::EnforceBudget(SessionId keep) {
  if (options_.memory_budget_bytes == 0) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  for (;;) {
    // resident_bytes_ is maintained incrementally at every residency change
    // (AdjustResidentLocked), so the budget check is O(1) per pass instead
    // of an O(sessions) walk.
    if (resident_bytes_ <= options_.memory_budget_bytes) return Status::OK();

    // Least-recently-used resident, unpinned, not the protected session.
    SessionId victim = 0;
    uint64_t oldest = 0;
    bool found = false;
    for (const auto& [id, entry] : sessions_) {
      if (id == keep || entry.session == nullptr || entry.pins > 0) continue;
      if (!found || entry.last_touch < oldest) {
        victim = id;
        oldest = entry.last_touch;
        found = true;
      }
    }
    if (!found) {
      // Only the protected/pinned sessions remain resident; the budget is
      // respected as far as eviction can take it.
      return Status::OK();
    }
    if (options_.spill_directory.empty()) {
      return Status::Unavailable(
          "SessionManager: memory budget exhausted and no spill directory "
          "configured");
    }
    Entry& entry = sessions_[victim];
    const std::string path =
        options_.spill_directory + "/session_" + std::to_string(victim);
    // pins == 0 and mu_ held: no step is in flight and none can start, so
    // the session state is quiescent for checkpointing.
    VERITAS_RETURN_IF_ERROR(SaveSessionCheckpoint(*entry.session, path));
    entry.session.reset();
    entry.spill_path = path;
    ++evictions_;
    spill_bytes_ += CheckpointSizeBytes(path);
    AdjustResidentLocked(-static_cast<int64_t>(entry.footprint));
    Metrics().evictions->Increment();
  }
}

Result<StepResult> SessionManager::RunStep(
    SessionId id, const std::function<Result<StepResult>(Session&)>& step) {
  auto acquired = Acquire(id);
  if (!acquired.ok()) return acquired.status();
  std::shared_ptr<Session> session = std::move(acquired).value();
  size_t footprint = 0;
  size_t steps_served = 0;
  Result<StepResult> result = [&]() -> Result<StepResult> {
    std::lock_guard<std::mutex> lock(session->mutex());
    auto stepped = step(*session);
    // Footprint is read under the session lock: the moment it drops,
    // another thread may enter a step on this session.
    if (stepped.ok()) {
      footprint = session->MemoryFootprintBytes();
      steps_served = session->steps_served();
    }
    return stepped;
  }();
  Release(id, footprint, steps_served);
  // Best effort only: a budget shortfall must not swallow the result of a
  // step that already committed (see header).
  (void)EnforceBudget(id);
  return result;
}

Result<StepResult> SessionManager::Advance(SessionId id) {
  return RunStep(id, [](Session& session) { return session.Advance(); });
}

Result<StepResult> SessionManager::Answer(SessionId id,
                                          const StepAnswers& answers) {
  return RunStep(id, [&answers](Session& session) {
    return session.Answer(answers);
  });
}

Result<GroundingView> SessionManager::Ground(SessionId id) {
  auto acquired = Acquire(id);
  if (!acquired.ok()) return acquired.status();
  std::shared_ptr<Session> session = std::move(acquired).value();
  Result<GroundingView> view = [&] {
    std::lock_guard<std::mutex> lock(session->mutex());
    return session->Ground();
  }();
  Release(id, 0);
  return view;
}

Result<ValidationOutcome> SessionManager::Terminate(SessionId id) {
  auto acquired = Acquire(id);
  if (!acquired.ok()) return acquired.status();
  std::shared_ptr<Session> session = std::move(acquired).value();
  Result<ValidationOutcome> outcome = [&] {
    std::lock_guard<std::mutex> lock(session->mutex());
    return session->Finalize();
  }();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it != sessions_.end()) {
      // Finalize() itself is not a step; the entry's counter is current.
      steps_retired_ += it->second.steps_served - it->second.steps_baseline;
      if (it->second.session != nullptr) {
        AdjustResidentLocked(-static_cast<int64_t>(it->second.footprint));
      }
      sessions_.erase(it);
    }
  }
  Metrics().terminates->Increment();
  return outcome;
}

Status SessionManager::Checkpoint(SessionId id, const std::string& directory) {
  auto acquired = Acquire(id);
  if (!acquired.ok()) return acquired.status();
  std::shared_ptr<Session> session = std::move(acquired).value();
  Status saved = [&] {
    std::lock_guard<std::mutex> lock(session->mutex());
    return SaveSessionCheckpoint(*session, directory);
  }();
  Release(id, 0);
  return saved;
}

Result<SessionId> SessionManager::Restore(const std::string& directory) {
  auto restored = LoadSessionCheckpoint(directory);
  if (!restored.ok()) return restored.status();
  Metrics().restores->Increment();
  return Admit(std::move(restored).value());
}

SessionManagerStats SessionManager::StatsLocked() const {
  SessionManagerStats stats;
  stats.sessions_created = created_;
  stats.sessions_active = sessions_.size();
  stats.evictions = evictions_;
  stats.spill_restores = spill_restores_;
  stats.spill_bytes = spill_bytes_;
  stats.peak_resident_bytes = peak_resident_bytes_;
  stats.steps_served = steps_retired_;
  for (const auto& [id, entry] : sessions_) {
    stats.steps_served += entry.steps_served - entry.steps_baseline;
    if (entry.session != nullptr) {
      ++stats.sessions_resident;
      stats.resident_bytes += entry.footprint;
    } else {
      ++stats.sessions_spilled;
    }
  }
  return stats;
}

std::vector<SessionInfo> SessionManager::ListLocked() const {
  std::vector<SessionInfo> sessions;
  sessions.reserve(sessions_.size());
  for (const auto& [id, entry] : sessions_) {
    SessionInfo info;
    info.id = id;
    info.mode = entry.mode;
    info.resident = entry.session != nullptr;
    info.steps_served = entry.steps_served;
    info.footprint_bytes = entry.footprint;
    sessions.push_back(info);
  }
  return sessions;
}

SessionManagerStats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return StatsLocked();
}

std::vector<SessionInfo> SessionManager::ListSessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ListLocked();
}

ServiceStats SessionManager::Snapshot(std::vector<SessionInfo>* sessions) const {
  std::lock_guard<std::mutex> lock(mu_);
  *sessions = ListLocked();
  return StatsLocked();
}

}  // namespace veritas
