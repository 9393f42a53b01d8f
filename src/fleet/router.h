/// \file
/// SessionRouter (DESIGN.md §11): the fleet front end. Clients speak the
/// unchanged v1 wire protocol to the router; the router consistent-hashes
/// each session onto one of N backend veritas_server workers and forwards
/// frames, translating session ids both ways (the router owns the
/// client-visible id space; each backend owns its own). Because the codec
/// re-encodes envelopes byte-identically, forwarding is transparent — a
/// client cannot tell a router from a single server.
///
/// Fault tolerance is checkpoint-based exactly-once: with a checkpoint
/// directory configured, the router checkpoints every session on create and
/// after every `checkpoint_interval` completed steps. Any transport failure
/// to a backend is treated as that backend's death (backends never close
/// router connections while alive): the backend leaves the ring, the
/// session is restored from its checkpoint on a surviving backend, and the
/// in-flight request is retried there. Restore-then-continue is
/// bit-identical to never-checkpointed (the PR 4 guarantee), so with
/// interval 1 a mid-step crash replays deterministically and the client
/// observes the exact trace an unfailed run produces. No blind same-backend
/// retries ever happen — a lost response must NOT re-execute a step on live
/// state.
///
/// Also the fleet's admission control point: `max_sessions` caps live
/// sessions across all backends (kUnavailable on the excess create, the
/// same shed-load contract as RequestQueue admission).

#ifndef VERITAS_FLEET_ROUTER_H_
#define VERITAS_FLEET_ROUTER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/codec.h"
#include "api/frame_handler.h"
#include "api/wire.h"
#include "common/socket.h"
#include "fleet/hash_ring.h"

namespace veritas {

struct SessionRouterOptions {
  /// Backend worker addresses, "host:port". Must be non-empty and unique;
  /// every backend is probed (one connection) at Start.
  std::vector<std::string> backends;
  /// Where router-initiated checkpoints live (shared filesystem with the
  /// backends), one `session-<router id>` directory per live session,
  /// removed when the session terminates. Empty disables checkpointing —
  /// and with it failover and migration.
  std::string checkpoint_dir;
  /// Completed steps (advance/answer) between router checkpoints. 1 =
  /// checkpoint after every step: any crash replays at most the in-flight
  /// step, which is exactly-once under deterministic replay. 0 disables
  /// step checkpoints (sessions are still checkpointed on create when a
  /// directory is set).
  size_t checkpoint_interval = 1;
  /// Fleet-wide live-session cap; 0 = unlimited.
  size_t max_sessions = 0;
  /// Consistent-hash vnodes per backend (fleet/hash_ring.h).
  size_t vnodes_per_backend = 64;
};

/// Aggregate router counters (the fleet bench and failover tests read
/// these; the smoke script greps the log lines instead).
struct RouterStats {
  size_t sessions_routed = 0;    ///< creates + restores placed
  size_t sessions_live = 0;
  size_t admission_rejects = 0;
  size_t checkpoints = 0;        ///< router-initiated only
  size_t migrations = 0;
  size_t failovers = 0;
  size_t backends_live = 0;
};

/// FrameHandler over a worker fleet: host it behind an EventApiServer and
/// it IS a veritas_server to its clients. Thread-safe; operations on one
/// session serialize on that session's route (matching the per-session
/// FIFO the backends provide), distinct sessions forward concurrently.
class SessionRouter : public FrameHandler {
 public:
  /// Validates options and probes every backend with one connection (fail
  /// fast on a dead fleet member at boot).
  static Result<std::unique_ptr<SessionRouter>> Start(
      const SessionRouterOptions& options);

  std::string HandleFrame(const std::string& request_frame) override;

  RouterStats stats() const;

  /// Address of the backend currently hosting `session` (router id).
  /// kNotFound for unknown sessions. The failover test and the fleet smoke
  /// use this to aim their kill.
  Result<std::string> BackendOf(SessionId session) const;

  /// Moves `session` to `target` (a configured, live backend address):
  /// checkpoint on the source, terminate there, restore on the target.
  /// Requires a checkpoint_dir. The session id is unchanged; the trace is
  /// bit-identical across the move.
  Status Migrate(SessionId session, const std::string& target);

  /// Observer for routing/failover events ("session 3 routed to backend
  /// 127.0.0.1:9001", "backend ... marked dead: ...", "session 3 failed
  /// over to ..."). Set before serving traffic; called with no router locks
  /// held is NOT guaranteed — keep it cheap and reentrancy-free.
  void set_log(std::function<void(const std::string&)> log) {
    log_ = std::move(log);
  }

 private:
  struct Backend {
    std::string address;
    std::string host;
    uint16_t port = 0;
    bool alive = true;       ///< guarded by mu_
    std::mutex pool_mu;
    std::vector<Socket> idle;  ///< pooled connections, guarded by pool_mu
  };

  /// One routed session. `mu` serializes all operations on the session,
  /// including failover — so a retry never races a concurrent step.
  struct RouteState {
    size_t backend = 0;            ///< guarded by SessionRouter::mu_
    SessionId backend_session = 0; ///< guarded by SessionRouter::mu_
    size_t steps_since_checkpoint = 0;  ///< guarded by mu
    bool has_checkpoint = false;        ///< guarded by mu
    std::mutex mu;
  };

  explicit SessionRouter(const SessionRouterOptions& options);
  Status Init();

  ApiResponse Dispatch(const ApiRequest& request);
  ApiResponse HandleCreate(const ApiRequest& request);
  ApiResponse HandleRestore(const ApiRequest& request);
  ApiResponse HandleStats(const ApiRequest& request);
  /// Aggregates the `metrics` method across live backends (bucketwise
  /// MergeSnapshot) and folds in the router's own registry — its
  /// router-stage trace spans and failover counters live there.
  ApiResponse HandleMetrics(const ApiRequest& request);
  ApiResponse HandleSessionOp(const ApiRequest& request, SessionId session);

  /// Places a create/restore request on the ring (retrying over survivors
  /// when a pick is dead) and registers the route under `router_id`.
  ApiResponse PlaceSession(const ApiRequest& request, SessionId router_id);

  /// One forwarded round trip. A non-OK Result means TRANSPORT failure
  /// (connect/write/read/undecodable reply) — the caller must treat the
  /// backend as dead. Application failures come back OK as ErrorResponse
  /// envelopes.
  Result<ApiResponse> Forward(size_t backend, const ApiRequest& request);

  Result<Socket> AcquireConnection(size_t backend);
  void ReleaseConnection(size_t backend, Socket socket);

  /// Ring pick for a placement key; kUnavailable once the ring is empty.
  Result<size_t> PickBackend(const std::string& key) const;
  void MarkDead(size_t backend, const Status& cause);

  /// Router-initiated checkpoint of a route (route->mu held by caller).
  Status CheckpointRoute(SessionId router_id, RouteState* route);
  /// Restores the route from its checkpoint on a surviving backend
  /// (route->mu held by caller).
  Status Failover(SessionId router_id, RouteState* route);

  std::string PlacementKey(SessionId router_id) const;
  std::string CheckpointPath(SessionId router_id) const;
  void Log(const std::string& message) const;

  SessionRouterOptions options_;
  std::vector<std::unique_ptr<Backend>> backends_;
  std::map<std::string, size_t> backend_index_;
  std::function<void(const std::string&)> log_;

  mutable std::mutex mu_;
  HashRing ring_;
  std::map<SessionId, std::shared_ptr<RouteState>> routes_;
  /// (backend index, backend session id) -> router session id; translates
  /// backend StatsResponse session lists into the client-visible id space.
  std::map<std::pair<size_t, SessionId>, SessionId> reverse_;
  SessionId next_session_id_ = 1;
  size_t sessions_routed_ = 0;
  size_t admission_rejects_ = 0;
  size_t checkpoints_ = 0;
  size_t migrations_ = 0;
  size_t failovers_ = 0;
};

}  // namespace veritas

#endif  // VERITAS_FLEET_ROUTER_H_
