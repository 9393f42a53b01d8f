/// \file
/// SessionRouter (DESIGN.md §11): the fleet front end. Clients speak the
/// unchanged v1 wire protocol to the router; the router consistent-hashes
/// each session onto one of N backend veritas_server workers and forwards
/// frames, translating session ids both ways (the router owns the
/// client-visible id space; each backend owns its own). The router reads
/// only a frame's envelope (api/codec.h DecodeRequestEnvelope) and forwards
/// the bytes: a create or restore goes out as the client sent it, a session
/// operation with only the digits of `params.session` replaced, and a reply
/// comes back verbatim but for `result.session` of a create or restore — so
/// forwarding is transparent, and a client cannot tell a router from a
/// single server.
///
/// Fault tolerance is checkpoint-based exactly-once, with one policy: with
/// a checkpoint directory configured, the router checkpoints every session
/// on create and after every completed step (advance or answer), and a
/// step's reply leaves only once its checkpoint is acknowledged. Any
/// transport failure to a backend is treated as that backend's death
/// (backends never close router connections while alive): the backend
/// leaves the ring, the session is restored from its checkpoint on a
/// surviving backend, and the in-flight request is retried there.
/// Restore-then-continue is bit-identical to never-checkpointed, so the
/// replayed step yields the exact bytes the dead backend would have sent.
/// No blind same-backend retries ever happen — a lost response must NOT
/// re-execute a step on live state.
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
  /// and with it failover.
  std::string checkpoint_dir;
  /// Must be 1, its default: failover replays only the in-flight request,
  /// so checkpointing less often than every step would rewind a session
  /// by the steps since its last checkpoint. Start refuses any other
  /// value. Only the repository benchmark (perfbench/src/fleet.cc) still
  /// assigns it, which is why the field stays.
  size_t checkpoint_interval = 1;
  /// Fleet-wide live-session cap; 0 = unlimited.
  size_t max_sessions = 0;
};

/// Aggregate router counters (the fleet bench and failover tests read
/// these; the smoke script greps the log lines instead).
struct RouterStats {
  size_t sessions_routed = 0;    ///< creates + restores placed
  size_t sessions_live = 0;
  size_t admission_rejects = 0;
  size_t checkpoints = 0;        ///< router-initiated only
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
    bool has_checkpoint = false;   ///< guarded by mu
    std::mutex mu;
  };

  explicit SessionRouter(const SessionRouterOptions& options);
  Status Init();

  /// A create or restore opens a fleet session: admission, then placement
  /// on the ring (re-picking among survivors while a pick is dead), then
  /// the route under a new router id.
  std::string HandleCreate(const std::string& frame, const Envelope& request);
  ApiResponse HandleStats(const Envelope& request);
  /// Aggregates the `metrics` method across live backends (bucketwise
  /// MergeSnapshot) and folds in the router's own registry — its
  /// router-stage trace spans and failover counters live there.
  ApiResponse HandleMetrics(const Envelope& request);
  std::string HandleSessionOp(const std::string& frame,
                              const Envelope& request);

  /// One forwarded round trip: writes `frame`, reads the reply into
  /// `*reply` and its envelope into `*envelope` (which views `*reply`). A
  /// non-OK Status means TRANSPORT failure (connect/write/read, or a reply
  /// whose envelope does not decode) — the caller must treat the backend as
  /// dead. Application failures come back OK, as error envelopes.
  Status Forward(size_t backend, const std::string& frame, std::string* reply,
                 Envelope* envelope);
  /// A request the router makes itself (checkpoint, restore, terminate,
  /// stats, metrics): encoded, forwarded and fully decoded. A non-OK Result
  /// is a transport failure, as for Forward.
  Result<ApiResponse> Call(size_t backend, const ApiRequest& request);
  /// Call on every live backend: the replies, by backend, of those whose
  /// round trip succeeded (the others are marked dead).
  std::vector<std::pair<size_t, ApiResponse>> CallLive(
      const ApiRequest& request);

  Result<Socket> AcquireConnection(size_t backend);
  void ReleaseConnection(size_t backend, Socket socket);

  /// Ring pick for a placement key; kUnavailable once the ring is empty.
  Result<size_t> PickBackend(const std::string& key) const;
  void MarkDead(size_t backend, const Status& cause);

  /// Router-initiated checkpoint of a route (route->mu held by caller).
  /// A non-OK Status is a transport failure, as for Forward. A backend
  /// that refuses the checkpoint leaves the file on disk stale, so the
  /// route loses `has_checkpoint` until a later checkpoint lands; that
  /// refusal comes back OK.
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
  SessionId next_session_id_ = 1;
  size_t sessions_routed_ = 0;
  size_t admission_rejects_ = 0;
  size_t checkpoints_ = 0;
  size_t failovers_ = 0;
};

}  // namespace veritas

#endif  // VERITAS_FLEET_ROUTER_H_
