// The serving stack under test, started in-process: a front EventApiServer
// over a SessionRouter over N backend EventApiServers, each a GuidanceApi
// over a SessionManager and a RequestQueue. With tracing on, two timing
// FrameHandlers are spliced in at public seams: one between the front server
// and SessionRouter::HandleFrame, and one per backend that makes the three
// calls GuidanceApi::HandleJson makes (DecodeRequest, GuidanceApi::Handle,
// EncodeResponse) and times each. Spans stay in memory until the run ends.

#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/event_server.h"
#include "api/service.h"
#include "api/wire.h"
#include "fleet/router.h"
#include "service/request_queue.h"
#include "service/session_manager.h"

namespace perfbench {

using veritas::SessionId;

/// Nanoseconds on the steady clock; every span in one run shares it.
int64_t NowNanos();

/// The trace id a client put in a request frame, read from the envelope
/// prefix without decoding the frame (the codec writes it before the
/// method and params). Empty when the frame is untraced.
std::string TraceIdOfFrame(const std::string& frame);

/// One router frame, as seen by the timing handler in front of
/// SessionRouter::HandleFrame.
struct RouterSpan {
  std::string trace_id;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One backend frame: the whole handler call plus its three parts.
struct BackendSpan {
  std::string trace_id;  ///< empty for router-initiated checkpoints
  size_t backend = 0;
  SessionId session = 0;  ///< the backend's own id space
  veritas::ApiMethod method = veritas::ApiMethod::kStats;
  bool decoded = false;
  bool ok = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t decode_ns = 0;
  int64_t handle_ns = 0;
  int64_t encode_ns = 0;
  size_t request_bytes = 0;
  size_t response_bytes = 0;
};

/// Thread-safe in-memory span store shared by the timing handlers.
class SpanStore {
 public:
  void Add(RouterSpan span);
  void Add(BackendSpan span);
  /// Moves the collected spans out.
  void Take(std::vector<RouterSpan>* router, std::vector<BackendSpan>* backend);

 private:
  std::mutex mu_;
  std::vector<RouterSpan> router_;
  std::vector<BackendSpan> backend_;
};

/// The stack's shape is fixed: 2 backends, each a RequestQueue with 2
/// workers, and 4 dispatch workers per EventApiServer (one per client
/// connection at the front, one per router connection at a backend).
struct FleetConfig {
  /// Per-backend SessionManager budget; 0 = unlimited (no spills).
  size_t memory_budget_bytes = 0;
  /// Router checkpoint after every step (interval 1); off = no checkpoints.
  bool checkpoint_each_step = false;
  /// Directory for router checkpoints and backend spills (created, and
  /// removed again when the fleet stops).
  std::string scratch_dir;
  /// Splice in the timing handlers.
  bool traced = false;
};

/// Counters read from the stack's own public stats accessors.
struct FleetCounters {
  veritas::RouterStats router;
  std::vector<veritas::RequestQueueStats> queues;         ///< per backend
  std::vector<veritas::SessionManagerStats> managers;     ///< per backend
};

class Fleet {
 public:
  static veritas::Result<std::unique_ptr<Fleet>> Start(const FleetConfig& config);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  uint16_t port() const { return front_server_->port(); }
  FleetCounters Counters() const;
  /// The router checkpoint directory of a client-visible session, so a
  /// client can delete it once the session has terminated.
  std::string CheckpointDirOf(SessionId session) const;
  SpanStore* spans() { return &spans_; }

 private:
  struct Backend;
  class RouterTimer;
  class BackendTimer;

  explicit Fleet(const FleetConfig& config);
  veritas::Status Init();

  FleetConfig config_;
  SpanStore spans_;
  std::vector<std::unique_ptr<Backend>> backends_;
  std::unique_ptr<veritas::SessionRouter> router_;
  std::unique_ptr<RouterTimer> router_timer_;
  std::unique_ptr<veritas::EventApiServer> front_server_;
};

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_
