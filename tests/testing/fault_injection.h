// Fault-injection harness for fleet tests (DESIGN.md §11): an in-process
// fleet of N guidance workers, each a full veritas_server stack —
// SessionManager + RequestQueue + GuidanceApi behind a real EventApiServer
// on an ephemeral loopback port — plus a Kill() switch that emulates
// SIGKILL: the worker's server, queue, and manager are torn down
// immediately (live connections sever mid-stream; all session state is
// lost), while whatever checkpoint files the worker wrote remain on disk.
// That is exactly the failure a SessionRouter must recover from. A frame
// filter in front of a worker injects the subtler faults: a reply lost in
// transport, or a request the worker refuses.

#ifndef VERITAS_TESTS_TESTING_FAULT_INJECTION_H_
#define VERITAS_TESTS_TESTING_FAULT_INJECTION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/event_server.h"
#include "api/service.h"
#include "service/request_queue.h"
#include "service/session_manager.h"

namespace veritas {
namespace testing {

struct WorkerFleetOptions {
  size_t workers = 2;
  /// RequestQueue workers per fleet member.
  size_t queue_workers = 1;
};

/// A test's hook in front of a worker's GuidanceApi: it sees each request
/// frame first and either answers it itself (returns the reply bytes) or
/// lets the worker serve it (returns std::nullopt). Called concurrently
/// from the worker's dispatch pool, so any state it keeps must be
/// thread-safe.
using FrameFilter =
    std::function<std::optional<std::string>(const std::string& frame)>;

/// N live workers on loopback ports. Construction aborts on failure (test
/// fixture; a bind/listen failure is an environment bug, not a test case).
class WorkerFleet {
 public:
  explicit WorkerFleet(const WorkerFleetOptions& options = {});
  ~WorkerFleet();

  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  size_t size() const { return workers_.size(); }
  bool alive(size_t i) const { return workers_[i].server != nullptr; }
  uint16_t port(size_t i) const { return workers_[i].port; }
  /// "127.0.0.1:port" of worker i — the router's backend address.
  std::string address(size_t i) const;
  /// All worker addresses, in index order.
  std::vector<std::string> addresses() const;
  /// Index of the worker at `address`; aborts on an unknown address.
  size_t IndexOf(const std::string& address) const;

  /// The worker's manager (e.g. to count its live sessions). Null once
  /// killed.
  SessionManager* manager(size_t i) { return workers_[i].manager.get(); }

  /// SIGKILL emulation: severs every connection and destroys all in-memory
  /// state of worker i. Checkpoint files it wrote stay on disk. Idempotent.
  void Kill(size_t i);

  /// Puts `filter` in front of worker i from its next frame on; an empty
  /// filter removes it.
  void SetFilter(size_t i, FrameFilter filter);

 private:
  class Front;

  struct Worker {
    std::unique_ptr<SessionManager> manager;
    std::unique_ptr<RequestQueue> queue;
    std::unique_ptr<GuidanceApi> api;
    std::unique_ptr<Front> front;
    std::unique_ptr<EventApiServer> server;
    uint16_t port = 0;
  };

  std::vector<Worker> workers_;
};

}  // namespace testing
}  // namespace veritas

#endif  // VERITAS_TESTS_TESTING_FAULT_INJECTION_H_
