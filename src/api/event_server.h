/// \file
/// The frame server of the guidance API (DESIGN.md §10–§11): one epoll
/// event thread multiplexes every connection — non-blocking accept,
/// incremental length-prefixed frame reassembly, buffered partial writes —
/// so holding thousands of mostly-idle validator connections costs file
/// descriptors, not threads. Completed frames are dispatched to a small
/// worker pool (handler calls block on session compute and think time);
/// responses come back to the event thread over an eventfd-signaled
/// completion queue and are written with backpressure handling.
///
/// Per connection, frames are answered strictly in submission order, one
/// frame in service at a time. While a connection has a frame queued, in
/// dispatch, or answered but not yet flushed, its reads are paused: a peer
/// that pipelines requests without reading the responses stalls on its own
/// socket buffers instead of growing the server's.
///
/// Per-connection read state machine:
///   [prefix: <4 buffered bytes] -> [payload: length known, bytes short]
///   -> frame complete -> pending dispatch queue -> worker -> out buffer
/// A length prefix above max_frame_bytes is protocol abuse: the connection
/// is closed immediately (no response).

#ifndef VERITAS_API_EVENT_SERVER_H_
#define VERITAS_API_EVENT_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/frame_handler.h"
#include "common/socket.h"
#include "common/thread_pool.h"

namespace veritas {

struct EventApiServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; read the assigned one from port().
  uint16_t port = 0;
  /// Reject (by closing the connection) any frame longer than this.
  size_t max_frame_bytes = kMaxFrameBytes;
  /// Handler threads draining completed frames. Dispatch calls block on
  /// step compute / queue futures, so this bounds concurrent in-flight
  /// requests — size it to at least the RequestQueue worker count behind
  /// the handler (0 = hardware concurrency).
  size_t dispatch_workers = 4;
  /// Test/fault-injection knob: cap bytes per send() attempt to force the
  /// partial-write continuation path (0 = unlimited).
  size_t max_write_chunk_bytes = 0;
};

/// A running API server. Start() binds and begins serving; Stop() (also
/// run by the destructor) closes the listener and every live connection
/// and joins all threads.
class EventApiServer {
 public:
  /// `handler` (a GuidanceApi, a SessionRouter, ...) must outlive the
  /// server.
  static Result<std::unique_ptr<EventApiServer>> Start(
      FrameHandler* handler, const EventApiServerOptions& options = {});

  ~EventApiServer();

  EventApiServer(const EventApiServer&) = delete;
  EventApiServer& operator=(const EventApiServer&) = delete;

  /// The bound port (resolves the ephemeral-port case).
  uint16_t port() const { return port_; }

  /// Connections accepted and since fully served (client disconnected).
  size_t connections_served() const;

  /// Blocks until at least `count` connections have been served. Lets a
  /// serve-one-client process (examples/veritas_server --once) exit without
  /// polling.
  void WaitForConnections(size_t count);

  /// Idempotent shutdown: closes the listener, severs live connections,
  /// joins every thread.
  void Stop();

  /// Live (accepted, not yet closed) connections — the idle-connection
  /// tests pin that these cost no threads.
  size_t connections_open() const;

 private:
  struct Connection {
    Socket socket;
    std::string in;                    ///< unparsed inbound bytes
    std::string out;                   ///< unwritten outbound bytes
    size_t out_offset = 0;             ///< [out_offset, out.size()) pending
    std::deque<std::string> pending;   ///< complete frames awaiting dispatch
    bool dispatching = false;          ///< a frame is at the worker pool
    bool read_closed = false;          ///< peer EOF (half-open: keep writing)
    bool read_paused = false;          ///< bytes arrived while not Idle
    bool dead = false;                 ///< error while dispatching: close on
                                       ///< completion
    uint32_t epoll_events = 0;         ///< currently-armed interest set
  };

  EventApiServer(FrameHandler* handler, const EventApiServerOptions& options);

  Status Init();
  void Loop();
  void HandleAccept();
  void HandleReadable(uint64_t id, Connection* conn);
  /// Extracts complete frames from conn->in. False = protocol abuse
  /// (oversized frame): caller must close.
  bool ParseFrames(Connection* conn);
  void MaybeDispatch(uint64_t id, Connection* conn);
  void DrainCompletions();
  /// Writes as much of conn->out as the kernel takes. False = fatal write
  /// error: caller must close.
  bool FlushWrites(Connection* conn);
  void UpdateInterest(uint64_t id, Connection* conn);
  /// Closes now unless a dispatch is in flight (then marks dead and defers
  /// to DrainCompletions, so the worker's result has a live entry to land
  /// in).
  void CloseConnection(uint64_t id, Connection* conn);
  /// Nothing queued, in dispatch, or unflushed: the connection may read
  /// its next frame, or be closed once the peer has stopped sending.
  bool Idle(const Connection& conn) const;
  void NotifyServed();

  FrameHandler* handler_;
  EventApiServerOptions options_;
  Socket listener_;
  uint16_t port_ = 0;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: completion queue + Stop() wakeups
  std::thread loop_thread_;
  std::unique_ptr<ThreadPool> pool_;

  std::map<uint64_t, Connection> connections_;  ///< event thread only
  uint64_t next_conn_id_ = 3;  ///< 1 = listener, 2 = wake_fd

  mutable std::mutex mu_;
  std::condition_variable served_cv_;
  size_t connections_served_ = 0;
  size_t open_ = 0;
  bool stopping_ = false;

  std::mutex completion_mu_;
  std::vector<std::pair<uint64_t, std::string>> completions_;
};

}  // namespace veritas

#endif  // VERITAS_API_EVENT_SERVER_H_
