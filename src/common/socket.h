/// \file
/// Minimal POSIX TCP socket wrapper plus the length-prefixed frame protocol
/// of the wire-level guidance API (src/api/, DESIGN.md §10). A frame is a
/// little-endian uint32 payload length followed by the payload bytes —
/// the same fixed-width little-endian convention as data/io.h's
/// BinaryWriter. IPv4, no TLS; the deployment shape it serves is a
/// loopback (or LAN) service front end, not an internet-facing edge.
///
/// Two I/O surfaces coexist:
///  - blocking: SendAll/RecvAll/Accept and the frame helpers, used by the
///    client, the router's backend connections and the metrics endpoint.
///    They retry EINTR and, on a descriptor someone flipped non-blocking,
///    poll through EAGAIN — a short write or signal never truncates a frame.
///  - non-blocking: SetNonBlocking + SendSome/RecvSome/TryAccept, the
///    single-attempt primitives of the epoll event-loop server
///    (api/event_server.h). They retry EINTR internally and report
///    would-block/EOF explicitly instead of blocking.

#ifndef VERITAS_COMMON_SOCKET_H_
#define VERITAS_COMMON_SOCKET_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/status.h"

namespace veritas {

/// Frames larger than this are rejected by ReadFrame/WriteFrame: a corrupt
/// length prefix must not trigger a multi-gigabyte allocation.
inline constexpr size_t kMaxFrameBytes = 64u << 20;  // 64 MiB

/// Outcome of one non-blocking I/O attempt (SendSome/RecvSome). Exactly one
/// of `bytes > 0`, `would_block`, `eof` describes what happened; hard
/// errors surface as a non-OK Status instead.
struct IoResult {
  size_t bytes = 0;         ///< bytes actually transferred this attempt
  bool would_block = false; ///< EAGAIN/EWOULDBLOCK: retry once pollable
  bool eof = false;         ///< peer closed its write side (RecvSome only)
};

/// RAII wrapper over a connected or listening TCP socket file descriptor.
/// Move-only; the destructor closes the descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;

  /// Connects to host:port (dotted IPv4 or a resolvable name).
  static Result<Socket> ConnectTcp(const std::string& host, uint16_t port);

  /// Binds and listens on `bind_address`:`port` (port 0 = ephemeral; use
  /// LocalPort() to learn the assigned one). The backlog default is sized
  /// for connection bursts: a full accept queue makes the kernel drop the
  /// handshake's final ACK, and the client — which believes it connected —
  /// gets RST on its first send. 16 was observed to do exactly that under
  /// 64 simultaneous loopback connects.
  static Result<Socket> ListenTcp(const std::string& bind_address,
                                  uint16_t port, int backlog = 128);

  /// Accepts one connection on a listening socket. Blocks; returns
  /// kUnavailable once the listening descriptor is shut down/closed.
  Result<Socket> Accept() const;

  /// Non-blocking accept (listener must be SetNonBlocking): an empty
  /// optional means no connection is pending right now.
  Result<std::optional<Socket>> TryAccept() const;

  /// Port the socket is bound to (listening sockets after ListenTcp).
  Result<uint16_t> LocalPort() const;

  /// Flips O_NONBLOCK. The *Some primitives below require it on; the *All
  /// calls tolerate either mode.
  Status SetNonBlocking(bool enabled) const;

  /// Sends exactly `size` bytes: retries EINTR, loops over short writes,
  /// and polls through EAGAIN when the descriptor is non-blocking — the
  /// buffer is either fully sent or a hard error is returned. No SIGPIPE.
  Status SendAll(const void* data, size_t size) const;

  /// Receives exactly `size` bytes, with the same EINTR/short-read/EAGAIN
  /// handling as SendAll. A connection closed before the first byte returns
  /// kUnavailable ("connection closed"); closed mid-buffer returns
  /// kOutOfRange (a truncated frame).
  Status RecvAll(void* data, size_t size) const;

  /// One send attempt: transfers as many bytes as the kernel takes right
  /// now. EINTR is retried internally; EAGAIN reports would_block.
  Result<IoResult> SendSome(const void* data, size_t size) const;

  /// One recv attempt: EINTR retried, EAGAIN reports would_block, a closed
  /// peer reports eof.
  Result<IoResult> RecvSome(void* data, size_t size) const;

  /// Shuts down both directions, unblocking any thread inside
  /// Accept()/RecvAll() on this descriptor. The fd stays owned/open.
  void Shutdown() const;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

 private:
  void Close();

  int fd_ = -1;
};

/// Writes one frame: uint32 little-endian payload length, then the payload.
Status WriteFrame(const Socket& socket, const std::string& payload);

/// Reads one frame written by WriteFrame. Clean EOF before the length
/// prefix surfaces as kUnavailable ("connection closed") so servers can
/// tell an orderly disconnect from a truncated frame (kOutOfRange).
Result<std::string> ReadFrame(const Socket& socket,
                              size_t max_bytes = kMaxFrameBytes);

}  // namespace veritas

#endif  // VERITAS_COMMON_SOCKET_H_
