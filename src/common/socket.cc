#include "common/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace veritas {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

bool IsWouldBlock(int err) { return err == EAGAIN || err == EWOULDBLOCK; }

/// Blocks until `fd` is ready for `events` (POLLIN/POLLOUT), retrying
/// EINTR. Lets the *All calls make progress on a non-blocking descriptor.
void PollFor(int fd, short events) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  while (::poll(&pfd, 1, -1) < 0 && errno == EINTR) {
  }
}

}  // namespace

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Socket> Socket::ConnectTcp(const std::string& host, uint16_t port) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* addrs = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &addrs);
  if (rc != 0 || addrs == nullptr) {
    return Status::Unavailable("Socket: cannot resolve " + host + ": " +
                               gai_strerror(rc));
  }
  Status last = Status::Unavailable("Socket: no address to connect to");
  for (struct addrinfo* a = addrs; a != nullptr; a = a->ai_next) {
    const int fd = ::socket(a->ai_family, a->ai_socktype, a->ai_protocol);
    if (fd < 0) {
      last = Status::Unavailable(Errno("Socket: socket()"));
      continue;
    }
    if (::connect(fd, a->ai_addr, a->ai_addrlen) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::freeaddrinfo(addrs);
      return Socket(fd);
    }
    last = Status::Unavailable(Errno("Socket: connect(" + host + ":" +
                                     std::to_string(port) + ")"));
    ::close(fd);
  }
  ::freeaddrinfo(addrs);
  return last;
}

Result<Socket> Socket::ListenTcp(const std::string& bind_address,
                                 uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Unavailable(Errno("Socket: socket()"));
  Socket socket(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("Socket: bad bind address " + bind_address);
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Unavailable(
        Errno("Socket: bind(" + bind_address + ":" + std::to_string(port) + ")"));
  }
  if (::listen(fd, backlog) != 0) {
    return Status::Unavailable(Errno("Socket: listen()"));
  }
  return socket;
}

Result<Socket> Socket::Accept() const {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Status::Unavailable(Errno("Socket: accept()"));
  }
}

Result<std::optional<Socket>> Socket::TryAccept() const {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return std::optional<Socket>(Socket(fd));
    }
    if (errno == EINTR) continue;
    if (IsWouldBlock(errno)) return std::optional<Socket>();
    return Status::Unavailable(Errno("Socket: accept()"));
  }
}

Status Socket::SetNonBlocking(bool enabled) const {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return Status::Internal(Errno("Socket: fcntl(F_GETFL)"));
  const int updated = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, updated) < 0) {
    return Status::Internal(Errno("Socket: fcntl(F_SETFL)"));
  }
  return Status::OK();
}

Result<uint16_t> Socket::LocalPort() const {
  struct sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<struct sockaddr*>(&addr), &len) != 0) {
    return Status::Internal(Errno("Socket: getsockname()"));
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Status Socket::SendAll(const void* data, size_t size) const {
  const char* bytes = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd_, bytes + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (IsWouldBlock(errno)) {
        // Non-blocking descriptor with a full send buffer: a short write
        // must not truncate the stream — wait for room and continue.
        PollFor(fd_, POLLOUT);
        continue;
      }
      return Status::Unavailable(Errno("Socket: send()"));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Socket::RecvAll(void* data, size_t size) const {
  char* bytes = static_cast<char*>(data);
  size_t received = 0;
  while (received < size) {
    const ssize_t n = ::recv(fd_, bytes + received, size - received, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (IsWouldBlock(errno)) {
        PollFor(fd_, POLLIN);
        continue;
      }
      return Status::Unavailable(Errno("Socket: recv()"));
    }
    if (n == 0) {
      return received == 0
                 ? Status::Unavailable("Socket: connection closed")
                 : Status::OutOfRange("Socket: connection closed mid-frame");
    }
    received += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<IoResult> Socket::SendSome(const void* data, size_t size) const {
  for (;;) {
    const ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
    if (n >= 0) {
      IoResult result;
      result.bytes = static_cast<size_t>(n);
      return result;
    }
    if (errno == EINTR) continue;
    if (IsWouldBlock(errno)) {
      IoResult result;
      result.would_block = true;
      return result;
    }
    return Status::Unavailable(Errno("Socket: send()"));
  }
}

Result<IoResult> Socket::RecvSome(void* data, size_t size) const {
  for (;;) {
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n > 0) {
      IoResult result;
      result.bytes = static_cast<size_t>(n);
      return result;
    }
    if (n == 0) {
      IoResult result;
      result.eof = true;
      return result;
    }
    if (errno == EINTR) continue;
    if (IsWouldBlock(errno)) {
      IoResult result;
      result.would_block = true;
      return result;
    }
    return Status::Unavailable(Errno("Socket: recv()"));
  }
}

void Socket::Shutdown() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Status WriteFrame(const Socket& socket, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("WriteFrame: payload exceeds frame limit");
  }
  const uint32_t size = static_cast<uint32_t>(payload.size());
  uint8_t prefix[4] = {static_cast<uint8_t>(size & 0xff),
                       static_cast<uint8_t>((size >> 8) & 0xff),
                       static_cast<uint8_t>((size >> 16) & 0xff),
                       static_cast<uint8_t>((size >> 24) & 0xff)};
  VERITAS_RETURN_IF_ERROR(socket.SendAll(prefix, sizeof(prefix)));
  return payload.empty() ? Status::OK()
                         : socket.SendAll(payload.data(), payload.size());
}

Result<std::string> ReadFrame(const Socket& socket, size_t max_bytes) {
  uint8_t prefix[4];
  VERITAS_RETURN_IF_ERROR(socket.RecvAll(prefix, sizeof(prefix)));
  const uint32_t size = static_cast<uint32_t>(prefix[0]) |
                        (static_cast<uint32_t>(prefix[1]) << 8) |
                        (static_cast<uint32_t>(prefix[2]) << 16) |
                        (static_cast<uint32_t>(prefix[3]) << 24);
  if (size > max_bytes) {
    return Status::InvalidArgument("ReadFrame: frame of " +
                                   std::to_string(size) +
                                   " bytes exceeds the limit");
  }
  std::string payload(size, '\0');
  if (size > 0) {
    const Status received = socket.RecvAll(&payload[0], size);
    if (!received.ok()) {
      // The prefix promised `size` payload bytes: a close anywhere after it
      // — including exactly at the prefix/payload boundary — is a
      // truncated frame, not an orderly EOF.
      if (received.code() == StatusCode::kUnavailable) {
        return Status::OutOfRange("Socket: connection closed mid-frame");
      }
      return received;
    }
  }
  return payload;
}

}  // namespace veritas
