#include "api/event_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iterator>
#include <utility>

#include "obs/metrics.h"

namespace veritas {

namespace {

constexpr uint64_t kListenerId = 1;
constexpr uint64_t kWakeId = 2;

/// Wire-level registry handles. The transport="event" label predates the
/// server being the only transport; it stays so no exported series is
/// renamed.
struct WireMetrics {
  MetricsRegistry::Counter* connections;
  MetricsRegistry::Counter* frames;
  MetricsRegistry::Counter* bytes_read;
  MetricsRegistry::Counter* bytes_written;
  MetricsRegistry::Counter* frame_errors;
};

const WireMetrics& Metrics() {
  static const WireMetrics metrics = [] {
    MetricsRegistry& registry = GlobalMetrics();
    const auto name = [](const char* family) {
      return WithLabel(family, "transport", "event");
    };
    WireMetrics m;
    m.connections = registry.counter(name("veritas_wire_connections_total"));
    m.frames = registry.counter(name("veritas_wire_frames_total"));
    m.bytes_read = registry.counter(name("veritas_wire_bytes_read_total"));
    m.bytes_written = registry.counter(name("veritas_wire_bytes_written_total"));
    m.frame_errors = registry.counter(name("veritas_wire_frame_errors_total"));
    return m;
  }();
  return metrics;
}

uint32_t DecodeLength(const char* bytes) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(bytes);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

void AppendFrame(std::string* out, const std::string& payload) {
  const uint32_t size = static_cast<uint32_t>(payload.size());
  const char prefix[4] = {static_cast<char>(size & 0xff),
                          static_cast<char>((size >> 8) & 0xff),
                          static_cast<char>((size >> 16) & 0xff),
                          static_cast<char>((size >> 24) & 0xff)};
  out->append(prefix, sizeof(prefix));
  out->append(payload);
}

}  // namespace

EventApiServer::EventApiServer(FrameHandler* handler,
                               const EventApiServerOptions& options)
    : handler_(handler), options_(options) {}

Result<std::unique_ptr<EventApiServer>> EventApiServer::Start(
    FrameHandler* handler, const EventApiServerOptions& options) {
  std::unique_ptr<EventApiServer> server(
      new EventApiServer(handler, options));
  VERITAS_RETURN_IF_ERROR(server->Init());
  server->loop_thread_ = std::thread([raw = server.get()] { raw->Loop(); });
  return server;
}

Status EventApiServer::Init() {
  auto listener = Socket::ListenTcp(options_.bind_address, options_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  auto port = listener_.LocalPort();
  if (!port.ok()) return port.status();
  port_ = port.value();
  VERITAS_RETURN_IF_ERROR(listener_.SetNonBlocking(true));

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    return Status::Internal(std::string("EventApiServer: epoll_create1: ") +
                            std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    return Status::Internal(std::string("EventApiServer: eventfd: ") +
                            std::strerror(errno));
  }
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev) != 0) {
    return Status::Internal("EventApiServer: epoll_ctl(listener)");
  }
  ev.data.u64 = kWakeId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Status::Internal("EventApiServer: epoll_ctl(eventfd)");
  }
  pool_ = std::make_unique<ThreadPool>(options_.dispatch_workers);
  return Status::OK();
}

EventApiServer::~EventApiServer() { Stop(); }

void EventApiServer::Loop() {
  struct epoll_event events[64];
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events,
                               static_cast<int>(std::size(events)), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd gone: shutdown already tore the loop down
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      const uint32_t flags = events[i].events;
      if (id == kListenerId) {
        HandleAccept();
        continue;
      }
      if (id == kWakeId) {
        uint64_t value = 0;
        // Nonblocking drain of the wakeup counter; the payload is in
        // completions_.
        while (::read(wake_fd_, &value, sizeof(value)) > 0) {
        }
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (stopping_) return;
        }
        DrainCompletions();
        continue;
      }
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;
      Connection* conn = &it->second;
      if (flags & EPOLLERR) {
        CloseConnection(id, conn);
        continue;
      }
      if (flags & (EPOLLIN | EPOLLHUP)) {
        HandleReadable(id, conn);
        it = connections_.find(id);
        if (it == connections_.end()) continue;
        conn = &it->second;
      }
      if (flags & EPOLLOUT) {
        if (!FlushWrites(conn)) {
          CloseConnection(id, conn);
          continue;
        }
        if (conn->read_closed && Idle(*conn)) {
          CloseConnection(id, conn);
          continue;
        }
        UpdateInterest(id, conn);
      }
    }
  }
}

void EventApiServer::HandleAccept() {
  for (;;) {
    auto accepted = listener_.TryAccept();
    if (!accepted.ok()) return;  // listener torn down
    if (!accepted.value().has_value()) return;
    Socket socket = std::move(*std::move(accepted).value());
    if (!socket.SetNonBlocking(true).ok()) continue;
    const uint64_t id = next_conn_id_++;
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, socket.fd(), &ev) != 0) {
      continue;  // drop the connection; socket closes on scope exit
    }
    Connection conn;
    conn.socket = std::move(socket);
    conn.epoll_events = EPOLLIN;
    connections_.emplace(id, std::move(conn));
    Metrics().connections->Increment();
    std::lock_guard<std::mutex> lock(mu_);
    ++open_;
  }
}

void EventApiServer::HandleReadable(uint64_t id, Connection* conn) {
  if (!Idle(*conn)) {
    // Bytes arrived while a frame is still in service: stop reading until
    // it is answered, so a pipelining peer meets TCP backpressure instead
    // of growing our buffers. Pausing only now, not on every dispatch,
    // keeps a closed-loop client free of extra epoll_ctl calls.
    conn->read_paused = true;
    UpdateInterest(id, conn);
    return;
  }
  char buffer[16384];
  // Idle means nothing is pending: read until a whole frame is.
  while (conn->pending.empty()) {
    auto received = conn->socket.RecvSome(buffer, sizeof(buffer));
    if (!received.ok()) {
      CloseConnection(id, conn);
      return;
    }
    if (received.value().would_block) break;
    if (received.value().eof) {
      conn->read_closed = true;
      break;
    }
    conn->in.append(buffer, received.value().bytes);
    Metrics().bytes_read->Increment(received.value().bytes);
    if (!ParseFrames(conn)) {
      // Oversized length prefix: protocol abuse, close without a response.
      Metrics().frame_errors->Increment();
      CloseConnection(id, conn);
      return;
    }
  }
  MaybeDispatch(id, conn);
  if (conn->read_closed && Idle(*conn)) {
    CloseConnection(id, conn);
    return;
  }
  UpdateInterest(id, conn);
}

bool EventApiServer::ParseFrames(Connection* conn) {
  // One pass and one erase: erasing each frame from the front would make k
  // frames in b buffered bytes cost O(k*b).
  size_t at = 0;
  while (conn->in.size() - at >= 4) {
    const uint32_t length = DecodeLength(conn->in.data() + at);
    if (length > options_.max_frame_bytes) return false;
    if (conn->in.size() - at - 4 < length) break;
    conn->pending.push_back(conn->in.substr(at + 4, length));
    at += 4 + static_cast<size_t>(length);
    Metrics().frames->Increment();
  }
  conn->in.erase(0, at);
  return true;
}

void EventApiServer::MaybeDispatch(uint64_t id, Connection* conn) {
  if (conn->dispatching || conn->pending.empty()) return;
  std::string frame = std::move(conn->pending.front());
  conn->pending.pop_front();
  conn->dispatching = true;
  pool_->Submit([this, id, frame = std::move(frame)] {
    std::string response = handler_->HandleFrame(frame);
    {
      std::lock_guard<std::mutex> lock(completion_mu_);
      completions_.emplace_back(id, std::move(response));
    }
    const uint64_t one = 1;
    // Best-effort: a torn-down server has already stopped draining.
    [[maybe_unused]] const ssize_t n =
        ::write(wake_fd_, &one, sizeof(one));
  });
}

void EventApiServer::DrainCompletions() {
  std::vector<std::pair<uint64_t, std::string>> done;
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    done.swap(completions_);
  }
  for (auto& completion : done) {
    const uint64_t id = completion.first;
    auto it = connections_.find(id);
    if (it == connections_.end()) continue;
    Connection* conn = &it->second;
    conn->dispatching = false;
    if (conn->dead) {
      connections_.erase(it);
      NotifyServed();
      continue;
    }
    AppendFrame(&conn->out, completion.second);
    if (!FlushWrites(conn)) {
      CloseConnection(id, conn);
      continue;
    }
    MaybeDispatch(id, conn);
    if (conn->read_closed && Idle(*conn)) {
      CloseConnection(id, conn);
      continue;
    }
    UpdateInterest(id, conn);
  }
}

bool EventApiServer::FlushWrites(Connection* conn) {
  while (conn->out_offset < conn->out.size()) {
    size_t chunk = conn->out.size() - conn->out_offset;
    if (options_.max_write_chunk_bytes > 0 &&
        chunk > options_.max_write_chunk_bytes) {
      chunk = options_.max_write_chunk_bytes;
    }
    auto sent = conn->socket.SendSome(conn->out.data() + conn->out_offset,
                                      chunk);
    if (!sent.ok()) return false;
    if (sent.value().would_block) break;
    conn->out_offset += sent.value().bytes;
    Metrics().bytes_written->Increment(sent.value().bytes);
  }
  if (conn->out_offset >= conn->out.size()) {
    conn->out.clear();
    conn->out_offset = 0;
  }
  return true;
}

void EventApiServer::UpdateInterest(uint64_t id, Connection* conn) {
  if (Idle(*conn)) conn->read_paused = false;
  uint32_t want = 0;
  if (!conn->read_closed && !conn->read_paused) want |= EPOLLIN;
  if (conn->out_offset < conn->out.size()) want |= EPOLLOUT;
  if (want == conn->epoll_events) return;
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = want;
  ev.data.u64 = id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->socket.fd(), &ev);
  conn->epoll_events = want;
}

void EventApiServer::CloseConnection(uint64_t id, Connection* conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->socket.fd(), nullptr);
  if (conn->dispatching) {
    // A worker still owns a frame of this connection: sever the stream now,
    // drop the entry when its completion lands (DrainCompletions).
    conn->dead = true;
    conn->socket.Shutdown();
    return;
  }
  connections_.erase(id);
  NotifyServed();
}

bool EventApiServer::Idle(const Connection& conn) const {
  // Leftover bytes in `in` are deliberately ignored: ParseFrames has taken
  // every whole frame, so what remains is a partial frame — still arriving,
  // or truncated garbage once the peer's write side closed.
  return conn.pending.empty() && !conn.dispatching &&
         conn.out_offset >= conn.out.size();
}

void EventApiServer::NotifyServed() {
  std::lock_guard<std::mutex> lock(mu_);
  ++connections_served_;
  --open_;
  served_cv_.notify_all();
}

size_t EventApiServer::connections_served() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connections_served_;
}

size_t EventApiServer::connections_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_;
}

void EventApiServer::WaitForConnections(size_t count) {
  std::unique_lock<std::mutex> lock(mu_);
  served_cv_.wait(lock, [&] { return connections_served_ >= count; });
}

void EventApiServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
  if (loop_thread_.joinable()) loop_thread_.join();
  // Joins the dispatch workers: after this no task can touch the fds or the
  // completion queue again.
  pool_.reset();
  for (auto& entry : connections_) entry.second.socket.Shutdown();
  connections_.clear();
  listener_.Shutdown();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
}

}  // namespace veritas
