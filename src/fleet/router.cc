#include "fleet/router.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace veritas {

namespace {

/// Router registry handles (DESIGN.md §14): fleet events the RouterStats
/// struct also counts (these are scrape-able over time and merge into the
/// fleet-wide `metrics` aggregate) plus the per-round-trip forward latency
/// and the router-stage trace span.
struct RouterMetrics {
  MetricsRegistry::Counter* failovers;
  /// Backends marked dead. Exported as `ring_changes`, a name kept from
  /// when placement used a hash ring: exported series names stay stable.
  MetricsRegistry::Counter* backend_deaths;
  MetricsRegistry::Counter* admission_rejects;
  MetricsRegistry::Histogram* forward_seconds;
  MetricsRegistry::Histogram* router_span;
};

const RouterMetrics& Metrics() {
  static const RouterMetrics metrics = [] {
    MetricsRegistry& registry = GlobalMetrics();
    RouterMetrics m;
    m.failovers = registry.counter("veritas_router_failovers_total");
    m.backend_deaths = registry.counter("veritas_router_ring_changes_total");
    m.admission_rejects =
        registry.counter("veritas_router_admission_rejects_total");
    m.forward_seconds = registry.histogram("veritas_router_forward_seconds");
    m.router_span = registry.histogram(TraceSpanMetricName("router"));
    return m;
  }();
  return metrics;
}

/// Splits "host:port". The host may not contain ':' (IPv4/hostname only,
/// matching common/socket.h).
Status ParseAddress(const std::string& address, std::string* host,
                    uint16_t* port) {
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= address.size()) {
    return Status::InvalidArgument("backend address must be host:port: '" +
                                   address + "'");
  }
  *host = address.substr(0, colon);
  char* end = nullptr;
  const unsigned long value =
      std::strtoul(address.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || value == 0 || value > 65535) {
    return Status::InvalidArgument("bad port in backend address '" + address +
                                   "'");
  }
  *port = static_cast<uint16_t>(value);
  return Status::OK();
}

/// `frame` with the bytes of `literal` (a view into it) replaced by the
/// decimal `session`.
std::string SpliceSession(std::string_view frame, std::string_view literal,
                          SessionId session) {
  const size_t at = static_cast<size_t>(literal.data() - frame.data());
  const std::string digits = std::to_string(session);
  std::string out;
  out.reserve(frame.size() - literal.size() + digits.size());
  out.append(frame, 0, at).append(digits).append(frame, at + literal.size());
  return out;
}

/// A response the router makes itself, echoing the request's id and trace
/// id; one that cannot serialize degrades to an error envelope.
std::string EncodeReply(const Envelope& request, ApiResponse response) {
  response.id = request.id;
  response.trace_id = request.trace_id;
  auto encoded = EncodeResponse(response);
  if (encoded.ok()) return std::move(encoded).value();
  auto fallback =
      EncodeResponse(MakeErrorResponse(request.id, encoded.status()));
  return fallback.ok() ? std::move(fallback).value() : std::string("{}");
}

std::string EncodeError(const Envelope& request, const Status& status) {
  return EncodeReply(request, MakeErrorResponse(request.id, status));
}

}  // namespace

SessionRouter::SessionRouter(const SessionRouterOptions& options)
    : options_(options) {}

Result<std::unique_ptr<SessionRouter>> SessionRouter::Start(
    const SessionRouterOptions& options) {
  if (options.backends.empty()) {
    return Status::InvalidArgument("SessionRouter: no backends configured");
  }
  if (options.checkpoint_interval != 1) {
    return Status::InvalidArgument(
        "SessionRouter: checkpoint_interval must be 1, not " +
        std::to_string(options.checkpoint_interval) +
        ": failover replays only the in-flight request, so a session "
        "checkpointed less often than every step would be rewound");
  }
  std::unique_ptr<SessionRouter> router(new SessionRouter(options));
  VERITAS_RETURN_IF_ERROR(router->Init());
  return router;
}

Status SessionRouter::Init() {
  for (const std::string& address : options_.backends) {
    for (const auto& existing : backends_) {
      if (existing->address == address) {
        return Status::InvalidArgument("duplicate backend address '" +
                                       address + "'");
      }
    }
    auto backend = std::make_unique<Backend>();
    backend->address = address;
    VERITAS_RETURN_IF_ERROR(
        ParseAddress(address, &backend->host, &backend->port));
    // Boot probe: a fleet member that is down at start is a config error,
    // not a failover case. The probe connection seeds the pool.
    auto probe = Socket::ConnectTcp(backend->host, backend->port);
    if (!probe.ok()) {
      return Status::Unavailable("backend '" + address +
                                 "' unreachable at start: " +
                                 probe.status().message());
    }
    backend->idle.push_back(std::move(probe).value());
    backends_.push_back(std::move(backend));
  }
  return Status::OK();
}

std::string SessionRouter::HandleFrame(const std::string& request_frame) {
  uint64_t request_id = 0;
  auto decoded = DecodeRequestEnvelope(request_frame, &request_id);
  if (!decoded.ok()) {
    // A refused envelope gets a single server's bytes: the id when one was
    // read, and no trace id.
    Envelope refused;
    refused.id = request_id;
    return EncodeError(refused, decoded.status());
  }
  const Envelope& request = decoded.value();
  const auto started = std::chrono::steady_clock::now();
  std::string reply;
  switch (request.method) {
    case ApiMethod::kCreateSession:
    case ApiMethod::kRestore:
      // A client-driven restore opens a new fleet session: same admission
      // and placement path as create.
      reply = HandleCreate(request_frame, request);
      break;
    case ApiMethod::kStats:
      reply = EncodeReply(request, HandleStats(request));
      break;
    case ApiMethod::kMetrics:
      reply = EncodeReply(request, HandleMetrics(request));
      break;
    default:
      reply = HandleSessionOp(request_frame, request);
      break;
  }
  if (!request.trace_id.empty()) {
    // Router-stage span: everything between the envelope read and the
    // reply, including the backend round trip(s) this request needed.
    Metrics().router_span->Record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count());
  }
  return reply;
}

std::string SessionRouter::HandleCreate(const std::string& frame,
                                        const Envelope& request) {
  SessionId router_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.max_sessions > 0 &&
        routes_.size() >= options_.max_sessions) {
      ++admission_rejects_;
      Metrics().admission_rejects->Increment();
      return EncodeError(request,
                         Status::Unavailable("fleet session limit reached (" +
                                             std::to_string(
                                                 options_.max_sessions) +
                                             " live sessions)"));
    }
    router_id = next_session_id_++;
  }
  auto route = std::make_shared<RouteState>();
  for (;;) {
    auto pick = PickBackend(router_id);
    if (!pick.ok()) return EncodeError(request, pick.status());
    const size_t backend = pick.value();
    std::string reply;
    Envelope placed;
    Status sent = Forward(backend, frame, &reply, &placed);
    if (sent.ok() && placed.ok) {
      if (placed.session_literal.empty()) {
        return EncodeError(
            request, Status::Internal("unexpected placement response type"));
      }
      route->backend = backend;
      route->backend_session = placed.session;
      // Create-time checkpoint: from here on, losing the backend is
      // recoverable. One lost in transport means the backend died right
      // after placement, which loses the create with it. The route is not
      // published yet, so nothing else can reach it.
      if (!options_.checkpoint_dir.empty()) {
        sent = CheckpointRoute(router_id, route.get());
      }
    }
    if (!sent.ok()) {
      MarkDead(backend, sent);
      continue;  // re-pick among survivors
    }
    if (!placed.ok) return reply;  // backend refused: pass through

    {
      std::lock_guard<std::mutex> lock(mu_);
      routes_[router_id] = route;
      ++sessions_routed_;
    }
    Log("session " + std::to_string(router_id) + " routed to backend " +
        backends_[backend]->address);
    // The client sees the router's id space.
    return SpliceSession(reply, placed.session_literal, router_id);
  }
}

std::string SessionRouter::HandleSessionOp(const std::string& frame,
                                           const Envelope& request) {
  const SessionId session = request.session;
  std::shared_ptr<RouteState> route;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = routes_.find(session);
    if (it != routes_.end()) route = it->second;
  }
  if (route == nullptr) {
    return EncodeError(request,
                       Status::NotFound("no session " + std::to_string(session)));
  }
  // Router ids start at 1, so a routed session named its id in the frame:
  // session_literal is not empty.
  std::lock_guard<std::mutex> route_lock(route->mu);

  // One forward per live backend the session lands on: transport failure →
  // failover to a survivor → retry exactly once there, and so on until no
  // backend is left. Never retried on the SAME backend — a lost response
  // may mean the step executed, and re-running it on live state would
  // double-step; the failover restore rewinds to the checkpoint first,
  // which makes the replay exact.
  const bool step = request.method == ApiMethod::kAdvance ||
                    request.method == ApiMethod::kAnswer;
  const size_t max_attempts = backends_.size();
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    size_t backend = 0;
    std::string forwarded;
    {
      std::lock_guard<std::mutex> lock(mu_);
      backend = route->backend;
      forwarded = SpliceSession(frame, request.session_literal,
                                route->backend_session);
    }
    std::string reply;
    Envelope answered;
    Status sent = Forward(backend, forwarded, &reply, &answered);
    if (sent.ok() && answered.ok && step && !options_.checkpoint_dir.empty()) {
      // A step's reply waits for the step's checkpoint. One lost in
      // transport means the backend died before acknowledging it, whether
      // or not the file landed: the step replays on a survivor from the
      // slot acknowledged before it, which the lost one could not touch.
      sent = CheckpointRoute(session, route.get());
    }
    if (!sent.ok()) {
      MarkDead(backend, sent);
      const Status recovered = Failover(session, route.get());
      if (!recovered.ok()) {
        // Nothing can bring the session back: it leaves the router, and
        // later requests naming it get kNotFound, as after a terminate.
        RemoveRoute(session);
        Log("session " + std::to_string(session) +
            " lost: " + recovered.message());
        return EncodeError(request, recovered);
      }
      continue;
    }
    if (!answered.ok) return reply;
    if (request.method == ApiMethod::kTerminate) RemoveRoute(session);
    return reply;
  }
  return EncodeError(request, Status::Unavailable("no live backends"));
}

std::vector<std::pair<size_t, ApiResponse>> SessionRouter::CallLive(
    const ApiRequest& request) {
  std::vector<std::pair<size_t, ApiResponse>> replies;
  for (size_t backend : LiveBackends()) {
    auto reply = Call(backend, request);
    if (!reply.ok()) {
      MarkDead(backend, reply.status());
      continue;
    }
    replies.emplace_back(backend, std::move(reply).value());
  }
  return replies;
}

ApiResponse SessionRouter::HandleStats(const Envelope& request) {
  StatsResponse aggregate;
  ApiRequest stats_request;
  stats_request.id = request.id;
  stats_request.params = StatsRequest{};
  const auto replies = CallLive(stats_request);
  // Backend session ids translate into the router's id space; a backend
  // session the router does not route (e.g. mid-terminate) is not
  // client-visible.
  std::map<std::pair<size_t, SessionId>, SessionId> router_ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [router_id, route] : routes_) {
      router_ids[{route->backend, route->backend_session}] = router_id;
    }
  }
  for (const auto& [backend, reply] : replies) {
    const auto* stats = std::get_if<StatsResponse>(&reply.result);
    if (stats == nullptr) continue;
    aggregate.stats.sessions_created += stats->stats.sessions_created;
    aggregate.stats.sessions_active += stats->stats.sessions_active;
    aggregate.stats.sessions_resident += stats->stats.sessions_resident;
    aggregate.stats.sessions_spilled += stats->stats.sessions_spilled;
    aggregate.stats.evictions += stats->stats.evictions;
    aggregate.stats.spill_restores += stats->stats.spill_restores;
    aggregate.stats.resident_bytes += stats->stats.resident_bytes;
    aggregate.stats.steps_served += stats->stats.steps_served;
    aggregate.stats.spill_bytes += stats->stats.spill_bytes;
    // Summed per-backend peaks: an upper bound on the fleet-wide peak (the
    // backends need not have peaked simultaneously), consistent with every
    // other field being a fleet-wide sum.
    aggregate.stats.peak_resident_bytes += stats->stats.peak_resident_bytes;
    for (SessionInfo info : stats->sessions) {
      auto it = router_ids.find({backend, info.id});
      if (it == router_ids.end()) continue;
      info.id = it->second;
      aggregate.sessions.push_back(info);
    }
  }
  std::sort(aggregate.sessions.begin(), aggregate.sessions.end(),
            [](const SessionInfo& a, const SessionInfo& b) {
              return a.id < b.id;
            });
  ApiResponse response;
  response.id = request.id;
  response.result = std::move(aggregate);
  return response;
}

ApiResponse SessionRouter::HandleMetrics(const Envelope& request) {
  MetricsSnapshot aggregate;
  ApiRequest metrics_request;
  metrics_request.id = request.id;
  metrics_request.params = MetricsRequest{};
  for (const auto& [backend, reply] : CallLive(metrics_request)) {
    const auto* metrics = std::get_if<MetricsResponse>(&reply.result);
    if (metrics != nullptr) MergeSnapshot(&aggregate, metrics->snapshot);
  }
  // The router's own registry last: router-stage trace spans, forward
  // latencies, failover and backend-death counters, and the wire metrics of
  // the transport hosting this router.
  MergeSnapshot(&aggregate, GlobalMetrics().Snapshot());
  ApiResponse response;
  response.id = request.id;
  response.result = MetricsResponse{std::move(aggregate)};
  return response;
}

Status SessionRouter::Forward(size_t backend, const std::string& frame,
                              std::string* reply, Envelope* envelope) {
  ScopedLatencyTimer timer(Metrics().forward_seconds);
  auto connection = AcquireConnection(backend);
  if (!connection.ok()) return connection.status();
  Socket socket = std::move(connection).value();
  VERITAS_RETURN_IF_ERROR(WriteFrame(socket, frame));
  auto read = ReadFrame(socket);
  if (!read.ok()) return read.status();
  *reply = std::move(read).value();
  auto decoded = DecodeResponseEnvelope(*reply);
  if (!decoded.ok()) return decoded.status();
  *envelope = std::move(decoded).value();
  ReleaseConnection(backend, std::move(socket));
  return Status::OK();
}

Result<ApiResponse> SessionRouter::Call(size_t backend,
                                        const ApiRequest& request) {
  auto encoded = EncodeRequest(request);
  // The router's fault, never the backend's: an error, not a dead backend.
  if (!encoded.ok()) return MakeErrorResponse(request.id, encoded.status());
  std::string reply;
  Envelope envelope;
  VERITAS_RETURN_IF_ERROR(Forward(backend, encoded.value(), &reply, &envelope));
  return DecodeResponse(reply);
}

Result<Socket> SessionRouter::AcquireConnection(size_t backend) {
  Backend& b = *backends_[backend];
  {
    std::lock_guard<std::mutex> lock(b.pool_mu);
    if (!b.idle.empty()) {
      Socket socket = std::move(b.idle.back());
      b.idle.pop_back();
      return socket;
    }
  }
  return Socket::ConnectTcp(b.host, b.port);
}

void SessionRouter::ReleaseConnection(size_t backend, Socket socket) {
  // Only a connection that completed its round trip comes back; failed
  // connections are dropped with their backend. Backends hold connections
  // open for as long as they live, so a pooled connection only goes stale
  // when the backend dies — which the next round trip reports.
  Backend& b = *backends_[backend];
  std::lock_guard<std::mutex> lock(b.pool_mu);
  b.idle.push_back(std::move(socket));
}

std::vector<size_t> SessionRouter::LiveBackends() const {
  std::vector<size_t> live;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (backends_[i]->alive) live.push_back(i);
  }
  return live;
}

Result<size_t> SessionRouter::PickBackend(SessionId router_id) const {
  const std::vector<size_t> live = LiveBackends();
  if (live.empty()) return Status::Unavailable("no live backends");
  return live[router_id % live.size()];
}

void SessionRouter::MarkDead(size_t backend, const Status& cause) {
  Backend& b = *backends_[backend];
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!b.alive) return;
    b.alive = false;
  }
  {
    std::lock_guard<std::mutex> lock(b.pool_mu);
    b.idle.clear();
  }
  Metrics().backend_deaths->Increment();
  Log("backend " + b.address + " marked dead: " + cause.message());
}

Status SessionRouter::CheckpointRoute(SessionId router_id, RouteState* route) {
  const unsigned slot = 1 - route->slot;
  size_t backend = 0;
  ApiRequest request;
  {
    std::lock_guard<std::mutex> lock(mu_);
    backend = route->backend;
    request.params = CheckpointRequest{route->backend_session,
                                       SlotPath(router_id, slot)};
  }
  auto reply = Call(backend, request);
  if (!reply.ok()) return reply.status();
  if (IsError(reply.value())) {
    // The acknowledged slot is now older than the session, and failing
    // over to it would rewind the session: it has no checkpoint until one
    // lands.
    route->has_checkpoint = false;
    return Status::OK();
  }
  route->has_checkpoint = true;
  route->slot = slot;
  std::lock_guard<std::mutex> lock(mu_);
  ++checkpoints_;
  return Status::OK();
}

Status SessionRouter::Failover(SessionId router_id, RouteState* route) {
  if (options_.checkpoint_dir.empty() || !route->has_checkpoint) {
    return Status::Unavailable("backend lost and session " +
                               std::to_string(router_id) +
                               " has no checkpoint");
  }
  ApiRequest restore;
  restore.params = RestoreRequest{SlotPath(router_id, route->slot)};
  for (;;) {
    auto pick = PickBackend(router_id);
    if (!pick.ok()) return pick.status();
    const size_t backend = pick.value();
    auto reply = Call(backend, restore);
    if (!reply.ok()) {
      MarkDead(backend, reply.status());
      continue;
    }
    if (IsError(reply.value())) {
      return ToStatus(std::get<ErrorResponse>(reply.value().result));
    }
    auto* restored = std::get_if<RestoreResponse>(&reply.value().result);
    if (restored == nullptr) {
      return Status::Internal("unexpected restore response type");
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      route->backend = backend;
      route->backend_session = restored->session;
      ++failovers_;
    }
    Metrics().failovers->Increment();
    // The restored session IS the checkpoint state: replaying the lost
    // step from here reproduces the unfailed trace bit-for-bit.
    Log("session " + std::to_string(router_id) + " failed over to backend " +
        backends_[backend]->address);
    return Status::OK();
  }
}

RouterStats SessionRouter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  RouterStats stats;
  stats.sessions_routed = sessions_routed_;
  stats.sessions_live = routes_.size();
  stats.admission_rejects = admission_rejects_;
  stats.checkpoints = checkpoints_;
  stats.failovers = failovers_;
  for (const auto& backend : backends_) {
    if (backend->alive) ++stats.backends_live;
  }
  return stats;
}

Result<std::string> SessionRouter::BackendOf(SessionId session) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = routes_.find(session);
  if (it == routes_.end()) {
    return Status::NotFound("no session " + std::to_string(session));
  }
  return backends_[it->second->backend]->address;
}

void SessionRouter::RemoveRoute(SessionId router_id) {
  // Checkpoints live exactly as long as the session. Removed under the
  // route lock, so no checkpoint of this route can race the removal.
  if (!options_.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(CheckpointPath(router_id), ec);
  }
  std::lock_guard<std::mutex> lock(mu_);
  routes_.erase(router_id);
}

std::string SessionRouter::CheckpointPath(SessionId router_id) const {
  return options_.checkpoint_dir + "/session-" + std::to_string(router_id);
}

std::string SessionRouter::SlotPath(SessionId router_id, unsigned slot) const {
  return CheckpointPath(router_id) + "/" + std::to_string(slot);
}

void SessionRouter::Log(const std::string& message) const {
  if (log_) log_(message);
}

}  // namespace veritas
