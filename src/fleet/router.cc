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
  MetricsRegistry::Counter* migrations;
  MetricsRegistry::Counter* ring_changes;
  MetricsRegistry::Counter* admission_rejects;
  MetricsRegistry::Histogram* forward_seconds;
  MetricsRegistry::Histogram* router_span;
};

const RouterMetrics& Metrics() {
  static const RouterMetrics metrics = [] {
    MetricsRegistry& registry = GlobalMetrics();
    RouterMetrics m;
    m.failovers = registry.counter("veritas_router_failovers_total");
    m.migrations = registry.counter("veritas_router_migrations_total");
    m.ring_changes = registry.counter("veritas_router_ring_changes_total");
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

/// The session id a session-scoped request addresses; create/restore/stats
/// never reach this.
SessionId SessionOf(const ApiRequest& request) {
  switch (request.method()) {
    case ApiMethod::kAdvance:
      return std::get<AdvanceRequest>(request.params).session;
    case ApiMethod::kAnswer:
      return std::get<AnswerRequest>(request.params).session;
    case ApiMethod::kGround:
      return std::get<GroundRequest>(request.params).session;
    case ApiMethod::kCheckpoint:
      return std::get<CheckpointRequest>(request.params).session;
    case ApiMethod::kTerminate:
      return std::get<TerminateRequest>(request.params).session;
    default:
      return 0;
  }
}

void SetSession(ApiRequest* request, SessionId session) {
  switch (request->method()) {
    case ApiMethod::kAdvance:
      std::get<AdvanceRequest>(request->params).session = session;
      break;
    case ApiMethod::kAnswer:
      std::get<AnswerRequest>(request->params).session = session;
      break;
    case ApiMethod::kGround:
      std::get<GroundRequest>(request->params).session = session;
      break;
    case ApiMethod::kCheckpoint:
      std::get<CheckpointRequest>(request->params).session = session;
      break;
    case ApiMethod::kTerminate:
      std::get<TerminateRequest>(request->params).session = session;
      break;
    default:
      break;
  }
}

bool IsStepMethod(ApiMethod method) {
  return method == ApiMethod::kAdvance || method == ApiMethod::kAnswer;
}

}  // namespace

SessionRouter::SessionRouter(const SessionRouterOptions& options)
    : options_(options), ring_(options.vnodes_per_backend) {}

Result<std::unique_ptr<SessionRouter>> SessionRouter::Start(
    const SessionRouterOptions& options) {
  if (options.backends.empty()) {
    return Status::InvalidArgument("SessionRouter: no backends configured");
  }
  std::unique_ptr<SessionRouter> router(new SessionRouter(options));
  VERITAS_RETURN_IF_ERROR(router->Init());
  return router;
}

Status SessionRouter::Init() {
  for (const std::string& address : options_.backends) {
    if (backend_index_.count(address) != 0) {
      return Status::InvalidArgument("duplicate backend address '" + address +
                                     "'");
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
    backend_index_[address] = backends_.size();
    backends_.push_back(std::move(backend));
    ring_.AddShard(address);
  }
  return Status::OK();
}

std::string SessionRouter::HandleFrame(const std::string& request_frame) {
  uint64_t request_id = 0;
  auto decoded = DecodeRequest(request_frame, &request_id);
  const ApiResponse response =
      decoded.ok() ? Dispatch(decoded.value())
                   : MakeErrorResponse(request_id, decoded.status());
  auto encoded = EncodeResponse(response);
  if (encoded.ok()) return encoded.value();
  auto fallback =
      EncodeResponse(MakeErrorResponse(request_id, encoded.status()));
  return fallback.ok() ? fallback.value() : std::string("{}");
}

ApiResponse SessionRouter::Dispatch(const ApiRequest& request) {
  const auto started = std::chrono::steady_clock::now();
  ApiResponse response;
  switch (request.method()) {
    case ApiMethod::kCreateSession:
      response = HandleCreate(request);
      break;
    case ApiMethod::kRestore:
      response = HandleRestore(request);
      break;
    case ApiMethod::kStats:
      response = HandleStats(request);
      break;
    case ApiMethod::kMetrics:
      response = HandleMetrics(request);
      break;
    default:
      response = HandleSessionOp(request, SessionOf(request));
      break;
  }
  if (!request.trace_id.empty()) {
    // Router-stage span: everything between decode and encode, including
    // the backend round trip(s) this request needed.
    Metrics().router_span->Record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count());
    response.trace_id = request.trace_id;
  }
  return response;
}

ApiResponse SessionRouter::HandleCreate(const ApiRequest& request) {
  SessionId router_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.max_sessions > 0 &&
        routes_.size() >= options_.max_sessions) {
      ++admission_rejects_;
      Metrics().admission_rejects->Increment();
      return MakeErrorResponse(
          request.id, Status::Unavailable("fleet session limit reached (" +
                                          std::to_string(
                                              options_.max_sessions) +
                                          " live sessions)"));
    }
    router_id = next_session_id_++;
  }
  return PlaceSession(request, router_id);
}

ApiResponse SessionRouter::HandleRestore(const ApiRequest& request) {
  // A client-driven restore opens a new fleet session: same admission and
  // placement path as create.
  return HandleCreate(request);
}

ApiResponse SessionRouter::PlaceSession(const ApiRequest& request,
                                        SessionId router_id) {
  for (;;) {
    auto pick = PickBackend(PlacementKey(router_id));
    if (!pick.ok()) return MakeErrorResponse(request.id, pick.status());
    const size_t backend = pick.value();
    auto forwarded = Forward(backend, request);
    if (!forwarded.ok()) {
      MarkDead(backend, forwarded.status());
      continue;  // the ring shrank; re-pick among survivors
    }
    ApiResponse response = std::move(forwarded).value();
    if (IsError(response)) return response;  // backend refused: pass through

    SessionId backend_session = 0;
    if (auto* created = std::get_if<CreateSessionResponse>(&response.result)) {
      backend_session = created->session;
    } else if (auto* restored =
                   std::get_if<RestoreResponse>(&response.result)) {
      backend_session = restored->session;
    } else {
      return MakeErrorResponse(
          request.id, Status::Internal("unexpected placement response type"));
    }

    auto route = std::make_shared<RouteState>();
    {
      std::lock_guard<std::mutex> lock(mu_);
      route->backend = backend;
      route->backend_session = backend_session;
      routes_[router_id] = route;
      reverse_[{backend, backend_session}] = router_id;
      ++sessions_routed_;
    }
    Log("session " + std::to_string(router_id) + " routed to backend " +
        backends_[backend]->address);

    if (!options_.checkpoint_dir.empty()) {
      // Create-time checkpoint: from here on, losing the backend is
      // recoverable. Failure here means the backend died immediately after
      // placement; the next operation on the session surfaces it.
      std::lock_guard<std::mutex> route_lock(route->mu);
      CheckpointRoute(router_id, route.get());
    }

    // The client sees the router's id space.
    if (auto* created = std::get_if<CreateSessionResponse>(&response.result)) {
      created->session = router_id;
    } else if (auto* restored =
                   std::get_if<RestoreResponse>(&response.result)) {
      restored->session = router_id;
    }
    return response;
  }
}

ApiResponse SessionRouter::HandleSessionOp(const ApiRequest& request,
                                           SessionId session) {
  std::shared_ptr<RouteState> route;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = routes_.find(session);
    if (it != routes_.end()) route = it->second;
  }
  if (route == nullptr) {
    return MakeErrorResponse(
        request.id, Status::NotFound("no session " + std::to_string(session)));
  }
  std::lock_guard<std::mutex> route_lock(route->mu);

  // One forward per live backend the session lands on: transport failure →
  // failover to a survivor → retry exactly once there, and so on until the
  // ring empties. Never retried on the SAME backend — a lost response may
  // mean the step executed, and re-running it on live state would
  // double-step; the failover restore rewinds to the checkpoint first,
  // which makes the replay exact.
  const size_t max_attempts = backends_.size();
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    size_t backend = 0;
    ApiRequest forwarded = request;
    {
      std::lock_guard<std::mutex> lock(mu_);
      backend = route->backend;
      SetSession(&forwarded, route->backend_session);
    }
    auto reply = Forward(backend, forwarded);
    if (!reply.ok()) {
      MarkDead(backend, reply.status());
      const Status recovered = Failover(session, route.get());
      if (!recovered.ok()) return MakeErrorResponse(request.id, recovered);
      continue;
    }
    ApiResponse response = std::move(reply).value();
    if (IsError(response)) return response;

    if (IsStepMethod(request.method()) && options_.checkpoint_interval > 0 &&
        !options_.checkpoint_dir.empty()) {
      if (++route->steps_since_checkpoint >= options_.checkpoint_interval) {
        CheckpointRoute(session, route.get());
      }
    }
    if (request.method() == ApiMethod::kTerminate) {
      // The checkpoint lives exactly as long as the session. Removed under
      // the route lock, so no checkpoint of this route can race the removal.
      if (!options_.checkpoint_dir.empty()) {
        std::error_code ec;
        std::filesystem::remove_all(CheckpointPath(session), ec);
      }
      std::lock_guard<std::mutex> lock(mu_);
      reverse_.erase({route->backend, route->backend_session});
      routes_.erase(session);
    }
    return response;
  }
  return MakeErrorResponse(request.id,
                           Status::Unavailable("no live backends"));
}

ApiResponse SessionRouter::HandleStats(const ApiRequest& request) {
  StatsResponse aggregate;
  std::vector<size_t> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < backends_.size(); ++i) {
      if (backends_[i]->alive) live.push_back(i);
    }
  }
  ApiRequest stats_request;
  stats_request.id = request.id;
  stats_request.params = StatsRequest{};
  for (size_t backend : live) {
    auto reply = Forward(backend, stats_request);
    if (!reply.ok()) {
      MarkDead(backend, reply.status());
      continue;
    }
    auto* stats = std::get_if<StatsResponse>(&reply.value().result);
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
    std::lock_guard<std::mutex> lock(mu_);
    for (SessionInfo info : stats->sessions) {
      // Translate into the router's id space; a backend session the router
      // does not know (e.g. mid-terminate) is not client-visible.
      auto it = reverse_.find({backend, info.id});
      if (it == reverse_.end()) continue;
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

ApiResponse SessionRouter::HandleMetrics(const ApiRequest& request) {
  MetricsSnapshot aggregate;
  std::vector<size_t> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < backends_.size(); ++i) {
      if (backends_[i]->alive) live.push_back(i);
    }
  }
  ApiRequest metrics_request;
  metrics_request.id = request.id;
  metrics_request.params = MetricsRequest{};
  for (size_t backend : live) {
    auto reply = Forward(backend, metrics_request);
    if (!reply.ok()) {
      MarkDead(backend, reply.status());
      continue;
    }
    auto* metrics = std::get_if<MetricsResponse>(&reply.value().result);
    if (metrics == nullptr) continue;
    MergeSnapshot(&aggregate, metrics->snapshot);
  }
  // The router's own registry last: router-stage trace spans, forward
  // latencies, failover/ring counters, and the wire metrics of the
  // transport hosting this router.
  MergeSnapshot(&aggregate, GlobalMetrics().Snapshot());
  ApiResponse response;
  response.id = request.id;
  response.result = MetricsResponse{std::move(aggregate)};
  return response;
}

Result<ApiResponse> SessionRouter::Forward(size_t backend,
                                           const ApiRequest& request) {
  auto encoded = EncodeRequest(request);
  if (!encoded.ok()) {
    // An unencodable request is the router's (or client's) fault, never the
    // backend's: surface it as an application error, not a transport one.
    return MakeErrorResponse(request.id, encoded.status());
  }
  ScopedLatencyTimer timer(Metrics().forward_seconds);
  auto connection = AcquireConnection(backend);
  if (!connection.ok()) return connection.status();
  Socket socket = std::move(connection).value();
  VERITAS_RETURN_IF_ERROR(WriteFrame(socket, encoded.value()));
  auto reply = ReadFrame(socket);
  if (!reply.ok()) return reply.status();
  auto decoded = DecodeResponse(reply.value());
  if (!decoded.ok()) return decoded.status();
  ReleaseConnection(backend, std::move(socket));
  return std::move(decoded).value();
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

Result<size_t> SessionRouter::PickBackend(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto shard = ring_.ShardFor(key);
  if (!shard.ok()) {
    return Status::Unavailable("no live backends");
  }
  return backend_index_.at(shard.value());
}

void SessionRouter::MarkDead(size_t backend, const Status& cause) {
  Backend& b = *backends_[backend];
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!b.alive) return;
    b.alive = false;
    ring_.RemoveShard(b.address);
  }
  {
    std::lock_guard<std::mutex> lock(b.pool_mu);
    b.idle.clear();
  }
  Metrics().ring_changes->Increment();
  Log("backend " + b.address + " marked dead: " + cause.message());
}

Status SessionRouter::CheckpointRoute(SessionId router_id, RouteState* route) {
  size_t backend = 0;
  ApiRequest request;
  {
    std::lock_guard<std::mutex> lock(mu_);
    backend = route->backend;
    request.params =
        CheckpointRequest{route->backend_session, CheckpointPath(router_id)};
  }
  auto reply = Forward(backend, request);
  if (!reply.ok()) {
    MarkDead(backend, reply.status());
    return reply.status();
  }
  if (IsError(reply.value())) {
    return ToStatus(std::get<ErrorResponse>(reply.value().result));
  }
  route->has_checkpoint = true;
  route->steps_since_checkpoint = 0;
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
  restore.params = RestoreRequest{CheckpointPath(router_id)};
  for (;;) {
    auto pick = PickBackend(PlacementKey(router_id));
    if (!pick.ok()) return pick.status();
    const size_t backend = pick.value();
    auto reply = Forward(backend, restore);
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
      reverse_.erase({route->backend, route->backend_session});
      route->backend = backend;
      route->backend_session = restored->session;
      reverse_[{backend, restored->session}] = router_id;
      ++failovers_;
    }
    Metrics().failovers->Increment();
    // The restored session IS the checkpoint state: replaying the lost
    // step from here reproduces the unfailed trace bit-for-bit.
    route->steps_since_checkpoint = 0;
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
  stats.migrations = migrations_;
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

Status SessionRouter::Migrate(SessionId session, const std::string& target) {
  if (options_.checkpoint_dir.empty()) {
    return Status::FailedPrecondition(
        "migration requires a checkpoint_dir");
  }
  std::shared_ptr<RouteState> route;
  size_t target_index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = routes_.find(session);
    if (it == routes_.end()) {
      return Status::NotFound("no session " + std::to_string(session));
    }
    route = it->second;
    auto target_it = backend_index_.find(target);
    if (target_it == backend_index_.end()) {
      return Status::NotFound("no backend '" + target + "'");
    }
    target_index = target_it->second;
    if (!backends_[target_index]->alive) {
      return Status::FailedPrecondition("backend '" + target + "' is dead");
    }
  }
  std::lock_guard<std::mutex> route_lock(route->mu);
  if (route->backend == target_index) return Status::OK();

  // Quiesced (route->mu held): checkpoint captures the exact pre-move
  // state, the source copy is then retired, the target revives the
  // checkpoint. Restore-then-continue is bit-identical, so the move is
  // invisible in the trace.
  VERITAS_RETURN_IF_ERROR(CheckpointRoute(session, route.get()));

  size_t source = 0;
  ApiRequest terminate;
  {
    std::lock_guard<std::mutex> lock(mu_);
    source = route->backend;
    terminate.params = TerminateRequest{route->backend_session};
  }
  auto retired = Forward(source, terminate);
  if (!retired.ok()) {
    // Source died under us — its copy is gone either way; the checkpoint
    // still carries the session.
    MarkDead(source, retired.status());
  } else if (IsError(retired.value())) {
    return ToStatus(std::get<ErrorResponse>(retired.value().result));
  }

  ApiRequest restore;
  restore.params = RestoreRequest{CheckpointPath(session)};
  auto revived = Forward(target_index, restore);
  if (!revived.ok()) {
    MarkDead(target_index, revived.status());
    return revived.status();
  }
  if (IsError(revived.value())) {
    return ToStatus(std::get<ErrorResponse>(revived.value().result));
  }
  auto* restored = std::get_if<RestoreResponse>(&revived.value().result);
  if (restored == nullptr) {
    return Status::Internal("unexpected restore response type");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    reverse_.erase({route->backend, route->backend_session});
    route->backend = target_index;
    route->backend_session = restored->session;
    reverse_[{target_index, restored->session}] = session;
    ++migrations_;
  }
  Metrics().migrations->Increment();
  route->steps_since_checkpoint = 0;
  Log("session " + std::to_string(session) + " migrated to backend " +
      target);
  return Status::OK();
}

std::string SessionRouter::PlacementKey(SessionId router_id) const {
  return "session-" + std::to_string(router_id);
}

std::string SessionRouter::CheckpointPath(SessionId router_id) const {
  return options_.checkpoint_dir + "/session-" + std::to_string(router_id);
}

void SessionRouter::Log(const std::string& message) const {
  if (log_) log_(message);
}

}  // namespace veritas
