#include "fleet.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string_view>
#include <utility>

#include "api/codec.h"

namespace perfbench {

using veritas::ApiMethod;
using veritas::ApiResponse;
using veritas::Result;
using veritas::Status;

namespace {

constexpr size_t kBackends = 2;
constexpr size_t kWorkersPerBackend = 2;
constexpr size_t kDispatchWorkers = 4;

}  // namespace

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string TraceIdOfFrame(const std::string& frame) {
  static constexpr std::string_view kKey = "\"trace_id\":\"";
  // {"api_version":1,"id":<u64>,"trace_id":"..." — well inside 128 bytes.
  const std::string_view head =
      std::string_view(frame).substr(0, std::min<size_t>(frame.size(), 128));
  const size_t at = head.find(kKey);
  if (at == std::string_view::npos) return {};
  const size_t begin = at + kKey.size();
  const size_t end = frame.find('"', begin);
  if (end == std::string::npos) return {};
  return frame.substr(begin, end - begin);
}

void SpanStore::Add(RouterSpan span) {
  std::lock_guard<std::mutex> lock(mu_);
  router_.push_back(std::move(span));
}

void SpanStore::Add(BackendSpan span) {
  std::lock_guard<std::mutex> lock(mu_);
  backend_.push_back(std::move(span));
}

void SpanStore::Take(std::vector<RouterSpan>* router,
                     std::vector<BackendSpan>* backend) {
  std::lock_guard<std::mutex> lock(mu_);
  *router = std::move(router_);
  *backend = std::move(backend_);
  router_.clear();
  backend_.clear();
}

/// Times SessionRouter::HandleFrame.
class Fleet::RouterTimer : public veritas::FrameHandler {
 public:
  RouterTimer(veritas::FrameHandler* inner, SpanStore* spans)
      : inner_(inner), spans_(spans) {}

  std::string HandleFrame(const std::string& request_frame) override {
    RouterSpan span;
    span.start_ns = NowNanos();
    std::string response = inner_->HandleFrame(request_frame);
    span.end_ns = NowNanos();
    span.trace_id = TraceIdOfFrame(request_frame);
    spans_->Add(std::move(span));
    return response;
  }

 private:
  veritas::FrameHandler* inner_;
  SpanStore* spans_;
};

/// The frame path of GuidanceApi::HandleJson, one public call at a time,
/// with a clock read between the calls.
class Fleet::BackendTimer : public veritas::FrameHandler {
 public:
  BackendTimer(veritas::GuidanceApi* api, size_t backend, SpanStore* spans)
      : api_(api), backend_(backend), spans_(spans) {}

  std::string HandleFrame(const std::string& request_frame) override {
    BackendSpan span;
    span.backend = backend_;
    span.request_bytes = request_frame.size();
    span.start_ns = NowNanos();
    uint64_t id = 0;
    ApiResponse response;
    auto decoded = veritas::DecodeRequest(request_frame, &id);
    const int64_t decoded_ns = NowNanos();
    if (!decoded.ok()) {
      response = veritas::MakeErrorResponse(id, decoded.status());
    } else {
      response = api_->Handle(decoded.value());
    }
    const int64_t handled_ns = NowNanos();
    auto encoded = veritas::EncodeResponse(response);
    if (!encoded.ok()) {
      encoded = veritas::EncodeResponse(
          veritas::MakeErrorResponse(id, encoded.status()));
    }
    std::string frame =
        encoded.ok() ? std::move(encoded).value() : std::string("{}");
    span.end_ns = NowNanos();
    span.decode_ns = decoded_ns - span.start_ns;
    span.handle_ns = handled_ns - decoded_ns;
    span.encode_ns = span.end_ns - handled_ns;
    span.response_bytes = frame.size();
    span.ok = decoded.ok() && !veritas::IsError(response);
    if (decoded.ok()) {
      const veritas::ApiRequest& request = decoded.value();
      span.decoded = true;
      span.trace_id = request.trace_id;
      span.method = request.method();
      span.session = SessionOf(request, response);
    }
    spans_->Add(std::move(span));
    return frame;
  }

 private:
  static SessionId SessionOf(const veritas::ApiRequest& request,
                             const ApiResponse& response) {
    if (const auto* created =
            std::get_if<veritas::CreateSessionResponse>(&response.result)) {
      return created->session;
    }
    return std::visit(
        [](const auto& params) -> SessionId {
          if constexpr (std::is_same_v<std::decay_t<decltype(params)>,
                                       veritas::CheckpointRequest> ||
                        std::is_same_v<std::decay_t<decltype(params)>,
                                       veritas::AdvanceRequest> ||
                        std::is_same_v<std::decay_t<decltype(params)>,
                                       veritas::AnswerRequest> ||
                        std::is_same_v<std::decay_t<decltype(params)>,
                                       veritas::TerminateRequest>) {
            return params.session;
          } else {
            return 0;
          }
        },
        request.params);
  }

  veritas::GuidanceApi* api_;
  size_t backend_;
  SpanStore* spans_;
};

struct Fleet::Backend {
  std::unique_ptr<veritas::SessionManager> manager;
  std::unique_ptr<veritas::RequestQueue> queue;
  std::unique_ptr<veritas::GuidanceApi> api;
  std::unique_ptr<BackendTimer> timer;
  std::unique_ptr<veritas::EventApiServer> server;
};

Fleet::Fleet(const FleetConfig& config) : config_(config) {}

Result<std::unique_ptr<Fleet>> Fleet::Start(const FleetConfig& config) {
  std::unique_ptr<Fleet> fleet(new Fleet(config));
  VERITAS_RETURN_IF_ERROR(fleet->Init());
  return fleet;
}

Status Fleet::Init() {
  std::error_code ec;
  std::filesystem::create_directories(config_.scratch_dir, ec);
  if (ec) return Status::Internal("cannot create " + config_.scratch_dir);

  veritas::SessionRouterOptions router_options;
  router_options.checkpoint_interval = 1;
  if (config_.checkpoint_each_step) {
    router_options.checkpoint_dir = config_.scratch_dir + "/router";
  }
  for (size_t b = 0; b < kBackends; ++b) {
    auto backend = std::make_unique<Backend>();
    veritas::SessionManagerOptions manager_options;
    manager_options.memory_budget_bytes = config_.memory_budget_bytes;
    manager_options.spill_directory =
        config_.scratch_dir + "/spill-" + std::to_string(b);
    backend->manager =
        std::make_unique<veritas::SessionManager>(manager_options);
    veritas::RequestQueueOptions queue_options;
    queue_options.num_workers = kWorkersPerBackend;
    backend->queue = std::make_unique<veritas::RequestQueue>(
        backend->manager.get(), queue_options);
    backend->api = std::make_unique<veritas::GuidanceApi>(
        backend->manager.get(), backend->queue.get());
    veritas::FrameHandler* handler = backend->api.get();
    if (config_.traced) {
      backend->timer =
          std::make_unique<BackendTimer>(backend->api.get(), b, &spans_);
      handler = backend->timer.get();
    }
    veritas::EventApiServerOptions server_options;
    server_options.dispatch_workers = kDispatchWorkers;
    auto server = veritas::EventApiServer::Start(handler, server_options);
    if (!server.ok()) return server.status();
    backend->server = std::move(server).value();
    router_options.backends.push_back("127.0.0.1:" +
                                      std::to_string(backend->server->port()));
    backends_.push_back(std::move(backend));
  }

  auto router = veritas::SessionRouter::Start(router_options);
  if (!router.ok()) return router.status();
  router_ = std::move(router).value();
  veritas::FrameHandler* front = router_.get();
  if (config_.traced) {
    router_timer_ = std::make_unique<RouterTimer>(router_.get(), &spans_);
    front = router_timer_.get();
  }
  veritas::EventApiServerOptions front_options;
  front_options.dispatch_workers = kDispatchWorkers;
  auto front_server = veritas::EventApiServer::Start(front, front_options);
  if (!front_server.ok()) return front_server.status();
  front_server_ = std::move(front_server).value();
  return Status::OK();
}

Fleet::~Fleet() {
  // Outside in: nothing may forward into a stopped layer.
  if (front_server_ != nullptr) front_server_->Stop();
  front_server_.reset();
  router_timer_.reset();
  router_.reset();
  for (auto& backend : backends_) {
    if (backend->server != nullptr) backend->server->Stop();
  }
  backends_.clear();
  std::error_code ec;
  std::filesystem::remove_all(config_.scratch_dir, ec);
}

FleetCounters Fleet::Counters() const {
  FleetCounters counters;
  counters.router = router_->stats();
  for (const auto& backend : backends_) {
    counters.queues.push_back(backend->queue->stats());
    counters.managers.push_back(backend->manager->stats());
  }
  return counters;
}

std::string Fleet::CheckpointDirOf(SessionId session) const {
  if (!config_.checkpoint_each_step) return {};
  return config_.scratch_dir + "/router/session-" + std::to_string(session);
}

}  // namespace perfbench
