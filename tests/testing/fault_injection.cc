#include "testing/fault_injection.h"

#include <cstdlib>
#include <mutex>
#include <utility>

namespace veritas {
namespace testing {

/// What a worker's server calls: the filter, when one is set, then the api.
class WorkerFleet::Front : public FrameHandler {
 public:
  explicit Front(FrameHandler* api) : api_(api) {}

  void set_filter(FrameFilter filter) {
    std::lock_guard<std::mutex> lock(mu_);
    filter_ = std::move(filter);
  }

  std::string HandleFrame(const std::string& frame) override {
    FrameFilter filter;
    {
      std::lock_guard<std::mutex> lock(mu_);
      filter = filter_;
    }
    if (filter) {
      std::optional<std::string> reply = filter(frame);
      if (reply.has_value()) return *std::move(reply);
    }
    return api_->HandleFrame(frame);
  }

 private:
  FrameHandler* api_;
  std::mutex mu_;
  FrameFilter filter_;
};

WorkerFleet::WorkerFleet(const WorkerFleetOptions& options) {
  workers_.resize(options.workers);
  for (Worker& worker : workers_) {
    worker.manager = std::make_unique<SessionManager>();
    RequestQueueOptions queue_options;
    queue_options.num_workers = options.queue_workers;
    worker.queue =
        std::make_unique<RequestQueue>(worker.manager.get(), queue_options);
    worker.api =
        std::make_unique<GuidanceApi>(worker.manager.get(), worker.queue.get());
    worker.front = std::make_unique<Front>(worker.api.get());
    EventApiServerOptions server_options;
    server_options.dispatch_workers = options.queue_workers + 1;
    auto server = EventApiServer::Start(worker.front.get(), server_options);
    if (!server.ok()) abort();
    worker.server = std::move(server).value();
    worker.port = worker.server->port();
  }
}

WorkerFleet::~WorkerFleet() {
  for (size_t i = 0; i < workers_.size(); ++i) Kill(i);
}

std::string WorkerFleet::address(size_t i) const {
  return "127.0.0.1:" + std::to_string(workers_[i].port);
}

std::vector<std::string> WorkerFleet::addresses() const {
  std::vector<std::string> all;
  all.reserve(workers_.size());
  for (size_t i = 0; i < workers_.size(); ++i) all.push_back(address(i));
  return all;
}

size_t WorkerFleet::IndexOf(const std::string& address) const {
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (this->address(i) == address) return i;
  }
  abort();  // a router never reports an address outside its fleet
}

void WorkerFleet::Kill(size_t i) {
  Worker& worker = workers_[i];
  if (worker.server == nullptr) return;
  // Teardown order mirrors ownership: transport first (severs connections,
  // unblocking any peer mid-read), then the queue (joins its workers), then
  // the dispatcher and the manager with every session it hosted.
  worker.server->Stop();
  worker.server.reset();
  worker.front.reset();
  worker.queue.reset();
  worker.api.reset();
  worker.manager.reset();
}

void WorkerFleet::SetFilter(size_t i, FrameFilter filter) {
  Worker& worker = workers_[i];
  if (worker.front != nullptr) worker.front->set_filter(std::move(filter));
}

}  // namespace testing
}  // namespace veritas
