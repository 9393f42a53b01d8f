// veritas_router: fleet front end (DESIGN.md §11). Consistent-hashes
// sessions onto N backend veritas_server workers and forwards the
// unchanged v1 wire protocol, checkpointing sessions so a killed worker
// fails over to a survivor mid-session. Clients connect to the router
// exactly as they would to a single server.
//
//   ./examples/example_veritas_router --backends=HOST:PORT,HOST:PORT,...
//       [--port=N] [--port-file=PATH] [--checkpoint-dir=DIR]
//       [--max-sessions=N]
//       [--metrics-port=N] [--metrics-port-file=PATH] [--log-level=LEVEL]
//
//   --backends=...          comma-separated worker addresses (required)
//   --port=N                TCP port to listen on (default 0 = ephemeral)
//   --port-file=P           write the bound port to file P (for scripts)
//   --checkpoint-dir=D      enable checkpoint/failover, storing under D: a
//                           checkpoint on create and after every step
//   --max-sessions=N        fleet-wide live-session cap (default 0 = off)
//   --metrics-port=N        serve the Prometheus exposition of the ROUTER's
//                           own registry on this loopback port (0 =
//                           ephemeral; the `metrics` wire method aggregates
//                           the fleet instead)
//   --metrics-port-file=P   write the bound metrics port to file P
//   --log-level=L           debug|info|warning|error (overrides
//                           VERITAS_LOG_LEVEL)
//
// Routing/failover events ("session 3 routed to backend ...", "backend ...
// marked dead", "session 3 failed over to ...") print to stdout; the CI
// fleet smoke greps them.

#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/event_server.h"
#include "common/logging.h"
#include "examples/example_args.h"
#include "fleet/router.h"
#include "obs/exposition.h"

using namespace veritas;
using examples::FlagValue;
using examples::ParseSize;
using examples::ParseUint16;
using examples::UsageError;

namespace {

constexpr char kUsage[] =
    "--backends=HOST:PORT,... [--port=N] [--port-file=PATH]\n"
    "    [--checkpoint-dir=DIR] [--max-sessions=N]\n"
    "    [--metrics-port=N] [--metrics-port-file=PATH] [--log-level=LEVEL]";

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (begin <= text.size()) {
    const size_t comma = text.find(',', begin);
    const size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > begin) parts.push_back(text.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return parts;
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 0;
  std::string port_file;
  bool serve_metrics = false;
  uint16_t metrics_port = 0;
  std::string metrics_port_file;
  SessionRouterOptions router_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (FlagValue(arg, "backends", &value)) {
      router_options.backends = SplitCommas(value);
    } else if (FlagValue(arg, "port", &value)) {
      if (!ParseUint16(value, &port)) UsageError(argv[0], kUsage, arg);
    } else if (FlagValue(arg, "port-file", &value)) {
      port_file = value;
    } else if (FlagValue(arg, "checkpoint-dir", &value)) {
      router_options.checkpoint_dir = value;
    } else if (FlagValue(arg, "max-sessions", &value)) {
      if (!ParseSize(value, &router_options.max_sessions)) {
        UsageError(argv[0], kUsage, arg);
      }
    } else if (FlagValue(arg, "metrics-port", &value)) {
      if (!ParseUint16(value, &metrics_port)) UsageError(argv[0], kUsage, arg);
      serve_metrics = true;
    } else if (FlagValue(arg, "metrics-port-file", &value)) {
      metrics_port_file = value;
    } else if (FlagValue(arg, "log-level", &value)) {
      LogLevel level;
      if (!ParseLogLevel(value, &level)) UsageError(argv[0], kUsage, arg);
      SetLogLevel(level);
    } else {
      UsageError(argv[0], kUsage, arg);
    }
  }
  if (router_options.backends.empty()) {
    UsageError(argv[0], kUsage, "--backends is required");
  }

  auto router = SessionRouter::Start(router_options);
  if (!router.ok()) {
    std::cerr << "router start failed: " << router.status() << "\n";
    return 1;
  }
  std::mutex log_mu;
  router.value()->set_log([&log_mu](const std::string& message) {
    std::lock_guard<std::mutex> lock(log_mu);
    std::cout << message << std::endl;  // flushed: scripts tail this
  });

  EventApiServerOptions server_options;
  server_options.port = port;
  // Forwarded calls block on backend round trips (which block on backend
  // queue workers): give the router headroom to keep every backend busy.
  server_options.dispatch_workers = 4 * router_options.backends.size();
  auto listening = EventApiServer::Start(router.value().get(), server_options);
  if (!listening.ok()) {
    std::cerr << "router server start failed: " << listening.status() << "\n";
    return 1;
  }
  const std::unique_ptr<EventApiServer> server = std::move(listening).value();

  std::unique_ptr<MetricsHttpServer> metrics_server;
  if (serve_metrics) {
    MetricsHttpOptions metrics_options;
    metrics_options.port = metrics_port;
    auto started = MetricsHttpServer::Start(
        [] { return GlobalMetrics().Snapshot(); }, metrics_options);
    if (!started.ok()) {
      std::cerr << "metrics endpoint start failed: " << started.status()
                << "\n";
      return 1;
    }
    metrics_server = std::move(started).value();
    std::cout << "metrics on http://127.0.0.1:" << metrics_server->port()
              << "/metrics" << std::endl;
    if (!metrics_port_file.empty()) {
      std::ofstream out(metrics_port_file);
      if (!out) {
        std::cerr << "cannot write metrics port file " << metrics_port_file
                  << "\n";
        return 1;
      }
      out << metrics_server->port() << "\n";
    }
  }

  std::cout << "veritas_router listening on 127.0.0.1:" << server->port()
            << " (" << router_options.backends.size() << " backends, api v"
            << kApiVersion << ")" << std::endl;
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    if (!out) {
      std::cerr << "cannot write port file " << port_file << "\n";
      return 1;
    }
    out << server->port() << "\n";
  }
  std::cout << "serving until interrupted (Ctrl-C)" << std::endl;
  server->WaitForConnections(SIZE_MAX);  // blocks forever
  return 0;
}
