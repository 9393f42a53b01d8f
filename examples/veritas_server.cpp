// veritas_server: hosts the guidance service behind the wire-level API
// (DESIGN.md §10) — a SessionManager + RequestQueue worker pool fronted by
// the length-prefix-framed JSON protocol on a loopback TCP port. Pair it
// with examples/veritas_client (or any client speaking the protocol) to
// drive fact-checking sessions from another process, or put N of these
// behind examples/veritas_router for a fleet (DESIGN.md §11).
//
//   ./examples/example_veritas_server [--port=N] [--port-file=PATH]
//       [--workers=N] [--once] [--metrics-port=N]
//       [--metrics-port-file=PATH] [--log-level=LEVEL]
//
//   --port=N        TCP port to listen on (default 0 = ephemeral; the
//                   assigned port is printed and written to --port-file)
//   --port-file=P   write the bound port to file P (for scripts)
//   --workers=N     RequestQueue worker threads (default 2); the event
//                   loop's dispatch pool is sized to match
//   --once          exit after the first client disconnects (CI smoke)
//   --metrics-port=N       serve the Prometheus text exposition on this
//                          loopback port (0 = ephemeral; omit to disable)
//   --metrics-port-file=P  write the bound metrics port to file P
//   --log-level=L   debug|info|warning|error (overrides VERITAS_LOG_LEVEL)

#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "api/event_server.h"
#include "api/service.h"
#include "common/logging.h"
#include "examples/example_args.h"
#include "obs/exposition.h"

using namespace veritas;
using examples::FlagValue;
using examples::ParseSize;
using examples::ParseUint16;
using examples::UsageError;

namespace {

constexpr char kUsage[] =
    "[--port=N] [--port-file=PATH] [--workers=N] [--once]\n"
    "    [--metrics-port=N] [--metrics-port-file=PATH] [--log-level=LEVEL]";

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 0;
  std::string port_file;
  size_t workers = 2;
  bool once = false;
  bool serve_metrics = false;
  uint16_t metrics_port = 0;
  std::string metrics_port_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (FlagValue(arg, "port", &value)) {
      if (!ParseUint16(value, &port)) UsageError(argv[0], kUsage, arg);
    } else if (FlagValue(arg, "port-file", &value)) {
      port_file = value;
    } else if (FlagValue(arg, "workers", &value)) {
      if (!ParseSize(value, &workers) || workers == 0) {
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
    } else if (arg == "--once") {
      once = true;
    } else {
      UsageError(argv[0], kUsage, arg);
    }
  }

  SessionManager manager;
  RequestQueueOptions queue_options;
  queue_options.num_workers = workers;
  RequestQueue queue(&manager, queue_options);
  GuidanceApi api(&manager, &queue);

  EventApiServerOptions server_options;
  server_options.port = port;
  server_options.dispatch_workers = workers;
  auto listening = EventApiServer::Start(&api, server_options);
  if (!listening.ok()) {
    std::cerr << "server start failed: " << listening.status() << "\n";
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
              << "/metrics\n";
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

  std::cout << "veritas_server listening on 127.0.0.1:" << server->port()
            << " (" << workers << " workers, api v" << kApiVersion << ")\n";
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    if (!out) {
      std::cerr << "cannot write port file " << port_file << "\n";
      return 1;
    }
    out << server->port() << "\n";
  }

  if (once) {
    server->WaitForConnections(1);
    const ServiceStats stats = manager.stats();
    std::cout << "served 1 connection (" << stats.steps_served
              << " steps, " << stats.sessions_created
              << " sessions created); exiting\n";
    server->Stop();
    return 0;
  }
  std::cout << "serving until interrupted (Ctrl-C)\n";
  server->WaitForConnections(SIZE_MAX);  // blocks forever
  return 0;
}
