/// \file
/// Prometheus text exposition of a MetricsSnapshot (DESIGN.md §14): the
/// renderer emits the text format version 0.0.4 — `# TYPE` per family,
/// counters/gauges as plain samples, histograms as cumulative
/// `_bucket{le="..."}` series plus `_sum`/`_count` — and MetricsHttpServer
/// serves it over a minimal HTTP/1.0 responder built on the same
/// common/socket.h machinery as the wire transport (one accept thread;
/// every request path answers with the full exposition, which is what
/// scrapers expect of a metrics port). Enable with `--metrics-port` on
/// veritas_server / veritas_router.

#ifndef VERITAS_OBS_EXPOSITION_H_
#define VERITAS_OBS_EXPOSITION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/socket.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace veritas {

/// Renders the snapshot in the Prometheus text format (version 0.0.4).
/// Keys carrying labels (`name{k="v"}`) fold into their family: one
/// `# TYPE` line per family, one sample line per label set.
std::string RenderPrometheus(const MetricsSnapshot& snapshot);

struct MetricsHttpOptions {
  /// Loopback by default, matching every other listener in the stack.
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; read the assigned one from port().
  uint16_t port = 0;
};

/// A scrape endpoint: GET anything → 200 text/plain exposition of
/// `provider()`. Single accept thread, one request per connection
/// (HTTP/1.0, Connection: close) — scrape traffic is seconds-scale, not
/// the serving hot path. A request head that has not arrived within a
/// fixed deadline (2 s) is answered as it stands, so a silent peer delays
/// later scrapes by at most that much.
class MetricsHttpServer {
 public:
  /// `provider` is called per scrape from the serving thread; it must be
  /// thread-safe (MetricsRegistry::Snapshot is).
  static Result<std::unique_ptr<MetricsHttpServer>> Start(
      std::function<MetricsSnapshot()> provider,
      const MetricsHttpOptions& options = {});

  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  uint16_t port() const { return port_; }
  size_t scrapes_served() const;

  /// Idempotent: closes the listener, severs a scrape in progress and
  /// joins the accept thread.
  void Stop();

 private:
  explicit MetricsHttpServer(std::function<MetricsSnapshot()> provider);
  void AcceptLoop();
  void ServeScrape(const Socket& connection);

  std::function<MetricsSnapshot()> provider_;
  Socket listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  mutable std::mutex mu_;
  const Socket* serving_ = nullptr;  ///< AcceptLoop's current connection
  size_t scrapes_served_ = 0;
  bool stopping_ = false;
};

}  // namespace veritas

#endif  // VERITAS_OBS_EXPOSITION_H_
