#include "obs/exposition.h"

#include <poll.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "common/logging.h"

namespace veritas {

namespace {

/// Longest a scrape may take to send its request head. The endpoint serves
/// one connection at a time, so a peer that connects and stays silent must
/// not hold every later scrape behind it.
constexpr std::chrono::milliseconds kRequestHeadDeadline{2000};

/// Splits a registry key into (family, rendered inner labels). A key
/// without labels yields an empty label string.
void SplitKey(const std::string& key, std::string* family,
              std::string* labels) {
  const size_t brace = key.find('{');
  if (brace == std::string::npos) {
    *family = key;
    labels->clear();
    return;
  }
  *family = key.substr(0, brace);
  // Inner text only: "a=\"b\"" from "{a=\"b\"}".
  const size_t close = key.rfind('}');
  *labels = key.substr(brace + 1,
                       close == std::string::npos ? std::string::npos
                                                  : close - brace - 1);
}

std::string FormatDouble(double value) {
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

/// `family` suffixed and labeled: Sample("x", "a=\"b\"", "_sum") ->
/// `x_sum{a="b"}`.
std::string SampleName(const std::string& family, const std::string& labels,
                       const char* suffix,
                       const std::string& extra_label = "") {
  std::string name = family + suffix;
  std::string inner = labels;
  if (!extra_label.empty()) {
    inner = inner.empty() ? extra_label : inner + "," + extra_label;
  }
  if (!inner.empty()) name += "{" + inner + "}";
  return name;
}

void EmitType(std::set<std::string>* seen, const std::string& family,
              const char* type, std::string* out) {
  if (!seen->insert(family).second) return;
  out->append("# TYPE " + family + " " + type + "\n");
}

}  // namespace

std::string RenderPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  std::set<std::string> seen;
  std::string family;
  std::string labels;
  for (const auto& [key, value] : snapshot.counters) {
    SplitKey(key, &family, &labels);
    EmitType(&seen, family, "counter", &out);
    out.append(SampleName(family, labels, "") + " " + std::to_string(value) +
               "\n");
  }
  for (const auto& [key, value] : snapshot.gauges) {
    SplitKey(key, &family, &labels);
    EmitType(&seen, family, "gauge", &out);
    out.append(SampleName(family, labels, "") + " " + std::to_string(value) +
               "\n");
  }
  for (const auto& [key, histogram] : snapshot.histograms) {
    SplitKey(key, &family, &labels);
    EmitType(&seen, family, "histogram", &out);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < histogram.counts.size(); ++i) {
      cumulative += histogram.counts[i];
      const std::string le =
          "le=\"" + FormatDouble(histogram.upper_bounds[i]) + "\"";
      out.append(SampleName(family, labels, "_bucket", le) + " " +
                 std::to_string(cumulative) + "\n");
    }
    out.append(SampleName(family, labels, "_sum") + " " +
               FormatDouble(histogram.sum) + "\n");
    out.append(SampleName(family, labels, "_count") + " " +
               std::to_string(histogram.count) + "\n");
  }
  return out;
}

MetricsHttpServer::MetricsHttpServer(std::function<MetricsSnapshot()> provider)
    : provider_(std::move(provider)) {}

Result<std::unique_ptr<MetricsHttpServer>> MetricsHttpServer::Start(
    std::function<MetricsSnapshot()> provider,
    const MetricsHttpOptions& options) {
  if (!provider) {
    return Status::InvalidArgument("MetricsHttpServer: null provider");
  }
  std::unique_ptr<MetricsHttpServer> server(
      new MetricsHttpServer(std::move(provider)));
  auto listener = Socket::ListenTcp(options.bind_address, options.port);
  if (!listener.ok()) return listener.status();
  server->listener_ = std::move(listener).value();
  auto port = server->listener_.LocalPort();
  if (!port.ok()) return port.status();
  server->port_ = port.value();
  server->accept_thread_ = std::thread([raw = server.get()] {
    raw->AcceptLoop();
  });
  return server;
}

MetricsHttpServer::~MetricsHttpServer() { Stop(); }

void MetricsHttpServer::AcceptLoop() {
  for (;;) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) return;  // listener shut down
    const Socket connection = std::move(accepted).value();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      serving_ = &connection;
    }
    ServeScrape(connection);
    std::lock_guard<std::mutex> lock(mu_);
    serving_ = nullptr;
    ++scrapes_served_;
  }
}

void MetricsHttpServer::ServeScrape(const Socket& connection) {
  // Drain the request head (we answer every path with the exposition, so
  // only the end-of-headers marker matters). Bounded in size — a peer
  // streaming garbage gets cut off rather than growing the buffer — and in
  // time: once the deadline passes, the scrape is answered as it stands.
  std::string request;
  char chunk[512];
  const auto deadline =
      std::chrono::steady_clock::now() + kRequestHeadDeadline;
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < 8192) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    pollfd readable = {connection.fd(), POLLIN, 0};
    const int ready = ::poll(&readable, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;
    auto received = connection.RecvSome(chunk, sizeof chunk);
    if (!received.ok() || received.value().eof) break;
    request.append(chunk, received.value().bytes);
  }
  const std::string body = RenderPrometheus(provider_());
  std::string response =
      "HTTP/1.0 200 OK\r\n"
      "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: " + std::to_string(body.size()) + "\r\n"
      "Connection: close\r\n\r\n";
  response += body;
  const Status sent = connection.SendAll(response.data(), response.size());
  if (!sent.ok()) {
    VERITAS_LOG(Debug) << "metrics scrape send failed: " << sent.message();
  }
}

size_t MetricsHttpServer::scrapes_served() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scrapes_served_;
}

void MetricsHttpServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    // Sever a scrape in progress: its peer may never send its head or read
    // the response.
    if (serving_ != nullptr) serving_->Shutdown();
  }
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
}

}  // namespace veritas
