// Prometheus exposition (DESIGN.md §14): the renderer must emit valid
// text-format 0.0.4 — `# TYPE` once per family, cumulative `_bucket`
// series ending at le="+Inf", `_sum`/`_count` per histogram, labeled keys
// folded into their family — and the scrape endpoint must serve exactly
// that over HTTP. The CI smoke validates a live server the same way; this
// pins the grammar in-process where failures are debuggable.

#include "obs/exposition.h"

#include <gtest/gtest.h>

#include <poll.h>

#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "obs/metrics.h"

namespace veritas {
namespace {

/// Minimal text-format grammar check: every non-comment line is
/// `name{labels} value` or `name value`, every `# TYPE` names a family
/// seen at most once.
void ExpectValidExposition(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  std::vector<std::string> type_families;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const size_t space = rest.find(' ');
      ASSERT_NE(space, std::string::npos) << line;
      const std::string family = rest.substr(0, space);
      const std::string type = rest.substr(space + 1);
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << line;
      for (const std::string& seen : type_families) {
        EXPECT_NE(seen, family) << "duplicate # TYPE for " << family;
      }
      type_families.push_back(family);
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment: " << line;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(name.empty()) << line;
    EXPECT_FALSE(value.empty()) << line;
    // A labeled sample must close its brace set.
    const size_t open = name.find('{');
    if (open != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
    }
  }
}

/// Reads until the peer closes; false if that takes longer than `timeout`
/// (the endpoint under test may never answer, and the suite must not hang).
bool ReadUntilClosed(const Socket& socket, std::chrono::milliseconds timeout,
                     std::string* reply) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  char chunk[1024];
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd readable = {socket.fd(), POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&readable, 1, static_cast<int>(left.count())) <= 0) {
      return false;
    }
    auto received = socket.RecvSome(chunk, sizeof chunk);
    if (!received.ok()) return false;
    if (received.value().eof) return true;
    reply->append(chunk, received.value().bytes);
  }
}

MetricsSnapshot SampleSnapshot() {
  MetricsRegistry registry;
  registry.counter("veritas_test_total")->Increment(3);
  registry.counter(WithLabel("veritas_labeled_total", "kind", "a"))
      ->Increment(1);
  registry.counter(WithLabel("veritas_labeled_total", "kind", "b"))
      ->Increment(2);
  registry.gauge("veritas_test_bytes")->Set(-5);
  registry.histogram("veritas_test_seconds")->Record(1e-3);
  registry.histogram("veritas_test_seconds")->Record(4.0);
  return registry.Snapshot();
}

TEST(RenderPrometheusTest, EmitsValidGrammar) {
  ExpectValidExposition(RenderPrometheus(SampleSnapshot()));
}

TEST(RenderPrometheusTest, CountersAndGauges) {
  const std::string text = RenderPrometheus(SampleSnapshot());
  EXPECT_NE(text.find("# TYPE veritas_test_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("veritas_test_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE veritas_test_bytes gauge\n"), std::string::npos);
  EXPECT_NE(text.find("veritas_test_bytes -5\n"), std::string::npos);
}

TEST(RenderPrometheusTest, LabeledSeriesShareOneTypeLine) {
  const std::string text = RenderPrometheus(SampleSnapshot());
  // One # TYPE for the family, one sample per label set.
  EXPECT_NE(text.find("# TYPE veritas_labeled_total counter\n"),
            std::string::npos);
  EXPECT_EQ(text.find("# TYPE veritas_labeled_total counter\n"),
            text.rfind("# TYPE veritas_labeled_total counter\n"));
  EXPECT_NE(text.find("veritas_labeled_total{kind=\"a\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("veritas_labeled_total{kind=\"b\"} 2\n"),
            std::string::npos);
}

TEST(RenderPrometheusTest, HistogramBucketsAreCumulativeAndEndAtInf) {
  const std::string text = RenderPrometheus(SampleSnapshot());
  EXPECT_NE(text.find("# TYPE veritas_test_seconds histogram\n"),
            std::string::npos);
  // Two recordings: every bucket at or above 4 s holds the cumulative 2,
  // and the series closes with the +Inf bucket == _count.
  EXPECT_NE(text.find("veritas_test_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("veritas_test_seconds_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("veritas_test_seconds_sum "), std::string::npos);
}

TEST(MetricsHttpServerTest, ServesExpositionOverHttp) {
  MetricsRegistry registry;
  registry.counter("veritas_scraped_total")->Increment(7);
  auto server = MetricsHttpServer::Start(
      [&registry] { return registry.Snapshot(); });
  ASSERT_TRUE(server.ok()) << server.status();

  auto connection = Socket::ConnectTcp("127.0.0.1", server.value()->port());
  ASSERT_TRUE(connection.ok()) << connection.status();
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_TRUE(
      connection.value().SendAll(request.data(), request.size()).ok());
  std::string reply;
  char chunk[1024];
  for (;;) {
    auto received = connection.value().RecvSome(chunk, sizeof chunk);
    ASSERT_TRUE(received.ok()) << received.status();
    if (received.value().eof) break;
    reply.append(chunk, received.value().bytes);
  }
  EXPECT_NE(reply.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(reply.find("text/plain"), std::string::npos);
  const size_t body_at = reply.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = reply.substr(body_at + 4);
  EXPECT_NE(body.find("veritas_scraped_total 7\n"), std::string::npos);
  ExpectValidExposition(body);

  server.value()->Stop();
  EXPECT_EQ(server.value()->scrapes_served(), 1u);
}

TEST(MetricsHttpServerTest, StopIsIdempotent) {
  auto server =
      MetricsHttpServer::Start([] { return MetricsSnapshot{}; });
  ASSERT_TRUE(server.ok()) << server.status();
  server.value()->Stop();
  server.value()->Stop();
}

TEST(MetricsHttpServerTest, NullProviderRejected) {
  auto server = MetricsHttpServer::Start(nullptr);
  EXPECT_FALSE(server.ok());
}

TEST(MetricsHttpServerTest, SilentPeerDelaysNeitherScrapesNorStop) {
  MetricsRegistry registry;
  registry.counter("veritas_scraped_total")->Increment(7);
  auto server = MetricsHttpServer::Start(
      [&registry] { return registry.Snapshot(); });
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = server.value()->port();

  // A peer connects and never sends a byte; a real scrape queues behind it
  // and is answered once the 2 s head deadline cuts the silent one off.
  auto silent = Socket::ConnectTcp("127.0.0.1", port);
  ASSERT_TRUE(silent.ok()) << silent.status();
  auto scrape = Socket::ConnectTcp("127.0.0.1", port);
  ASSERT_TRUE(scrape.ok()) << scrape.status();
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_TRUE(scrape.value().SendAll(request.data(), request.size()).ok());
  std::string reply;
  EXPECT_TRUE(ReadUntilClosed(scrape.value(), std::chrono::seconds(5), &reply))
      << "scrape unanswered after 5 s behind a silent peer";
  EXPECT_NE(reply.find("veritas_scraped_total 7\n"), std::string::npos);
  silent.value().Shutdown();  // lets a server without the deadline go on

  // Stop() while the server waits on another silent peer severs it at once
  // instead of waiting out the deadline.
  auto held = Socket::ConnectTcp("127.0.0.1", port);
  ASSERT_TRUE(held.ok()) << held.status();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));  // accepted
  auto stopped = std::async(std::launch::async,
                            [&server] { server.value()->Stop(); });
  const bool prompt = stopped.wait_for(std::chrono::seconds(1)) ==
                      std::future_status::ready;
  held.value().Shutdown();  // unblocks a Stop() that did not sever it
  stopped.wait();
  EXPECT_TRUE(prompt) << "Stop() blocked on a connection mid-read";
}

}  // namespace
}  // namespace veritas
