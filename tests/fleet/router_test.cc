// The router is transparent (DESIGN.md §11): it reads a frame's envelope
// and forwards the bytes. A client cannot tell it from a single server by
// the error bytes it gets back, a backend sees the client's frames as sent
// (only the digits of the session id differ), and a frame the router and a
// backend could read differently — a member named twice — reaches no
// backend.

#include "fleet/router.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/codec.h"
#include "api/event_server.h"
#include "api/service.h"
#include "service/request_queue.h"
#include "service/session_manager.h"
#include "testing/corpus_fixtures.h"
#include "testing/wire_fixtures.h"

namespace veritas {
namespace {

/// A FrameHandler in front of a GuidanceApi that keeps every frame it is
/// handed.
class RecordingHandler : public FrameHandler {
 public:
  explicit RecordingHandler(GuidanceApi* api) : api_(api) {}

  std::string HandleFrame(const std::string& request_frame) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      frames_.push_back(request_frame);
    }
    return api_->HandleJson(request_frame);
  }

  std::vector<std::string> frames() const {
    std::lock_guard<std::mutex> lock(mu_);
    return frames_;
  }

 private:
  GuidanceApi* api_;
  mutable std::mutex mu_;
  std::vector<std::string> frames_;
};

class RouterTransparencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    manager_ = std::make_unique<SessionManager>();
    queue_ = std::make_unique<RequestQueue>(manager_.get(),
                                            RequestQueueOptions{});
    api_ = std::make_unique<GuidanceApi>(manager_.get(), queue_.get());
    recorder_ = std::make_unique<RecordingHandler>(api_.get());
    auto server = EventApiServer::Start(recorder_.get());
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(server).value();

    SessionRouterOptions options;
    options.backends = {"127.0.0.1:" + std::to_string(server_->port())};
    auto router = SessionRouter::Start(options);
    ASSERT_TRUE(router.ok()) << router.status();
    router_ = std::move(router).value();
  }

  void TearDown() override {
    router_.reset();
    if (server_ != nullptr) server_->Stop();
  }

  /// A create frame for a tiny corpus, with an unknown member added to its
  /// params.
  std::string CreateFrame(uint64_t id) const {
    ApiRequest request;
    request.id = id;
    request.params = CreateSessionRequest{testing::MakeTinyCorpus(3, 12).db,
                                          testing::ExternalAnswerSpec(5, 2)};
    std::string frame = EncodeRequest(request).value();
    const std::string params = "\"params\":{";
    frame.insert(frame.find(params) + params.size(),
                 "\"client_hint\":{\"x\":[1,null]},");
    return frame;
  }

  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<RequestQueue> queue_;
  std::unique_ptr<GuidanceApi> api_;
  std::unique_ptr<RecordingHandler> recorder_;
  std::unique_ptr<EventApiServer> server_;
  std::unique_ptr<SessionRouter> router_;
};

TEST_F(RouterTransparencyTest, RefusedFramesGetTheBytesOfASingleServer) {
  std::string unknown_enum = CreateFrame(4);
  const std::string backend = "\"backend\":\"auto\"";
  const size_t at = unknown_enum.find(backend);
  ASSERT_NE(at, std::string::npos);
  unknown_enum.replace(at, backend.size(), "\"backend\":\"quantum\"");

  const std::string frames[] = {
      "garbage",
      "",
      "{\"api_version\":1,\"id\":2,\"method\":\"advance\",\"params\":{\"sess",
      "{\"api_version\":2,\"id\":3,\"method\":\"stats\",\"params\":{}}",
      "{\"api_version\":1,\"id\":4,\"method\":\"explode\",\"params\":{}}",
      unknown_enum,
      "{\"api_version\":1,\"id\":6,\"method\":\"advance\","
      "\"params\":{\"session\":\"seven\"}}",
  };
  for (const std::string& frame : frames) {
    const std::string routed = router_->HandleFrame(frame);
    EXPECT_EQ(routed, api_->HandleJson(frame)) << frame.substr(0, 80);
    auto decoded = DecodeResponse(routed);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(IsError(decoded.value())) << routed;
  }
}

TEST_F(RouterTransparencyTest, BackendSeesTheClientsBytes) {
  // One session the router did not place, so the backend's ids run one
  // ahead of the router's and the splice is visible.
  ASSERT_TRUE(manager_
                  ->Create(testing::MakeTinyCorpus(3, 12).db,
                           testing::ExternalAnswerSpec(5, 2))
                  .ok());

  const std::string create = CreateFrame(1);
  auto created = DecodeResponse(router_->HandleFrame(create));
  ASSERT_TRUE(created.ok()) << created.status();
  ASSERT_FALSE(IsError(created.value()));
  const SessionId session =
      std::get<CreateSessionResponse>(created.value().result).session;
  EXPECT_EQ(session, 1u);

  const std::string advance =
      "{\"api_version\":1,\"id\":2,\"method\":\"advance\","
      "\"params\":{\"note\":[\"x\"],\"session\":1}}";
  auto stepped = DecodeResponse(router_->HandleFrame(advance));
  ASSERT_TRUE(stepped.ok()) << stepped.status();
  ASSERT_FALSE(IsError(stepped.value()));

  const std::vector<std::string> seen = recorder_->frames();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], create);
  std::string expected = advance;
  expected.replace(expected.rfind("\"session\":1") + std::strlen("\"session\":"),
                   1, "2");
  EXPECT_EQ(seen[1], expected);
}

TEST_F(RouterTransparencyTest, DuplicateSessionMembersReachNoBackend) {
  auto created = DecodeResponse(router_->HandleFrame(CreateFrame(1)));
  ASSERT_TRUE(created.ok()) << created.status();
  ASSERT_FALSE(IsError(created.value()));
  const size_t before = recorder_->frames().size();

  auto refused = DecodeResponse(router_->HandleFrame(
      "{\"api_version\":1,\"id\":2,\"method\":\"advance\","
      "\"params\":{\"session\":1,\"session\":1}}"));
  ASSERT_TRUE(refused.ok()) << refused.status();
  ASSERT_TRUE(IsError(refused.value()));
  EXPECT_EQ(std::get<ErrorResponse>(refused.value().result).code,
            StatusCode::kInvalidArgument);
  EXPECT_EQ(recorder_->frames().size(), before);
}

}  // namespace
}  // namespace veritas
