#include "api/service.h"

#include <utility>

#include "api/codec.h"
#include "obs/metrics.h"

namespace veritas {

GuidanceApi::GuidanceApi(SessionManager* manager, RequestQueue* queue)
    : manager_(manager), queue_(queue) {}

Result<ServiceResponse> GuidanceApi::ServeStep(RequestKind kind,
                                               SessionId session,
                                               const std::string& trace_id,
                                               StepAnswers answers) {
  ServiceRequest step;
  step.kind = kind;
  step.session = session;
  step.trace_id = trace_id;
  step.answers = std::move(answers);
  auto submitted = queue_->Submit(std::move(step));
  if (!submitted.ok()) return submitted.status();
  ServiceResponse served = std::move(submitted).value().get();
  if (!served.status.ok()) return served.status;
  return served;
}

ApiResponse GuidanceApi::Dispatch(const ApiRequest& request) {
  ApiResponse response;
  std::visit(
      [&](const auto& params) {
        using T = std::decay_t<decltype(params)>;
        if constexpr (std::is_same_v<T, CreateSessionRequest>) {
          auto created = manager_->Create(params.db, params.spec);
          if (!created.ok()) {
            response = MakeErrorResponse(request.id, created.status());
            return;
          }
          response.result = CreateSessionResponse{created.value()};
        } else if constexpr (std::is_same_v<T, AdvanceRequest>) {
          auto served =
              ServeStep(RequestKind::kAdvance, params.session, request.trace_id);
          if (!served.ok()) {
            response = MakeErrorResponse(request.id, served.status());
            return;
          }
          response.result = StepResponse{std::move(served).value().step};
        } else if constexpr (std::is_same_v<T, AnswerRequest>) {
          auto served = ServeStep(RequestKind::kAnswer, params.session,
                                  request.trace_id, params.answers);
          if (!served.ok()) {
            response = MakeErrorResponse(request.id, served.status());
            return;
          }
          response.result = StepResponse{std::move(served).value().step};
        } else if constexpr (std::is_same_v<T, GroundRequest>) {
          auto served =
              ServeStep(RequestKind::kGround, params.session, request.trace_id);
          if (!served.ok()) {
            response = MakeErrorResponse(request.id, served.status());
            return;
          }
          response.result = GroundResponse{std::move(served).value().grounding};
        } else if constexpr (std::is_same_v<T, CheckpointRequest>) {
          const Status saved =
              manager_->Checkpoint(params.session, params.directory);
          if (!saved.ok()) {
            response = MakeErrorResponse(request.id, saved);
            return;
          }
          response.result = CheckpointResponse{};
        } else if constexpr (std::is_same_v<T, RestoreRequest>) {
          auto restored = manager_->Restore(params.directory);
          if (!restored.ok()) {
            response = MakeErrorResponse(request.id, restored.status());
            return;
          }
          response.result = RestoreResponse{restored.value()};
        } else if constexpr (std::is_same_v<T, StatsRequest>) {
          StatsResponse stats;
          stats.stats = manager_->Snapshot(&stats.sessions);
          response.result = std::move(stats);
        } else if constexpr (std::is_same_v<T, MetricsRequest>) {
          response.result = MetricsResponse{GlobalMetrics().Snapshot()};
        } else {
          static_assert(std::is_same_v<T, TerminateRequest>);
          auto served = ServeStep(RequestKind::kTerminate, params.session,
                                  request.trace_id);
          if (!served.ok()) {
            response = MakeErrorResponse(request.id, served.status());
            return;
          }
          response.result =
              TerminateResponse{std::move(served).value().outcome};
        }
      },
      request.params);
  return response;
}

ApiResponse GuidanceApi::Handle(const ApiRequest& request) {
  ApiResponse response = Dispatch(request);
  response.id = request.id;
  response.trace_id = request.trace_id;
  return response;
}

std::string GuidanceApi::HandleJson(const std::string& request_json) {
  uint64_t id = 0;
  ApiResponse response;
  auto decoded = DecodeRequest(request_json, &id);
  if (!decoded.ok()) {
    response = MakeErrorResponse(id, decoded.status());
  } else {
    response = Handle(decoded.value());
  }
  auto encoded = EncodeResponse(response);
  if (!encoded.ok()) {
    // A payload that cannot serialize (e.g. a non-finite double produced by
    // a degenerate corpus) degrades to a wire error instead of a dead
    // connection.
    encoded = EncodeResponse(MakeErrorResponse(id, encoded.status()));
  }
  return encoded.ok() ? std::move(encoded).value() : std::string("{}");
}

}  // namespace veritas
