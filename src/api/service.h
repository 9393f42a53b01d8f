/// \file
/// GuidanceApi: the dispatcher of the wire-level guidance API (DESIGN.md
/// §10). Maps decoded api/wire.h requests onto the session service —
/// SessionManager for lifecycle operations (create, checkpoint, restore,
/// stats) and the RequestQueue for step operations (advance, answer,
/// ground, terminate), so wire traffic flows through the same admission
/// control and per-session FIFO scheduling as in-process callers — and
/// flattens StepResult/GroundingView/ValidationOutcome into wire
/// responses. Errors never escape as exceptions: every failure maps to a
/// tagged ErrorResponse carrying the StatusCode.

#ifndef VERITAS_API_SERVICE_H_
#define VERITAS_API_SERVICE_H_

#include <string>

#include "api/frame_handler.h"
#include "api/wire.h"
#include "service/request_queue.h"
#include "service/session_manager.h"

namespace veritas {

/// Stateless request dispatcher over a SessionManager and its
/// RequestQueue. Thread-safe: it holds no mutable state of its own, and
/// both backends are internally synchronized — the server calls Handle
/// from its dispatch pool, concurrently for distinct connections. As a
/// FrameHandler it plugs into the server (api/event_server.h).
class GuidanceApi : public FrameHandler {
 public:
  /// `manager` and `queue` must outlive the api, and `queue` must be built
  /// over `manager`. Step requests go through the queue's admission
  /// control; a full queue surfaces as an ErrorResponse with kUnavailable —
  /// the client sheds load or retries, exactly like an in-process
  /// submitter.
  GuidanceApi(SessionManager* manager, RequestQueue* queue);

  /// Dispatches one decoded request. The response echoes the request id.
  ApiResponse Handle(const ApiRequest& request);

  /// The full server-side frame path: decode JSON, version-check, dispatch,
  /// encode. Malformed input becomes an encoded ErrorResponse (addressed
  /// with the request id when the envelope yielded one); this function
  /// always returns a valid response document.
  std::string HandleJson(const std::string& request_json);

  /// FrameHandler: a frame is one JSON envelope.
  std::string HandleFrame(const std::string& request_frame) override {
    return HandleJson(request_frame);
  }

  SessionManager* manager() { return manager_; }

 private:
  ApiResponse Dispatch(const ApiRequest& request);
  /// Runs a step-kind request through the queue, with both failure layers
  /// folded into the Status: a queue rejection and a failed step surface
  /// identically, and a returned response always carries an OK status.
  /// `trace_id` (optional) propagates into the queue's trace spans and the
  /// slow-step log.
  Result<ServiceResponse> ServeStep(RequestKind kind, SessionId session,
                                    const std::string& trace_id,
                                    StepAnswers answers = {});

  SessionManager* manager_;
  RequestQueue* queue_;
};

}  // namespace veritas

#endif  // VERITAS_API_SERVICE_H_
