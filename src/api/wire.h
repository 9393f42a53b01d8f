/// \file
/// Wire-level message surface of the guidance service (DESIGN.md §10): a
/// versioned, serializable request/response protocol a remote client — a
/// crowd frontend, a load generator, a human validator's browser backend —
/// can speak without linking the C++ library. Every request envelope
/// carries an explicit `api_version`; decoders tolerate unknown JSON
/// members (forward compatibility) and reject unknown methods and version
/// mismatches with a tagged ErrorResponse carrying the StatusCode, so
/// error semantics survive the wire exactly (api/codec.h maps them back
/// into Status on the client).

#ifndef VERITAS_API_WIRE_H_
#define VERITAS_API_WIRE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/fields.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "service/session_manager.h"

namespace veritas {

/// Protocol version spoken by this build. Requests carrying any other
/// version are rejected with kFailedPrecondition: within one version the
/// schema only grows (new members, which decoders ignore when unknown), so
/// a mismatch means a breaking change.
inline constexpr uint32_t kApiVersion = 1;

/// The RPC surface. One enumerator per request message below; its wire
/// name ("create_session", "advance", ...) is its spelling.
enum class ApiMethod : uint8_t {
  kCreateSession = 0,
  kAdvance = 1,
  kAnswer = 2,
  kGround = 3,
  kCheckpoint = 4,
  kRestore = 5,
  kStats = 6,
  kTerminate = 7,
  kMetrics = 8,
};

constexpr Spellings<9> EnumSpellings(ApiMethod) {
  return {"create_session", "advance", "answer",    "ground",  "checkpoint",
          "restore",        "stats",   "terminate", "metrics"};
}

// ---- requests --------------------------------------------------------------

/// Opens a session: the full fact database travels with the request — the
/// client owns its corpus; the service owns nothing between sessions.
struct CreateSessionRequest {
  FactDatabase db;
  SessionSpec spec;
};

/// One unit of service work (Session::Advance over the wire).
struct AdvanceRequest {
  SessionId session = 0;
};

/// External verdicts for a pending plan (Session::Answer over the wire).
struct AnswerRequest {
  SessionId session = 0;
  StepAnswers answers;
};

/// Current grounding + posterior snapshot.
struct GroundRequest {
  SessionId session = 0;
};

/// Persists the session to a server-side checkpoint directory.
struct CheckpointRequest {
  SessionId session = 0;
  std::string directory;
};

/// Revives a server-side checkpoint as a new session.
struct RestoreRequest {
  std::string directory;
};

/// Service-wide counters + the live session list.
struct StatsRequest {};

/// Finalizes the session and returns its outcome.
struct TerminateRequest {
  SessionId session = 0;
};

/// Observability snapshot of the serving process (DESIGN.md §14). Routers
/// aggregate it across live backends, like `stats`.
struct MetricsRequest {};

/// A decoded request envelope. The active alternative of `params` IS the
/// method; `method()` derives the enumerator from it.
struct ApiRequest {
  uint32_t api_version = kApiVersion;
  /// Client-chosen correlation id, echoed verbatim in the response.
  uint64_t id = 0;
  /// Optional client-owned trace id (DESIGN.md §14). Empty = untraced, and
  /// the codec then omits the member entirely, keeping untraced envelopes
  /// byte-identical to the pre-tracing protocol. Non-empty ids propagate
  /// router → backend → queue → step unchanged and are echoed in the
  /// response.
  std::string trace_id;
  std::variant<CreateSessionRequest, AdvanceRequest, AnswerRequest,
               GroundRequest, CheckpointRequest, RestoreRequest, StatsRequest,
               TerminateRequest, MetricsRequest>
      params;

  ApiMethod method() const { return static_cast<ApiMethod>(params.index()); }
};

// ---- responses -------------------------------------------------------------

/// The tagged error alternative: the Status a failed operation produced,
/// flattened to its code + message. api/codec.h reconstitutes the exact
/// Status on the client, so remote error handling matches in-process.
struct ErrorResponse {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

struct CreateSessionResponse {
  SessionId session = 0;
};

/// Advance/Answer result: the full StepResult, wire-flattened by the codec
/// (IterationRecord and ArrivalStats are already flat scalar/vector
/// structs). Lossless: the loopback integration test pins bit-identical
/// IterationRecord traces against in-process Session calls.
struct StepResponse {
  StepResult step;
};

struct GroundResponse {
  GroundingView view;
};

struct CheckpointResponse {};

struct RestoreResponse {
  SessionId session = 0;
};

struct StatsResponse {
  ServiceStats stats;
  std::vector<SessionInfo> sessions;
};

/// Terminate result: the finalized ValidationOutcome (posterior, grounding,
/// per-iteration trace and counters), so a wire client needs no session
/// bookkeeping of its own to recover the complete run.
struct TerminateResponse {
  ValidationOutcome outcome;
};

/// The registry snapshot of the serving process — or, through a router,
/// the bucketwise merge across every live backend plus the router's own
/// registry (its router-stage trace spans live there).
struct MetricsResponse {
  MetricsSnapshot snapshot;
};

/// A decoded response envelope. ErrorResponse is the first alternative:
/// IsError() is an index check.
struct ApiResponse {
  uint32_t api_version = kApiVersion;
  uint64_t id = 0;  ///< echoes the request id
  /// Echo of the request's trace_id (empty = untraced, omitted on the
  /// wire).
  std::string trace_id;
  std::variant<ErrorResponse, CreateSessionResponse, StepResponse,
               GroundResponse, CheckpointResponse, RestoreResponse,
               StatsResponse, TerminateResponse, MetricsResponse>
      result;
};

inline bool IsError(const ApiResponse& response) {
  return response.result.index() == 0;
}

/// Builds the error envelope for a failed request.
ApiResponse MakeErrorResponse(uint64_t id, const Status& status);

/// Reconstructs the Status an ErrorResponse carries.
Status ToStatus(const ErrorResponse& error);

}  // namespace veritas

#endif  // VERITAS_API_WIRE_H_
