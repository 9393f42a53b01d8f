/// \file
/// JSON codec of the wire protocol (DESIGN.md §10): encodes/decodes the
/// api/wire.h envelopes and every embedded message with lossless round
/// trips — 64-bit integers stay exact decimals, doubles are emitted at
/// max_digits10 and re-read bit-for-bit, free text goes through api/json.h
/// escaping, and non-finite doubles are rejected at encode time. Decoders
/// read members in any order, ignore unknown ones (forward compatibility),
/// refuse a member named twice, and surface malformed input — truncated
/// documents, type mismatches, unknown methods or enum spellings, version
/// mismatches — as Status errors, never undefined behavior.
///
/// Embedded messages are not coded field by field: the JSON writer and
/// reader are two visitors over each struct's VisitFields list and each
/// enum's spelling table (common/fields.h), so a struct is an object keyed
/// by its field names in VisitFields order. The reader pulls from the
/// frame's bytes (api/json.h JsonReader); there is no intermediate tree.
/// Only the envelopes and the FactDatabase, BeliefState and histogram
/// shapes are written by hand. The envelope readers below serve both the
/// decoders and the router, which forwards the payload bytes (DESIGN §11).

#ifndef VERITAS_API_CODEC_H_
#define VERITAS_API_CODEC_H_

#include <string>
#include <string_view>

#include "api/json.h"
#include "api/wire.h"

namespace veritas {

/// Renders a request envelope:
///   {"api_version":1,"id":7,"method":"advance","params":{...}}
Result<std::string> EncodeRequest(const ApiRequest& request);

/// Parses a request envelope. `id_out` (optional) receives the correlation
/// id as soon as the envelope yields one — once the whole frame has read as
/// JSON, even when decoding then fails — so servers can address their
/// ErrorResponse. Rejects a missing or mismatched api_version
/// (kFailedPrecondition) and unknown methods (kUnimplemented).
Result<ApiRequest> DecodeRequest(const std::string& json,
                                 uint64_t* id_out = nullptr);

/// What a frame's envelope says, with the payload left undecoded. The
/// views point into the frame.
struct Envelope {
  uint32_t api_version = kApiVersion;
  uint64_t id = 0;
  std::string trace_id;
  ApiMethod method = ApiMethod::kStats;  ///< a request's method
  bool ok = false;                       ///< a response's "ok"
  /// A response's result: its index in ApiResponse::result (0 = error).
  size_t result = 0;
  /// The bytes of a request's `params` (empty when absent or null), or of a
  /// response's `result` or `error`.
  std::string_view payload;
  /// `session` in the payload of a request that addresses one (advance,
  /// answer, ground, checkpoint, terminate) or of a create_session or
  /// restore result; and the bytes of its literal, empty when absent.
  SessionId session = 0;
  std::string_view session_literal;
};

/// The first half of DecodeRequest, all a router needs: reads the whole
/// frame (a frame that is not JSON, or names a member twice, is refused
/// here), then the envelope and `params.session`, with DecodeRequest's
/// checks and messages. `id_out` as for DecodeRequest.
Result<Envelope> DecodeRequestEnvelope(std::string_view frame,
                                       uint64_t* id_out = nullptr);

/// Renders a response envelope:
///   {"api_version":1,"id":7,"ok":true,"result_type":"step","result":{...}}
///   {"api_version":1,"id":7,"ok":false,"error":{"code":2,
///    "status":"NotFound","message":"..."}}
Result<std::string> EncodeResponse(const ApiResponse& response);

/// Parses a response envelope (the client half).
Result<ApiResponse> DecodeResponse(const std::string& json);

/// The first half of DecodeResponse: reads the whole frame, then the
/// envelope, the result type and `result.session` of a create_session or
/// restore result.
Result<Envelope> DecodeResponseEnvelope(std::string_view frame);

// ---- message codecs (exported for the property tests) ----------------------

/// Encodes / decodes one embedded message — FactDatabase, SessionSpec,
/// StepResult or ValidationOutcome — exactly as the envelopes do, so the
/// property tests can hammer each in isolation; production code uses only
/// the envelope functions. DecodeJson reads `text` as one whole document.
template <typename T>
void EncodeJson(const T& value, JsonWriter* writer);
template <typename T>
Status DecodeJson(std::string_view text, T* out);

}  // namespace veritas

#endif  // VERITAS_API_CODEC_H_
