/// \file
/// JSON codec of the wire protocol (DESIGN.md §10): encodes/decodes the
/// api/wire.h envelopes and every embedded message with lossless round
/// trips — 64-bit integers stay exact decimals, doubles are emitted at
/// max_digits10 and re-parsed bit-for-bit, free text goes through api/json.h
/// escaping, and non-finite doubles are rejected at encode time. Decoders
/// ignore unknown JSON members (forward compatibility) and surface
/// malformed input — truncated documents, type mismatches, unknown methods
/// or enum spellings, version mismatches — as Status errors, never
/// undefined behavior.
///
/// Embedded messages are not coded field by field: the JSON writer and
/// reader are two visitors over each struct's VisitFields list and each
/// enum's spelling table (common/fields.h), so a struct is an object keyed
/// by its field names in VisitFields order. Only the envelopes and the
/// FactDatabase, BeliefState and metrics-snapshot shapes are written by
/// hand.

#ifndef VERITAS_API_CODEC_H_
#define VERITAS_API_CODEC_H_

#include <string>

#include "api/json.h"
#include "api/wire.h"

namespace veritas {

/// Renders a request envelope:
///   {"api_version":1,"id":7,"method":"advance","params":{...}}
Result<std::string> EncodeRequest(const ApiRequest& request);

/// Parses a request envelope. `id_out` (optional) receives the correlation
/// id as soon as the envelope yields one — even when decoding then fails —
/// so servers can address their ErrorResponse. Rejects a missing or
/// mismatched api_version (kFailedPrecondition) and unknown methods
/// (kUnimplemented).
Result<ApiRequest> DecodeRequest(const std::string& json,
                                 uint64_t* id_out = nullptr);

/// Renders a response envelope:
///   {"api_version":1,"id":7,"ok":true,"result_type":"step","result":{...}}
///   {"api_version":1,"id":7,"ok":false,"error":{"code":2,
///    "status":"NotFound","message":"..."}}
Result<std::string> EncodeResponse(const ApiResponse& response);

/// Parses a response envelope (the client half).
Result<ApiResponse> DecodeResponse(const std::string& json);

// ---- message codecs (exported for the property tests) ----------------------

/// Encodes / decodes one embedded message — FactDatabase, SessionSpec,
/// StepResult or ValidationOutcome — exactly as the envelopes do, so the
/// property tests can hammer each in isolation; production code uses only
/// the four envelope functions.
template <typename T>
void EncodeJson(const T& value, JsonWriter* writer);
template <typename T>
Status DecodeJson(const JsonValue& value, T* out);

}  // namespace veritas

#endif  // VERITAS_API_CODEC_H_
