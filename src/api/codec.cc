#include "api/codec.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <type_traits>
#include <utility>
#include <variant>

namespace veritas {

namespace {

Status Contextualize(const Status& status, const char* key) {
  if (status.ok()) return status;
  return Status(status.code(), std::string(key) + ": " + status.message());
}

// ---- the JSON archive ------------------------------------------------------
// Both directions are visitors over each struct's VisitFields
// (common/fields.h): a struct is an object keyed by field name, a vector an
// array, an enum its spelling, an integer an exact decimal, a double the
// writer's max_digits10 rendering, a string-keyed map an object.
// FactDatabase, BeliefState and HistogramSnapshot keep hand-written
// overloads, because their JSON shape is not their member list.

class JsonOut {
 public:
  explicit JsonOut(JsonWriter* w) : w_(w) {}

  template <typename T>
  void operator()(const char* key, const T& value) {
    w_->Key(key);
    Write(value);
  }

  void Write(bool value) { w_->Bool(value); }
  void Write(int64_t value) { w_->Int(value); }
  void Write(double value) { w_->Double(value); }
  void Write(const std::string& value) { w_->String(value); }
  void Write(const FactDatabase& db);
  void Write(const BeliefState& state);
  void Write(const HistogramSnapshot& hist);

  template <typename T>
  void Write(const std::vector<T>& items) {
    w_->BeginArray();
    for (const T& item : items) Write(item);
    w_->EndArray();
  }

  /// A map is an object keyed by its keys.
  template <typename T>
  void Write(const std::map<std::string, T>& entries) {
    w_->BeginObject();
    for (const auto& [key, value] : entries) (*this)(key.c_str(), value);
    w_->EndObject();
  }

  template <typename T>
  void Write(const T& value) {
    if constexpr (std::is_enum_v<T>) {
      w_->String(EnumName(value));
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(std::is_unsigned_v<T>, "schema integers are unsigned");
      w_->UInt(value);
    } else {
      w_->BeginObject();
      VisitFields(*this, value);
      w_->EndObject();
    }
  }

 private:
  JsonWriter* w_;
};

/// The reader visitor, pulling straight from a JsonReader. A missing member
/// leaves the caller's default untouched (forward/backward compatibility
/// within one api_version), members may come in any order, unknown ones are
/// skipped, and a present member of the wrong type is an error whose message
/// carries the key path, so a malformed document names the field.
class JsonIn {
 public:
  static Status Read(JsonReader& r, bool* out) { return r.ReadBool(out); }
  static Status Read(JsonReader& r, int64_t* out) { return r.ReadI64(out); }
  static Status Read(JsonReader& r, double* out) { return r.ReadDouble(out); }
  static Status Read(JsonReader& r, std::string* out) {
    return r.ReadString(out);
  }
  static Status Read(JsonReader& r, FactDatabase* db);
  static Status Read(JsonReader& r, BeliefState* state);
  static Status Read(JsonReader& r, HistogramSnapshot* hist);

  template <typename T>
  static Status Read(JsonReader& r, std::vector<T>* items) {
    items->clear();
    return r.ReadArray([&] { return Read(r, &items->emplace_back()); });
  }

  template <typename T>
  static Status Read(JsonReader& r, std::map<std::string, T>* entries) {
    entries->clear();
    return r.ReadObject([&](std::string_view name) {
      const std::string key(name);
      return Contextualize(Read(r, &(*entries)[key]), key.c_str());
    });
  }

  template <typename T>
  static Status Read(JsonReader& r, T* out) {
    if constexpr (std::is_enum_v<T>) {
      // Unknown names are rejected, never coerced to a default.
      std::string name;
      VERITAS_RETURN_IF_ERROR(r.ReadString(&name));
      if (!EnumFromName(name, out)) {
        return Status::InvalidArgument("unknown value \"" + name + "\"");
      }
      return Status::OK();
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(std::is_unsigned_v<T>, "schema integers are unsigned");
      uint64_t value = 0;
      VERITAS_RETURN_IF_ERROR(r.ReadU64(&value));
      if (value > std::numeric_limits<T>::max()) {
        return Status::OutOfRange("exceeds " +
                                  std::to_string(8 * sizeof(T)) + " bits");
      }
      *out = static_cast<T>(value);
      return Status::OK();
    } else {
      return ReadFields(r, [out](auto& field) { VisitFields(field, *out); });
    }
  }

  /// Reads an object whose fields `list(field)` names, VisitFields style,
  /// by calling `field("name", member)` for each: a member goes to the
  /// field of its name, and members of other names are skipped.
  template <typename List>
  static Status ReadFields(JsonReader& r, List list) {
    return r.ReadObject([&](std::string_view key) {
      bool found = false;
      Status status;
      auto field = [&](const char* name, auto& member) {
        if (found || key != name) return;
        found = true;
        status = Contextualize(Read(r, &member), name);
      };
      list(field);
      return found ? status : r.Skip();
    });
  }
};

/// ReadFields over the object `span` (a whole value; empty = absent),
/// refusing another kind of value with "<what>: expected an object".
template <typename List>
Status ReadFields(std::string_view span, const char* what, List list) {
  if (span.empty()) return Status::OK();
  if (span.front() != '{') {
    return Status::InvalidArgument(std::string(what) + ": expected an object");
  }
  JsonReader r(span);
  return JsonIn::ReadFields(r, list);
}

/// Reads the value `span` (empty = absent, which keeps `*out`), with `key`
/// in the error path.
template <typename T>
Status ReadSpan(std::string_view span, const char* key, T* out) {
  if (span.empty()) return Status::OK();
  JsonReader r(span);
  return Contextualize(JsonIn::Read(r, out), key);
}

// ---- hand-written shapes ---------------------------------------------------

/// The rows of a database's claims and mentions: a claim's truth is "?"
/// when unknown, and a mention's source is its document's.
struct ClaimRow {
  std::string text;
  std::string truth = "?";
};

template <typename V, typename S>
FieldsOf<S, ClaimRow> VisitFields(V& v, S& row) {
  v("text", row.text);
  v("truth", row.truth);
}

struct MentionRow {
  DocumentId document = 0;
  ClaimId claim = 0;
  std::string stance = "support";
};

template <typename V, typename S>
FieldsOf<S, MentionRow> VisitFields(V& v, S& row) {
  v("document", row.document);
  v("claim", row.claim);
  v("stance", row.stance);
}

void JsonOut::Write(const FactDatabase& db) {
  const auto rows = [this](const char* key, size_t count, auto row) {
    w_->Key(key).BeginArray();
    for (size_t i = 0; i < count; ++i) Write(row(i));
    w_->EndArray();
  };
  w_->BeginObject();
  rows("sources", db.num_sources(), [&](size_t s) -> const Source& {
    return db.source(static_cast<SourceId>(s));
  });
  rows("documents", db.num_documents(), [&](size_t d) -> const Document& {
    return db.document(static_cast<DocumentId>(d));
  });
  rows("claims", db.num_claims(), [&](size_t c) {
    const ClaimId id = static_cast<ClaimId>(c);
    return ClaimRow{db.claim(id).text,
                    db.has_ground_truth(id) ? (db.ground_truth(id) ? "1" : "0")
                                            : "?"};
  });
  rows("mentions", db.num_cliques(), [&](size_t i) {
    const Clique& clique = db.clique(i);
    return MentionRow{clique.document, clique.claim,
                      clique.stance == Stance::kSupport ? "support" : "refute"};
  });
  w_->EndObject();
}

Status JsonIn::Read(JsonReader& r, FactDatabase* db) {
  // The rows are collected first and assembled in one fixed order, so the
  // arrays may come in any order (a mention names a claim and a document).
  std::vector<Source> sources;
  std::vector<Document> documents;
  std::vector<ClaimRow> claims;
  std::vector<MentionRow> mentions;
  VERITAS_RETURN_IF_ERROR(ReadFields(r, [&](auto& field) {
    field("sources", sources);
    field("documents", documents);
    field("claims", claims);
    field("mentions", mentions);
  }));
  FactDatabase decoded;
  for (Source& source : sources) decoded.AddSource(std::move(source));
  for (Document& document : documents) {
    decoded.AddDocument(std::move(document));
  }
  for (ClaimRow& row : claims) {
    const ClaimId id = decoded.AddClaim({std::move(row.text)});
    if (row.truth == "0") decoded.SetGroundTruth(id, false);
    else if (row.truth == "1") decoded.SetGroundTruth(id, true);
    else if (row.truth != "?") {
      return Status::InvalidArgument("claim truth: expected \"?\"/\"0\"/\"1\"");
    }
  }
  for (const MentionRow& row : mentions) {
    if (row.stance != "support" && row.stance != "refute") {
      return Status::InvalidArgument("mention stance: expected support/refute");
    }
    VERITAS_RETURN_IF_ERROR(decoded.AddMention(
        row.document, row.claim,
        row.stance == "support" ? Stance::kSupport : Stance::kRefute));
  }
  *db = std::move(decoded);
  return Status::OK();
}

void JsonOut::Write(const BeliefState& state) {
  w_->BeginObject();
  (*this)("probs", state.probs());
  w_->Key("labels").BeginArray();
  for (size_t i = 0; i < state.num_claims(); ++i) {
    w_->Int(static_cast<int64_t>(state.label(static_cast<ClaimId>(i))));
  }
  w_->EndArray();
  w_->EndObject();
}

Status JsonIn::Read(JsonReader& r, BeliefState* state) {
  std::vector<double> probs;
  std::vector<int64_t> labels;
  VERITAS_RETURN_IF_ERROR(ReadFields(r, [&](auto& field) {
    field("probs", probs);
    field("labels", labels);
  }));
  if (labels.size() != probs.size()) {
    return Status::InvalidArgument("state: probs/labels size mismatch");
  }
  BeliefState decoded(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) {
    if (labels[i] < -1 || labels[i] > 1) {
      return Status::OutOfRange("labels: expected -1/0/1");
    }
    const ClaimId id = static_cast<ClaimId>(i);
    if (labels[i] >= 0) decoded.SetLabel(id, labels[i] == 1);
    decoded.set_prob(id, probs[i]);
  }
  *state = std::move(decoded);
  return Status::OK();
}

void JsonOut::Write(const HistogramSnapshot& hist) {
  w_->BeginObject();
  // The +Inf overflow bound has no JSON literal (the writer rejects
  // non-finite doubles); the wire carries the finite bounds only and the
  // decoder reappends +Inf — so "counts" has one more element than
  // "bounds".
  w_->Key("bounds").BeginArray();
  for (size_t i = 0; i + 1 < hist.upper_bounds.size(); ++i) {
    w_->Double(hist.upper_bounds[i]);
  }
  w_->EndArray();
  (*this)("counts", hist.counts);
  (*this)("sum", hist.sum);
  (*this)("count", hist.count);
  w_->EndObject();
}

Status JsonIn::Read(JsonReader& r, HistogramSnapshot* hist) {
  hist->upper_bounds.clear();
  hist->counts.clear();
  VERITAS_RETURN_IF_ERROR(ReadFields(r, [hist](auto& field) {
    field("bounds", hist->upper_bounds);
    field("counts", hist->counts);
    field("sum", hist->sum);
    field("count", hist->count);
  }));
  hist->upper_bounds.push_back(std::numeric_limits<double>::infinity());
  if (hist->counts.size() != hist->upper_bounds.size()) {
    return Status::InvalidArgument("histogram: bounds/counts size mismatch");
  }
  return Status::OK();
}

/// The "result_type" tag of each ApiResponse::result alternative, by index
/// (index 0, the error, is tagged by "ok":false instead).
constexpr const char* kResultTypes[] = {
    "error",   "create_session", "step",      "ground",  "checkpoint",
    "restore", "stats",          "terminate", "metrics",
};
static_assert(std::size(kResultTypes) ==
              std::variant_size_v<decltype(ApiResponse::result)>);

/// Whether a params or result alternative carries a `session`.
template <typename T, typename = void>
struct HasSession : std::false_type {};
template <typename T>
struct HasSession<T, std::void_t<decltype(T::session)>> : std::true_type {};

/// The variant holding a default-constructed alternative `index`.
template <typename Variant, size_t I = 0>
Variant Alternative(size_t index) {
  if constexpr (I + 1 < std::variant_size_v<Variant>) {
    if (index != I) return Alternative<Variant, I + 1>(index);
  }
  return Variant(std::in_place_index<I>);
}

/// Reads the whole document `text` and reports, in `spans`, the value
/// bytes of the root object's members named in `keys`. Syntax errors come
/// first, as from any whole-document read; then a root of another kind
/// fails with "<what>: expected an object".
template <size_t N>
Status ScanObject(std::string_view text, const char* what,
                  const char* const (&keys)[N], std::string_view (&spans)[N]) {
  JsonReader r(text);
  const size_t first = text.find_first_not_of(" \t\n\r");
  const bool object = first != std::string_view::npos && text[first] == '{';
  VERITAS_RETURN_IF_ERROR(
      object ? r.ReadObject([&](std::string_view key) {
        for (size_t i = 0; i < N; ++i) {
          if (key == keys[i]) return r.Skip(&spans[i]);
        }
        return r.Skip();
      })
             : r.Skip());
  VERITAS_RETURN_IF_ERROR(r.ExpectEnd());
  if (!object) {
    return Status::InvalidArgument(std::string(what) + ": expected an object");
  }
  return Status::OK();
}

/// Reads `session` in the object `payload` into the envelope.
Status ReadSession(std::string_view payload, const char* what,
                   Envelope* envelope) {
  if (payload.empty()) return Status::OK();
  std::string_view spans[1];
  VERITAS_RETURN_IF_ERROR(ScanObject(payload, what, {"session"}, spans));
  envelope->session_literal = spans[0];
  return ReadSpan(spans[0], "session", &envelope->session);
}

/// Reads the members every envelope opens with, in the order whose first
/// error a client sees: `id` (handed to `id_out` at once, so a server can
/// address its refusal), `trace_id`, then the required api_version, of
/// which any but this build's is refused (`what` names the envelope).
Status ReadHeader(std::string_view version, std::string_view id,
                  std::string_view trace_id, const char* what,
                  Envelope* envelope, uint64_t* id_out) {
  VERITAS_RETURN_IF_ERROR(ReadSpan(id, "id", &envelope->id));
  if (id_out != nullptr) *id_out = envelope->id;
  VERITAS_RETURN_IF_ERROR(ReadSpan(trace_id, "trace_id", &envelope->trace_id));
  if (version.empty()) {
    return Status::InvalidArgument(std::string(what) + ": missing api_version");
  }
  uint64_t value = 0;
  VERITAS_RETURN_IF_ERROR(ReadSpan(version, "api_version", &value));
  envelope->api_version = static_cast<uint32_t>(value);
  if (envelope->api_version != kApiVersion) {
    return Status::FailedPrecondition(
        std::string(what) + ": unsupported api_version " +
        std::to_string(envelope->api_version) + " (this build speaks " +
        std::to_string(kApiVersion) + ")");
  }
  return Status::OK();
}

}  // namespace

// ---- wire.h helpers --------------------------------------------------------

ApiResponse MakeErrorResponse(uint64_t id, const Status& status) {
  ApiResponse response;
  response.id = id;
  ErrorResponse error;
  error.code = status.ok() ? StatusCode::kInternal : status.code();
  error.message = status.message();
  response.result = std::move(error);
  return response;
}

Status ToStatus(const ErrorResponse& error) {
  return Status(error.code, error.message);
}

// ---- message codecs --------------------------------------------------------

template <typename T>
void EncodeJson(const T& value, JsonWriter* writer) {
  JsonOut(writer).Write(value);
}

template <typename T>
Status DecodeJson(std::string_view text, T* out) {
  JsonReader r(text);
  VERITAS_RETURN_IF_ERROR(JsonIn::Read(r, out));
  return r.ExpectEnd();
}

template void EncodeJson(const FactDatabase&, JsonWriter*);
template void EncodeJson(const SessionSpec&, JsonWriter*);
template void EncodeJson(const StepResult&, JsonWriter*);
template void EncodeJson(const ValidationOutcome&, JsonWriter*);
template Status DecodeJson(std::string_view, FactDatabase*);
template Status DecodeJson(std::string_view, SessionSpec*);
template Status DecodeJson(std::string_view, StepResult*);
template Status DecodeJson(std::string_view, ValidationOutcome*);

// ---- envelopes -------------------------------------------------------------

Result<std::string> EncodeRequest(const ApiRequest& request) {
  JsonWriter w;
  JsonOut out(&w);
  w.BeginObject();
  out("api_version", request.api_version);
  out("id", request.id);
  // Omitted entirely when empty: untraced envelopes stay byte-identical to
  // the pre-tracing protocol (the parity suites pin this).
  if (!request.trace_id.empty()) out("trace_id", request.trace_id);
  // Dispatch key, not a defaultable enum field: DecodeRequest rejects a
  // missing or unknown method by hand.
  w.Key("method").String(EnumName(request.method()));  // lint: enum-checked
  w.Key("params").BeginObject();
  std::visit(
      [&out](const auto& params) {
        using T = std::decay_t<decltype(params)>;
        if constexpr (std::is_same_v<T, CreateSessionRequest>) {
          out("db", params.db);
          out("spec", params.spec);
        } else if constexpr (std::is_same_v<T, AnswerRequest>) {
          out("session", params.session);
          out("answers", params.answers);
        } else if constexpr (std::is_same_v<T, CheckpointRequest>) {
          out("session", params.session);
          out("directory", params.directory);
        } else if constexpr (std::is_same_v<T, RestoreRequest>) {
          out("directory", params.directory);
        } else if constexpr (!std::is_same_v<T, StatsRequest> &&
                             !std::is_same_v<T, MetricsRequest>) {
          // AdvanceRequest / GroundRequest / TerminateRequest: session only.
          out("session", params.session);
        }
      },
      request.params);
  w.EndObject();
  w.EndObject();
  return w.Take();
}

Result<Envelope> DecodeRequestEnvelope(std::string_view frame,
                                       uint64_t* id_out) {
  std::string_view spans[5];
  auto& [version, id, trace_id, method, params] = spans;
  VERITAS_RETURN_IF_ERROR(ScanObject(
      frame, "request", {"api_version", "id", "trace_id", "method", "params"},
      spans));
  Envelope envelope;
  VERITAS_RETURN_IF_ERROR(
      ReadHeader(version, id, trace_id, "request", &envelope, id_out));
  std::string name;
  VERITAS_RETURN_IF_ERROR(ReadSpan(method, "method", &name));
  if (name.empty()) return Status::InvalidArgument("request: missing method");
  // Missing or null params reads as an empty object: every member is
  // optional.
  if (params != "null") envelope.payload = params;
  if (!envelope.payload.empty() && envelope.payload.front() != '{') {
    return Status::InvalidArgument("params: expected an object");
  }
  if (!EnumFromName(name, &envelope.method)) {
    return Status::Unimplemented("request: unknown method \"" + name + "\"");
  }
  switch (envelope.method) {
    case ApiMethod::kAdvance:
    case ApiMethod::kAnswer:
    case ApiMethod::kGround:
    case ApiMethod::kCheckpoint:
    case ApiMethod::kTerminate:
      VERITAS_RETURN_IF_ERROR(
          ReadSession(envelope.payload, "params", &envelope));
      break;
    default:
      break;
  }
  return envelope;
}

Result<ApiRequest> DecodeRequest(const std::string& json, uint64_t* id_out) {
  auto decoded = DecodeRequestEnvelope(json, id_out);
  if (!decoded.ok()) return decoded.status();
  const Envelope& envelope = decoded.value();
  ApiRequest request;
  request.api_version = envelope.api_version;
  request.id = envelope.id;
  request.trace_id = envelope.trace_id;
  request.params = Alternative<decltype(request.params)>(
      static_cast<size_t>(envelope.method));
  const Status status = std::visit(
      [&envelope](auto& params) {
        using T = std::decay_t<decltype(params)>;
        // The envelope read the session of the methods that address one.
        if constexpr (HasSession<T>::value) params.session = envelope.session;
        return ReadFields(envelope.payload, "params", [&](auto& field) {
          if constexpr (std::is_same_v<T, CreateSessionRequest>) {
            field("db", params.db);
            field("spec", params.spec);
          } else if constexpr (std::is_same_v<T, AnswerRequest>) {
            field("answers", params.answers);
          } else if constexpr (std::is_same_v<T, CheckpointRequest> ||
                               std::is_same_v<T, RestoreRequest>) {
            field("directory", params.directory);
          }
        });
      },
      request.params);
  if (!status.ok()) return status;
  return request;
}

Result<std::string> EncodeResponse(const ApiResponse& response) {
  JsonWriter w;
  JsonOut out(&w);
  w.BeginObject();
  out("api_version", response.api_version);
  out("id", response.id);
  if (!response.trace_id.empty()) out("trace_id", response.trace_id);
  out("ok", !IsError(response));
  if (IsError(response)) {
    const ErrorResponse& error = std::get<ErrorResponse>(response.result);
    w.Key("error").BeginObject();
    w.Key("code").UInt(static_cast<uint64_t>(error.code));
    // Display duplicate of the numeric "code", which DecodeResponse
    // range-validates; the name is never read back.
    w.Key("status").String(StatusCodeName(error.code));  // lint: enum-checked
    out("message", error.message);
    w.EndObject();
  } else {
    // Dispatch key: DecodeResponse rejects unknown result types by hand.
    w.Key("result_type").String(kResultTypes[response.result.index()]);  // lint: enum-checked
    w.Key("result");
    std::visit(
        [&w, &out](const auto& result) {
          using T = std::decay_t<decltype(result)>;
          if constexpr (std::is_same_v<T, CreateSessionResponse> ||
                        std::is_same_v<T, RestoreResponse>) {
            w.BeginObject();
            out("session", result.session);
            w.EndObject();
          } else if constexpr (std::is_same_v<T, StepResponse>) {
            out.Write(result.step);
          } else if constexpr (std::is_same_v<T, GroundResponse>) {
            out.Write(result.view);
          } else if constexpr (std::is_same_v<T, CheckpointResponse>) {
            w.BeginObject();
            w.EndObject();
          } else if constexpr (std::is_same_v<T, StatsResponse>) {
            w.BeginObject();
            out("stats", result.stats);
            out("sessions", result.sessions);
            w.EndObject();
          } else if constexpr (std::is_same_v<T, TerminateResponse>) {
            out.Write(result.outcome);
          } else if constexpr (std::is_same_v<T, MetricsResponse>) {
            out.Write(result.snapshot);
          } else {
            w.Null();  // unreachable: the error branch handled index 0
          }
        },
        response.result);
  }
  w.EndObject();
  return w.Take();
}

Result<Envelope> DecodeResponseEnvelope(std::string_view frame) {
  std::string_view spans[7];
  auto& [version, id, trace_id, ok, result_type, result, error] = spans;
  VERITAS_RETURN_IF_ERROR(ScanObject(frame, "response",
                                     {"api_version", "id", "trace_id", "ok",
                                      "result_type", "result", "error"},
                                     spans));
  Envelope envelope;
  VERITAS_RETURN_IF_ERROR(
      ReadHeader(version, id, trace_id, "response", &envelope, nullptr));
  VERITAS_RETURN_IF_ERROR(ReadSpan(ok, "ok", &envelope.ok));
  if (!envelope.ok) {
    if (error.empty()) {
      return Status::InvalidArgument("response: failed without an error body");
    }
    envelope.payload = error;
    return envelope;
  }
  std::string type;
  VERITAS_RETURN_IF_ERROR(ReadSpan(result_type, "result_type", &type));
  if (result.empty()) return Status::InvalidArgument("response: missing result");
  envelope.payload = result;
  // Index 0 is the error, which no result_type names.
  envelope.result = static_cast<size_t>(
      std::find(std::begin(kResultTypes) + 1, std::end(kResultTypes), type) -
      std::begin(kResultTypes));
  if (envelope.result == std::size(kResultTypes)) {
    return Status::Unimplemented("response: unknown result_type \"" + type +
                                 "\"");
  }
  if (type == "create_session" || type == "restore") {
    VERITAS_RETURN_IF_ERROR(ReadSession(result, "result", &envelope));
  }
  return envelope;
}

Result<ApiResponse> DecodeResponse(const std::string& json) {
  auto decoded = DecodeResponseEnvelope(json);
  if (!decoded.ok()) return decoded.status();
  const Envelope& envelope = decoded.value();
  ApiResponse response;
  response.api_version = envelope.api_version;
  response.id = envelope.id;
  response.trace_id = envelope.trace_id;
  response.result =
      Alternative<decltype(response.result)>(envelope.result);
  const std::string_view body = envelope.payload;
  const Status status = std::visit(
      [&](auto& result) -> Status {
        using T = std::decay_t<decltype(result)>;
        if constexpr (std::is_same_v<T, ErrorResponse>) {
          uint64_t code = static_cast<uint64_t>(StatusCode::kInternal);
          VERITAS_RETURN_IF_ERROR(ReadFields(body, "error", [&](auto& field) {
            field("code", code);
            field("message", result.message);
          }));
          if (code > static_cast<uint64_t>(StatusCode::kUnavailable)) {
            return Status::InvalidArgument("error: unknown status code " +
                                           std::to_string(code));
          }
          result.code = static_cast<StatusCode>(code);
          return Status::OK();
        } else if constexpr (HasSession<T>::value) {
          result.session = envelope.session;  // create_session, restore
          return Status::OK();
        } else if constexpr (std::is_same_v<T, StepResponse>) {
          return ReadSpan(body, "result", &result.step);
        } else if constexpr (std::is_same_v<T, GroundResponse>) {
          return ReadSpan(body, "result", &result.view);
        } else if constexpr (std::is_same_v<T, CheckpointResponse>) {
          return Status::OK();
        } else if constexpr (std::is_same_v<T, StatsResponse>) {
          return ReadFields(body, "result", [&](auto& field) {
            field("stats", result.stats);
            field("sessions", result.sessions);
          });
        } else if constexpr (std::is_same_v<T, TerminateResponse>) {
          return ReadSpan(body, "result", &result.outcome);
        } else {
          return ReadSpan(body, "result", &result.snapshot);
        }
      },
      response.result);
  if (!status.ok()) return status;
  return response;
}

}  // namespace veritas
