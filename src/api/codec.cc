#include "api/codec.h"

#include <limits>
#include <type_traits>
#include <utility>

namespace veritas {

namespace {

Status Contextualize(const Status& status, const char* key) {
  if (status.ok()) return status;
  return Status(status.code(), std::string(key) + ": " + status.message());
}

Status RequireObject(const JsonValue& value, const char* what) {
  if (!value.is_object()) {
    return Status::InvalidArgument(std::string(what) + ": expected an object");
  }
  return Status::OK();
}

// ---- the JSON archive ------------------------------------------------------
// Both directions are visitors over each struct's VisitFields
// (common/fields.h): a struct is an object keyed by field name, a vector an
// array, an enum its spelling, an integer an exact decimal, a double the
// writer's max_digits10 rendering. FactDatabase, BeliefState and the metrics
// snapshots keep hand-written overloads, because their JSON shape is not
// their member list.

class JsonOut {
 public:
  explicit JsonOut(JsonWriter* w) : w_(w) {}

  template <typename T>
  void operator()(const char* key, const T& value) {
    w_->Key(key);
    Write(value);
  }

  void Write(bool value) { w_->Bool(value); }
  void Write(double value) { w_->Double(value); }
  void Write(const std::string& value) { w_->String(value); }
  void Write(const FactDatabase& db);
  void Write(const BeliefState& state);
  void Write(const HistogramSnapshot& hist);
  void Write(const MetricsSnapshot& snapshot);

  template <typename T>
  void Write(const std::vector<T>& items) {
    w_->BeginArray();
    for (const T& item : items) Write(item);
    w_->EndArray();
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

template <typename T>
Status ReadMember(const JsonValue& object, const char* key, T* out);

/// The reader visitor. A missing member leaves the caller's default
/// untouched (forward/backward compatibility within one api_version); a
/// present member of the wrong type is an error, and the key path is
/// threaded into its message so a malformed document names the field.
class JsonIn {
 public:
  explicit JsonIn(const JsonValue& object) : object_(object) {}

  template <typename T>
  void operator()(const char* key, T& field) {
    if (status_.ok()) status_ = ReadMember(object_, key, &field);
  }

  const Status& status() const { return status_; }

  static Status Read(const JsonValue& value, bool* out) {
    return Assign(value.AsBool(), out);
  }
  static Status Read(const JsonValue& value, double* out) {
    return Assign(value.AsDouble(), out);
  }
  static Status Read(const JsonValue& value, std::string* out) {
    return Assign(value.AsString(), out);
  }
  static Status Read(const JsonValue& value, FactDatabase* db);
  static Status Read(const JsonValue& value, BeliefState* state);
  static Status Read(const JsonValue& value, HistogramSnapshot* hist);
  static Status Read(const JsonValue& value, MetricsSnapshot* snapshot);

  template <typename T>
  static Status Read(const JsonValue& value, std::vector<T>* items) {
    if (!value.is_array()) return Status::InvalidArgument("expected an array");
    items->clear();
    items->reserve(value.items().size());
    for (const JsonValue& item : value.items()) {
      T decoded{};
      VERITAS_RETURN_IF_ERROR(Read(item, &decoded));
      items->push_back(std::move(decoded));
    }
    return Status::OK();
  }

  template <typename T>
  static Status Read(const JsonValue& value, T* out) {
    if constexpr (std::is_enum_v<T>) {
      // Unknown names are rejected, never coerced to a default.
      auto name = value.AsString();
      if (!name.ok()) return name.status();
      if (!EnumFromName(name.value(), out)) {
        return Status::InvalidArgument("unknown value \"" + name.value() +
                                       "\"");
      }
      return Status::OK();
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(std::is_unsigned_v<T>, "schema integers are unsigned");
      auto parsed = value.AsU64();
      if (!parsed.ok()) return parsed.status();
      if (parsed.value() > std::numeric_limits<T>::max()) {
        return Status::OutOfRange("exceeds " +
                                  std::to_string(8 * sizeof(T)) + " bits");
      }
      *out = static_cast<T>(parsed.value());
      return Status::OK();
    } else {
      if (!value.is_object()) {
        return Status::InvalidArgument("expected an object");
      }
      JsonIn fields(value);
      VisitFields(fields, *out);
      return fields.status();
    }
  }

 private:
  template <typename T>
  static Status Assign(Result<T> parsed, T* out) {
    if (!parsed.ok()) return parsed.status();
    *out = std::move(parsed).value();
    return Status::OK();
  }

  const JsonValue& object_;
  Status status_;
};

template <typename T>
Status ReadMember(const JsonValue& object, const char* key, T* out) {
  const JsonValue* member = object.Find(key);
  if (member == nullptr) return Status::OK();
  return Contextualize(JsonIn::Read(*member, out), key);
}

// ---- hand-written shapes ---------------------------------------------------

void JsonOut::Write(const FactDatabase& db) {
  w_->BeginObject();
  w_->Key("sources").BeginArray();
  for (size_t s = 0; s < db.num_sources(); ++s) {
    const Source& source = db.source(static_cast<SourceId>(s));
    w_->BeginObject();
    (*this)("name", source.name);
    (*this)("features", source.features);
    w_->EndObject();
  }
  w_->EndArray();
  w_->Key("documents").BeginArray();
  for (size_t d = 0; d < db.num_documents(); ++d) {
    const Document& document = db.document(static_cast<DocumentId>(d));
    w_->BeginObject();
    (*this)("source", document.source);
    (*this)("features", document.features);
    w_->EndObject();
  }
  w_->EndArray();
  w_->Key("claims").BeginArray();
  for (size_t c = 0; c < db.num_claims(); ++c) {
    const ClaimId id = static_cast<ClaimId>(c);
    w_->BeginObject();
    w_->Key("text").String(db.claim(id).text);
    w_->Key("truth").String(
        db.has_ground_truth(id) ? (db.ground_truth(id) ? "1" : "0") : "?");
    w_->EndObject();
  }
  w_->EndArray();
  w_->Key("mentions").BeginArray();
  for (const Clique& clique : db.cliques()) {
    w_->BeginObject();
    (*this)("document", clique.document);
    (*this)("claim", clique.claim);
    w_->Key("stance").String(clique.stance == Stance::kSupport ? "support"
                                                               : "refute");
    w_->EndObject();
  }
  w_->EndArray();
  w_->EndObject();
}

/// Decodes each element of the array member `key` (absent = none) as an
/// object and hands its members to `add`.
template <typename Add>
Status ReadRows(const JsonValue& value, const char* key, Add add) {
  const JsonValue* rows = value.Find(key);
  if (rows == nullptr) return Status::OK();
  if (!rows->is_array()) {
    return Status::InvalidArgument(std::string(key) + ": expected an array");
  }
  for (const JsonValue& row : rows->items()) {
    VERITAS_RETURN_IF_ERROR(RequireObject(row, key));
    VERITAS_RETURN_IF_ERROR(add(row));
  }
  return Status::OK();
}

Status JsonIn::Read(const JsonValue& value, FactDatabase* db) {
  VERITAS_RETURN_IF_ERROR(RequireObject(value, "db"));
  FactDatabase decoded;
  VERITAS_RETURN_IF_ERROR(ReadRows(value, "sources", [&](const JsonValue& row) {
    Source source;
    VERITAS_RETURN_IF_ERROR(ReadMember(row, "name", &source.name));
    VERITAS_RETURN_IF_ERROR(ReadMember(row, "features", &source.features));
    decoded.AddSource(std::move(source));
    return Status::OK();
  }));
  VERITAS_RETURN_IF_ERROR(
      ReadRows(value, "documents", [&](const JsonValue& row) {
        Document document;
        VERITAS_RETURN_IF_ERROR(ReadMember(row, "source", &document.source));
        VERITAS_RETURN_IF_ERROR(
            ReadMember(row, "features", &document.features));
        decoded.AddDocument(std::move(document));
        return Status::OK();
      }));
  VERITAS_RETURN_IF_ERROR(ReadRows(value, "claims", [&](const JsonValue& row) {
    Claim claim;
    VERITAS_RETURN_IF_ERROR(ReadMember(row, "text", &claim.text));
    const ClaimId id = decoded.AddClaim(std::move(claim));
    std::string truth = "?";
    VERITAS_RETURN_IF_ERROR(ReadMember(row, "truth", &truth));
    if (truth == "0") decoded.SetGroundTruth(id, false);
    else if (truth == "1") decoded.SetGroundTruth(id, true);
    else if (truth != "?") {
      return Status::InvalidArgument("claim truth: expected \"?\"/\"0\"/\"1\"");
    }
    return Status::OK();
  }));
  VERITAS_RETURN_IF_ERROR(ReadRows(value, "mentions", [&](const JsonValue& row) {
    DocumentId document = 0;
    ClaimId claim = 0;
    std::string stance = "support";
    VERITAS_RETURN_IF_ERROR(ReadMember(row, "document", &document));
    VERITAS_RETURN_IF_ERROR(ReadMember(row, "claim", &claim));
    VERITAS_RETURN_IF_ERROR(ReadMember(row, "stance", &stance));
    if (stance != "support" && stance != "refute") {
      return Status::InvalidArgument("mention stance: expected support/refute");
    }
    return decoded.AddMention(
        document, claim,
        stance == "support" ? Stance::kSupport : Stance::kRefute);
  }));
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

Status JsonIn::Read(const JsonValue& value, BeliefState* state) {
  VERITAS_RETURN_IF_ERROR(RequireObject(value, "state"));
  std::vector<double> probs;
  VERITAS_RETURN_IF_ERROR(ReadMember(value, "probs", &probs));
  std::vector<int64_t> labels;
  if (const JsonValue* v = value.Find("labels")) {
    if (!v->is_array()) {
      return Status::InvalidArgument("labels: expected an array");
    }
    for (const JsonValue& item : v->items()) {
      auto parsed = item.AsI64();
      if (!parsed.ok()) return Contextualize(parsed.status(), "labels");
      if (parsed.value() < -1 || parsed.value() > 1) {
        return Status::OutOfRange("labels: expected -1/0/1");
      }
      labels.push_back(parsed.value());
    }
  }
  if (labels.size() != probs.size()) {
    return Status::InvalidArgument("state: probs/labels size mismatch");
  }
  BeliefState decoded(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) {
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

Status JsonIn::Read(const JsonValue& value, HistogramSnapshot* hist) {
  VERITAS_RETURN_IF_ERROR(RequireObject(value, "histogram"));
  hist->upper_bounds.clear();
  VERITAS_RETURN_IF_ERROR(ReadMember(value, "bounds", &hist->upper_bounds));
  hist->upper_bounds.push_back(std::numeric_limits<double>::infinity());
  hist->counts.clear();
  VERITAS_RETURN_IF_ERROR(ReadMember(value, "counts", &hist->counts));
  if (hist->counts.size() != hist->upper_bounds.size()) {
    return Status::InvalidArgument("histogram: bounds/counts size mismatch");
  }
  VERITAS_RETURN_IF_ERROR(ReadMember(value, "sum", &hist->sum));
  return ReadMember(value, "count", &hist->count);
}

void JsonOut::Write(const MetricsSnapshot& snapshot) {
  w_->BeginObject();
  w_->Key("counters").BeginObject();
  for (const auto& [name, value] : snapshot.counters) {
    w_->Key(name).UInt(value);
  }
  w_->EndObject();
  w_->Key("gauges").BeginObject();
  for (const auto& [name, value] : snapshot.gauges) {
    w_->Key(name).Int(value);
  }
  w_->EndObject();
  w_->Key("histograms").BeginObject();
  for (const auto& [name, hist] : snapshot.histograms) {
    w_->Key(name);
    Write(hist);
  }
  w_->EndObject();
  w_->EndObject();
}

Status JsonIn::Read(const JsonValue& value, MetricsSnapshot* snapshot) {
  VERITAS_RETURN_IF_ERROR(RequireObject(value, "metrics"));
  snapshot->counters.clear();
  snapshot->gauges.clear();
  snapshot->histograms.clear();
  if (const JsonValue* counters = value.Find("counters")) {
    VERITAS_RETURN_IF_ERROR(RequireObject(*counters, "counters"));
    for (const auto& [name, member] : counters->members()) {
      auto parsed = member.AsU64();
      if (!parsed.ok()) return Contextualize(parsed.status(), name.c_str());
      snapshot->counters[name] = parsed.value();
    }
  }
  if (const JsonValue* gauges = value.Find("gauges")) {
    VERITAS_RETURN_IF_ERROR(RequireObject(*gauges, "gauges"));
    for (const auto& [name, member] : gauges->members()) {
      auto parsed = member.AsI64();
      if (!parsed.ok()) return Contextualize(parsed.status(), name.c_str());
      snapshot->gauges[name] = parsed.value();
    }
  }
  if (const JsonValue* histograms = value.Find("histograms")) {
    VERITAS_RETURN_IF_ERROR(RequireObject(*histograms, "histograms"));
    for (const auto& [name, member] : histograms->members()) {
      HistogramSnapshot hist;
      VERITAS_RETURN_IF_ERROR(
          Contextualize(Read(member, &hist), name.c_str()));
      snapshot->histograms[name] = std::move(hist);
    }
  }
  return Status::OK();
}

/// The "result_type" tag naming the active response alternative.
const char* ResultTypeName(const ApiResponse& response) {
  switch (response.result.index()) {
    case 1: return "create_session";
    case 2: return "step";
    case 3: return "ground";
    case 4: return "checkpoint";
    case 5: return "restore";
    case 6: return "stats";
    case 7: return "terminate";
    case 8: return "metrics";
    default: return "error";
  }
}

/// Reads the envelope's required api_version and rejects any but this
/// build's (`what` names the envelope in the message).
Status CheckApiVersion(const JsonValue& root, const char* what,
                       uint32_t* version) {
  const JsonValue* member = root.Find("api_version");
  if (member == nullptr) {
    return Status::InvalidArgument(std::string(what) + ": missing api_version");
  }
  auto value = member->AsU64();
  if (!value.ok()) return Contextualize(value.status(), "api_version");
  *version = static_cast<uint32_t>(value.value());
  if (*version != kApiVersion) {
    return Status::FailedPrecondition(
        std::string(what) + ": unsupported api_version " +
        std::to_string(*version) + " (this build speaks " +
        std::to_string(kApiVersion) + ")");
  }
  return Status::OK();
}

}  // namespace

// ---- wire.h helpers --------------------------------------------------------

const char* ApiMethodName(ApiMethod method) {
  switch (method) {
    case ApiMethod::kCreateSession: return "create_session";
    case ApiMethod::kAdvance: return "advance";
    case ApiMethod::kAnswer: return "answer";
    case ApiMethod::kGround: return "ground";
    case ApiMethod::kCheckpoint: return "checkpoint";
    case ApiMethod::kRestore: return "restore";
    case ApiMethod::kStats: return "stats";
    case ApiMethod::kTerminate: return "terminate";
    case ApiMethod::kMetrics: return "metrics";
  }
  return "stats";
}

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
Status DecodeJson(const JsonValue& value, T* out) {
  return JsonIn::Read(value, out);
}

template void EncodeJson(const FactDatabase&, JsonWriter*);
template void EncodeJson(const SessionSpec&, JsonWriter*);
template void EncodeJson(const StepResult&, JsonWriter*);
template void EncodeJson(const ValidationOutcome&, JsonWriter*);
template Status DecodeJson(const JsonValue&, FactDatabase*);
template Status DecodeJson(const JsonValue&, SessionSpec*);
template Status DecodeJson(const JsonValue&, StepResult*);
template Status DecodeJson(const JsonValue&, ValidationOutcome*);

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
  w.Key("method").String(ApiMethodName(request.method()));  // lint: enum-checked
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

Result<ApiRequest> DecodeRequest(const std::string& json, uint64_t* id_out) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  VERITAS_RETURN_IF_ERROR(RequireObject(root, "request"));

  ApiRequest request;
  VERITAS_RETURN_IF_ERROR(ReadMember(root, "id", &request.id));
  if (id_out != nullptr) *id_out = request.id;
  VERITAS_RETURN_IF_ERROR(ReadMember(root, "trace_id", &request.trace_id));
  VERITAS_RETURN_IF_ERROR(
      CheckApiVersion(root, "request", &request.api_version));

  std::string method;
  VERITAS_RETURN_IF_ERROR(ReadMember(root, "method", &method));
  if (method.empty()) {
    return Status::InvalidArgument("request: missing method");
  }

  // Missing params decodes as an empty object: every member is optional.
  const JsonValue empty;
  const JsonValue* params = root.Find("params");
  if (params == nullptr) params = &empty;
  if (params->kind() != JsonValue::Kind::kNull) {
    VERITAS_RETURN_IF_ERROR(RequireObject(*params, "params"));
  }

  if (method == "create_session") {
    CreateSessionRequest create;
    VERITAS_RETURN_IF_ERROR(ReadMember(*params, "db", &create.db));
    VERITAS_RETURN_IF_ERROR(ReadMember(*params, "spec", &create.spec));
    request.params = std::move(create);
  } else if (method == "advance") {
    AdvanceRequest advance;
    VERITAS_RETURN_IF_ERROR(ReadMember(*params, "session", &advance.session));
    request.params = advance;
  } else if (method == "answer") {
    AnswerRequest answer;
    VERITAS_RETURN_IF_ERROR(ReadMember(*params, "session", &answer.session));
    VERITAS_RETURN_IF_ERROR(ReadMember(*params, "answers", &answer.answers));
    request.params = std::move(answer);
  } else if (method == "ground") {
    GroundRequest ground;
    VERITAS_RETURN_IF_ERROR(ReadMember(*params, "session", &ground.session));
    request.params = ground;
  } else if (method == "checkpoint") {
    CheckpointRequest checkpoint;
    VERITAS_RETURN_IF_ERROR(
        ReadMember(*params, "session", &checkpoint.session));
    VERITAS_RETURN_IF_ERROR(
        ReadMember(*params, "directory", &checkpoint.directory));
    request.params = std::move(checkpoint);
  } else if (method == "restore") {
    RestoreRequest restore;
    VERITAS_RETURN_IF_ERROR(
        ReadMember(*params, "directory", &restore.directory));
    request.params = std::move(restore);
  } else if (method == "stats") {
    request.params = StatsRequest{};
  } else if (method == "metrics") {
    request.params = MetricsRequest{};
  } else if (method == "terminate") {
    TerminateRequest terminate;
    VERITAS_RETURN_IF_ERROR(
        ReadMember(*params, "session", &terminate.session));
    request.params = terminate;
  } else {
    return Status::Unimplemented("request: unknown method \"" + method + "\"");
  }
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
    w.Key("result_type").String(ResultTypeName(response));  // lint: enum-checked
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

Result<ApiResponse> DecodeResponse(const std::string& json) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  VERITAS_RETURN_IF_ERROR(RequireObject(root, "response"));

  ApiResponse response;
  VERITAS_RETURN_IF_ERROR(ReadMember(root, "id", &response.id));
  VERITAS_RETURN_IF_ERROR(ReadMember(root, "trace_id", &response.trace_id));
  VERITAS_RETURN_IF_ERROR(
      CheckApiVersion(root, "response", &response.api_version));

  bool ok = false;
  VERITAS_RETURN_IF_ERROR(ReadMember(root, "ok", &ok));
  if (!ok) {
    const JsonValue* error = root.Find("error");
    if (error == nullptr) {
      return Status::InvalidArgument("response: failed without an error body");
    }
    VERITAS_RETURN_IF_ERROR(RequireObject(*error, "error"));
    uint64_t code = static_cast<uint64_t>(StatusCode::kInternal);
    VERITAS_RETURN_IF_ERROR(ReadMember(*error, "code", &code));
    if (code > static_cast<uint64_t>(StatusCode::kUnavailable)) {
      return Status::InvalidArgument("error: unknown status code " +
                                     std::to_string(code));
    }
    ErrorResponse decoded;
    decoded.code = static_cast<StatusCode>(code);
    VERITAS_RETURN_IF_ERROR(ReadMember(*error, "message", &decoded.message));
    response.result = std::move(decoded);
    return response;
  }

  std::string result_type;
  VERITAS_RETURN_IF_ERROR(ReadMember(root, "result_type", &result_type));
  const JsonValue* result = root.Find("result");
  if (result == nullptr) {
    return Status::InvalidArgument("response: missing result");
  }
  if (result_type == "create_session") {
    CreateSessionResponse create;
    VERITAS_RETURN_IF_ERROR(RequireObject(*result, "result"));
    VERITAS_RETURN_IF_ERROR(ReadMember(*result, "session", &create.session));
    response.result = create;
  } else if (result_type == "step") {
    StepResponse step;
    VERITAS_RETURN_IF_ERROR(ReadMember(root, "result", &step.step));
    response.result = std::move(step);
  } else if (result_type == "ground") {
    GroundResponse ground;
    VERITAS_RETURN_IF_ERROR(ReadMember(root, "result", &ground.view));
    response.result = std::move(ground);
  } else if (result_type == "checkpoint") {
    response.result = CheckpointResponse{};
  } else if (result_type == "restore") {
    RestoreResponse restore;
    VERITAS_RETURN_IF_ERROR(RequireObject(*result, "result"));
    VERITAS_RETURN_IF_ERROR(ReadMember(*result, "session", &restore.session));
    response.result = restore;
  } else if (result_type == "stats") {
    StatsResponse stats;
    VERITAS_RETURN_IF_ERROR(RequireObject(*result, "result"));
    VERITAS_RETURN_IF_ERROR(ReadMember(*result, "stats", &stats.stats));
    VERITAS_RETURN_IF_ERROR(ReadMember(*result, "sessions", &stats.sessions));
    response.result = std::move(stats);
  } else if (result_type == "terminate") {
    TerminateResponse terminate;
    VERITAS_RETURN_IF_ERROR(ReadMember(root, "result", &terminate.outcome));
    response.result = std::move(terminate);
  } else if (result_type == "metrics") {
    MetricsResponse metrics;
    VERITAS_RETURN_IF_ERROR(ReadMember(root, "result", &metrics.snapshot));
    response.result = std::move(metrics);
  } else {
    return Status::Unimplemented("response: unknown result_type \"" +
                                 result_type + "\"");
  }
  return response;
}

}  // namespace veritas
