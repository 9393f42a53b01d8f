#include "service/checkpoint.h"

#include <filesystem>
#include <type_traits>

#include "common/hash.h"
#include "data/io.h"
#include "obs/metrics.h"

namespace veritas {

namespace {

constexpr uint8_t kMagic[4] = {'V', 'C', 'K', 'P'};
constexpr size_t kHeaderBytes = 8;    ///< magic + u32 version
constexpr size_t kChecksumBytes = 8;  ///< trailing u64 HashBytes
constexpr uint64_t kChecksumSeed = 0;

/// Registry handles (DESIGN.md §14). Instrumented here — not at call sites —
/// so manager spills, wire-requested checkpoints and router failover
/// checkpoints all count through the same family.
struct CheckpointMetrics {
  MetricsRegistry::Counter* saves;
  MetricsRegistry::Counter* loads;
  MetricsRegistry::Histogram* save_seconds;
  MetricsRegistry::Histogram* load_seconds;
  MetricsRegistry::Histogram* bytes;
};

const CheckpointMetrics& Metrics() {
  static const CheckpointMetrics metrics = [] {
    MetricsRegistry& registry = GlobalMetrics();
    CheckpointMetrics m;
    m.saves = registry.counter("veritas_checkpoint_saves_total");
    m.loads = registry.counter("veritas_checkpoint_loads_total");
    m.save_seconds = registry.histogram("veritas_checkpoint_save_seconds");
    m.load_seconds = registry.histogram("veritas_checkpoint_load_seconds");
    m.bytes = registry.histogram("veritas_checkpoint_bytes");
    return m;
  }();
  return metrics;
}

// ---- the binary archive ----------------------------------------------------
// Both directions are visitors over each struct's VisitFields
// (common/fields.h). The layout is the fields in visit order, untagged: a
// struct is its fields inline, a bool one byte, an enum its value in one
// byte, any other integer a u64, a double its IEEE-754 bits, a string or
// vector a u64 count then its items, a fixed array its items. A change to
// any visited field list changes the layout and must bump
// kCheckpointVersion. BeliefState keeps a hand-written record.

class BinaryOut {
 public:
  explicit BinaryOut(BinaryWriter* w) : w_(w) {}

  template <typename T>
  void operator()(const char* /*key*/, const T& value) {
    Write(value);
  }

  void Write(bool value) { w_->U8(value ? 1 : 0); }
  void Write(double value) { w_->F64(value); }
  void Write(const std::string& value) { w_->Str(value); }
  void Write(const std::vector<uint8_t>& values) { w_->VecU8(values); }
  void Write(const std::vector<uint32_t>& values) { w_->VecU32(values); }
  void Write(const std::vector<double>& values) { w_->VecF64(values); }
  void Write(const BeliefState& state);

  template <typename T>
  void Write(const std::vector<T>& items) {
    w_->U64(items.size());
    for (const T& item : items) Write(item);
  }

  template <typename T, size_t N>
  void Write(const T (&items)[N]) {
    for (const T& item : items) Write(item);
  }

  template <typename T>
  void Write(const T& value) {
    if constexpr (std::is_enum_v<T>) {
      w_->U8(static_cast<uint8_t>(value));
    } else if constexpr (std::is_integral_v<T>) {
      w_->U64(value);
    } else {
      VisitFields(*this, value);
    }
  }

 private:
  BinaryWriter* w_;
};

/// The reader visitor: the first failure sticks, and every count, size and
/// enum value is range-checked before it is used.
class BinaryIn {
 public:
  explicit BinaryIn(BinaryReader* r) : r_(r) {}

  template <typename T>
  void operator()(const char* /*key*/, T& field) {
    if (status_.ok()) status_ = Read(&field);
  }

  const Status& status() const { return status_; }

  Status Read(bool* out) {
    uint8_t b = 0;
    VERITAS_RETURN_IF_ERROR(r_->U8(&b));
    *out = b != 0;
    return Status::OK();
  }
  Status Read(double* out) { return r_->F64(out); }
  Status Read(std::string* out) { return r_->Str(out); }
  Status Read(std::vector<uint8_t>* out) { return r_->VecU8(out); }
  Status Read(std::vector<uint32_t>* out) { return r_->VecU32(out); }
  Status Read(std::vector<double>* out) { return r_->VecF64(out); }
  Status Read(BeliefState* state);

  template <typename T>
  Status Read(std::vector<T>* items) {
    static_assert(std::is_class_v<T>, "scalar vectors have their own framing");
    uint64_t count = 0;
    VERITAS_RETURN_IF_ERROR(r_->U64(&count));
    // Every struct item occupies well over 8 bytes; this bound rejects
    // corrupt counts before the resize below can balloon.
    if (count > r_->remaining() / 8) {
      return Status::OutOfRange("checkpoint: truncated list");
    }
    items->resize(static_cast<size_t>(count));
    for (T& item : *items) VERITAS_RETURN_IF_ERROR(Read(&item));
    return Status::OK();
  }

  template <typename T, size_t N>
  Status Read(T (*items)[N]) {
    for (T& item : *items) VERITAS_RETURN_IF_ERROR(Read(&item));
    return Status::OK();
  }

  template <typename T>
  Status Read(T* out) {
    if constexpr (std::is_enum_v<T>) {
      uint8_t value = 0;
      VERITAS_RETURN_IF_ERROR(r_->U8(&value));
      if (!EnumFromIndex(value, out)) {
        return Status::InvalidArgument("checkpoint: enum value " +
                                       std::to_string(value) +
                                       " out of range");
      }
      return Status::OK();
    } else if constexpr (std::is_integral_v<T>) {
      uint64_t value = 0;
      VERITAS_RETURN_IF_ERROR(r_->U64(&value));
      *out = static_cast<T>(value);
      return Status::OK();
    } else {
      BinaryIn fields(r_);
      VisitFields(fields, *out);
      return fields.status();
    }
  }

 private:
  BinaryReader* r_;
  Status status_;
};

// ---- hand-written shapes ---------------------------------------------------

void BinaryOut::Write(const BeliefState& state) {
  w_->VecF64(state.probs());
  std::vector<uint8_t> labels(state.num_claims());
  for (size_t c = 0; c < labels.size(); ++c) {
    switch (state.label(static_cast<ClaimId>(c))) {
      case ClaimLabel::kNonCredible: labels[c] = 0; break;
      case ClaimLabel::kCredible: labels[c] = 1; break;
      case ClaimLabel::kUnlabeled: labels[c] = 2; break;
    }
  }
  w_->VecU8(labels);
}

Status BinaryIn::Read(BeliefState* state) {
  std::vector<double> probs;
  std::vector<uint8_t> labels;
  VERITAS_RETURN_IF_ERROR(r_->VecF64(&probs));
  VERITAS_RETURN_IF_ERROR(r_->VecU8(&labels));
  if (probs.size() != labels.size()) {
    return Status::InvalidArgument("checkpoint: probs/labels size mismatch");
  }
  BeliefState out(probs.size());
  for (size_t c = 0; c < probs.size(); ++c) {
    const ClaimId id = static_cast<ClaimId>(c);
    if (labels[c] == 2) {
      out.set_prob(id, probs[c]);
    } else if (labels[c] <= 1) {
      out.SetLabel(id, labels[c] == 1);
    } else {
      return Status::InvalidArgument("checkpoint: bad label value");
    }
  }
  *state = std::move(out);
  return Status::OK();
}

}  // namespace

size_t CheckpointSizeBytes(const std::string& directory) {
  std::error_code ec;
  const uintmax_t size =
      std::filesystem::file_size(directory + "/session.bin", ec);
  return ec ? 0 : static_cast<size_t>(size);
}

Status SaveSessionCheckpoint(const Session& session,
                             const std::string& directory) {
  ScopedLatencyTimer timer(Metrics().save_seconds);
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::Internal("SaveSessionCheckpoint: cannot create " + directory);
  }

  BinaryWriter w;
  BinaryOut out(&w);
  for (const uint8_t m : kMagic) w.U8(m);
  w.U32(kCheckpointVersion);
  out.Write(session.spec_);

  if (session.mode() == SessionMode::kBatch) {
    WriteFactDatabase(*session.db_, &w);
    out.Write(session.process_->ExportSessionState());
    out.Write(session.awaiting_answers_);
    out.Write(session.pending_plan_.candidates);
    out.Write(session.pending_plan_.batch);
  } else {
    WriteFactDatabase(*session.source_corpus_, &w);
    out.Write(session.next_arrival_);
    out.Write(session.stream_synced_);
    out.Write(session.checker_->ExportEmState());
    out.Write(session.checker_->state());
    out.Write(session.checker_->weights());
    out.Write(session.checker_->icrf()->rng_state());
  }

  // The simulated validator's stream, when it has one.
  Rng* user_rng =
      session.user_ != nullptr ? session.user_->mutable_rng() : nullptr;
  out.Write(user_rng != nullptr);
  out.Write(user_rng != nullptr ? user_rng->SaveState() : RngState());

  out.Write(session.steps_served_);
  w.U64(HashBytes(w.buffer(), kChecksumSeed));
  const Status written = w.WriteFile(directory + "/session.bin");
  if (written.ok()) {
    Metrics().saves->Increment();
    Metrics().bytes->Record(static_cast<double>(w.buffer().size()));
  }
  return written;
}

Result<std::unique_ptr<Session>> LoadSessionCheckpoint(
    const std::string& directory) {
  ScopedLatencyTimer timer(Metrics().load_seconds);
  auto file = ReadFileBytes(directory + "/session.bin");
  if (!file.ok()) return file.status();
  std::string bytes = std::move(file).value();

  // The envelope is checked before any field is parsed: length, magic,
  // version, then the checksum over everything before it.
  if (bytes.size() < kHeaderBytes + kChecksumBytes) {
    return Status::InvalidArgument(
        "LoadSessionCheckpoint: truncated file (" +
        std::to_string(bytes.size()) + " bytes)");
  }
  uint64_t checksum = 0;
  VERITAS_RETURN_IF_ERROR(
      BinaryReader(bytes.substr(bytes.size() - kChecksumBytes)).U64(&checksum));
  bytes.resize(bytes.size() - kChecksumBytes);
  const bool intact = HashBytes(bytes, kChecksumSeed) == checksum;
  BinaryReader r(std::move(bytes));

  for (const uint8_t want : kMagic) {
    uint8_t got = 0;
    VERITAS_RETURN_IF_ERROR(r.U8(&got));
    if (got != want) {
      return Status::InvalidArgument(
          "LoadSessionCheckpoint: not a checkpoint (bad magic)");
    }
  }
  uint32_t version = 0;
  VERITAS_RETURN_IF_ERROR(r.U32(&version));
  if (version != kCheckpointVersion) {
    return Status::InvalidArgument(
        "LoadSessionCheckpoint: unsupported checkpoint version " +
        std::to_string(version));
  }
  if (!intact) {
    return Status::InvalidArgument(
        "LoadSessionCheckpoint: checksum mismatch (corrupt or torn file)");
  }
  BinaryIn in(&r);
  SessionSpec spec;
  VERITAS_RETURN_IF_ERROR(in.Read(&spec));
  auto db = ReadFactDatabase(&r);
  if (!db.ok()) return db.status();

  auto created = Session::Create(std::move(db).value(), spec);
  if (!created.ok()) return created.status();
  std::unique_ptr<Session> session = std::move(created).value();

  if (session->mode() == SessionMode::kBatch) {
    ValidationSessionState state;
    VERITAS_RETURN_IF_ERROR(in.Read(&state));
    VERITAS_RETURN_IF_ERROR(session->process_->RestoreSessionState(state));
    VERITAS_RETURN_IF_ERROR(in.Read(&session->awaiting_answers_));
    VERITAS_RETURN_IF_ERROR(in.Read(&session->pending_plan_.candidates));
    VERITAS_RETURN_IF_ERROR(in.Read(&session->pending_plan_.batch));
  } else {
    uint64_t next_arrival = 0;
    bool synced = false;
    VERITAS_RETURN_IF_ERROR(in.Read(&next_arrival));
    VERITAS_RETURN_IF_ERROR(in.Read(&synced));
    if (next_arrival > session->source_corpus_->num_claims()) {
      return Status::InvalidArgument(
          "LoadSessionCheckpoint: arrival cursor past the corpus");
    }
    StreamingEmState em;
    BeliefState belief;
    std::vector<double> weights;
    RngState icrf_rng;
    VERITAS_RETURN_IF_ERROR(in.Read(&em));
    VERITAS_RETURN_IF_ERROR(in.Read(&belief));
    VERITAS_RETURN_IF_ERROR(in.Read(&weights));
    VERITAS_RETURN_IF_ERROR(in.Read(&icrf_rng));
    if (belief.num_claims() != next_arrival) {
      return Status::InvalidArgument(
          "LoadSessionCheckpoint: belief state does not match arrivals");
    }

    // Rebuild the arrived prefix of the corpus structurally, then inject
    // the numeric state. Re-feeding through OnClaimArrival would redo the
    // EM updates and diverge.
    const FactDatabase& corpus = *session->source_corpus_;
    FactDatabase arrived;
    for (size_t s = 0; s < corpus.num_sources(); ++s) {
      arrived.AddSource(corpus.source(static_cast<SourceId>(s)));
    }
    for (size_t d = 0; d < corpus.num_documents(); ++d) {
      arrived.AddDocument(corpus.document(static_cast<DocumentId>(d)));
    }
    for (size_t c = 0; c < next_arrival; ++c) {
      const ClaimId id = static_cast<ClaimId>(c);
      arrived.AddClaim(corpus.claim(id));
      if (corpus.has_ground_truth(id)) {
        arrived.SetGroundTruth(id, corpus.ground_truth(id));
      }
      for (const auto& [document, stance] : session->arrival_mentions_[c]) {
        VERITAS_RETURN_IF_ERROR(arrived.AddMention(document, id, stance));
      }
    }
    session->checker_->RestoreDatabase(std::move(arrived), std::move(belief));
    session->checker_->RestoreEmState(em);
    session->checker_->SetWeights(weights);
    session->checker_->icrf()->restore_rng_state(icrf_rng);
    session->next_arrival_ = static_cast<size_t>(next_arrival);
    session->stream_synced_ = synced;
    if (session->stream_synced_) {
      // Rebind the engine exactly as the pre-checkpoint Sync left it; no
      // inference runs, so the restored RNG stream stays aligned.
      VERITAS_RETURN_IF_ERROR(
          session->checker_->icrf()->RestoreEngine(session->checker_->state()));
    }
  }

  bool has_user_rng = false;
  RngState user_rng;
  VERITAS_RETURN_IF_ERROR(in.Read(&has_user_rng));
  VERITAS_RETURN_IF_ERROR(in.Read(&user_rng));
  if (has_user_rng && session->user_ != nullptr) {
    if (Rng* rng = session->user_->mutable_rng()) rng->RestoreState(user_rng);
  }
  VERITAS_RETURN_IF_ERROR(in.Read(&session->steps_served_));
  // Bytes past the record mean the writer and this reader disagree on the
  // layout; loading them would misread state, so refuse.
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "LoadSessionCheckpoint: trailing bytes after the session record");
  }
  Metrics().loads->Increment();
  return session;
}

}  // namespace veritas
