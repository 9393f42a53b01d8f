#include "workload.h"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "service/session.h"

namespace perfbench {

using veritas::ApiRequest;
using veritas::ApiResponse;
using veritas::Result;
using veritas::Status;
using veritas::StepAnswers;
using veritas::StepResult;
using veritas::ValidationOutcome;

namespace {

/// Wikipedia-shaped corpora in the benches' "hard" regime: noisy features
/// and stances, so inference has real work and precision starts near 0.5.
veritas::CorpusSpec HardWiki(double scale) {
  veritas::CorpusSpec spec = veritas::Scaled(veritas::WikipediaSpec(), scale);
  spec.feature_noise = 0.3;
  spec.stance_fidelity = 0.72;
  spec.adversarial_fraction += 0.1;
  spec.quality_coupling = 0.4;
  return spec;
}

uint64_t Mix(uint64_t seed, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t BitsOf(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double Millis(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-6;
}

/// Total seconds recorded by every CRF sweep histogram in the registry.
double CrfSweepSeconds() {
  static const std::string kPrefix = "veritas_crf_sweep_seconds";
  double total = 0.0;
  for (const auto& [name, hist] : veritas::GlobalMetrics().Snapshot().histograms) {
    if (name.compare(0, kPrefix.size(), kPrefix) == 0) total += hist.sum;
  }
  return total;
}

/// One session as a sequence of visits, so a client can interleave several.
/// Start() creates the session and fetches the first suggestion; each
/// Visit() then sends one verdict (batch) or ingests one arrival (stream)
/// and reads what follows, and terminates the session once it is done.
class SessionRun {
 public:
  SessionRun(const Input& input, const Workload& workload, size_t corpus,
             const SessionRecord* script)
      : input_(input), workload_(workload), script_(script) {
    record_.corpus = corpus;
  }

  bool finished() const { return finished_; }
  bool failed() const { return failed_; }
  const SessionRecord& record() const { return record_; }

  void Start(Endpoint* endpoint, const Window& window, LoopResult* out) {
    const int64_t start = NowNanos();
    auto created = endpoint->Create(input_);
    if (!created.ok()) return Fail(window, start, &out->first_ms);
    session_ = created.value();
    auto first = endpoint->Advance(session_);
    const int64_t end = NowNanos();
    if (!first.ok()) return Fail(window, start, &out->first_ms);
    if (window.Contains(start, end)) out->first_ms.Add(Millis(start, end));
    Observe(first.value(), window, start, end, out);
  }

  void Visit(Endpoint* endpoint, const Window& window, LoopResult* out) {
    if (last_.done) return Finish(endpoint, window, out);
    if (workload_.mode == Mode::kBatch) {
      StepAnswers answers;
      const size_t n = last_.batch ? last_.candidates.size() : 1;
      for (size_t i = 0; i < n && i < last_.candidates.size(); ++i) {
        AddVerdict(last_.candidates[i], last_.candidates[i], &answers);
      }
      return Turn(endpoint, answers, window, out);
    }
    const bool label_due = last_.arrival_processed && arrivals_ > 0 &&
                           arrivals_ % workload_.label_interval == 0 &&
                           labelled_ < arrivals_;
    if (label_due) {
      StepAnswers answers;
      // Arrival i carries source claim i of the corpus.
      AddVerdict(last_.arrival.claim, arrivals_ - 1, &answers);
      labelled_ = arrivals_;
      return Turn(endpoint, answers, window, out);
    }
    const int64_t start = NowNanos();
    auto next = endpoint->Advance(session_);
    const int64_t end = NowNanos();
    if (!next.ok()) return Fail(window, start, &out->advance_ms);
    Observe(next.value(), window, start, end, out);
    if (!last_.done && window.Contains(start, end)) {
      out->advance_ms.Add(Millis(start, end));
    }
  }

 private:
  void AddVerdict(veritas::ClaimId claim, veritas::ClaimId truth_of,
                  StepAnswers* answers) {
    uint8_t verdict = 0;
    if (script_ != nullptr) {
      const size_t k = record_.verdicts.size();
      if (k < script_->verdicts.size() && (script_->verdicts[k] >> 1) == claim) {
        verdict = static_cast<uint8_t>(script_->verdicts[k] & 1);
      } else {
        diverged_ = true;
      }
    } else {
      verdict = input_.db.has_ground_truth(truth_of) &&
                        input_.db.ground_truth(truth_of)
                    ? 1
                    : 0;
    }
    answers->claims.push_back(claim);
    answers->answers.push_back(verdict);
    record_.verdicts.push_back(static_cast<uint64_t>(claim) << 1 | verdict);
  }

  /// One verdict and the step that follows it: the checker's wait.
  void Turn(Endpoint* endpoint, const StepAnswers& answers,
            const Window& window, LoopResult* out) {
    const int64_t start = NowNanos();
    auto answered = endpoint->Answer(session_, answers);
    const int64_t answered_at = NowNanos();
    if (!answered.ok()) return Fail(window, start, &out->turn_ms);
    if (workload_.mode == Mode::kBatch && window.Contains(start, answered_at)) {
      ++out->turns;
    }
    auto next = endpoint->Advance(session_);
    const int64_t end = NowNanos();
    if (!next.ok()) return Fail(window, start, &out->turn_ms);
    Observe(next.value(), window, answered_at, end, out);
    if (!last_.done && window.Contains(start, end)) {
      out->turn_ms.Add(Millis(start, end));
      out->advance_ms.Add(Millis(answered_at, end));
    }
  }

  /// Folds one Advance result into the record.
  void Observe(const StepResult& step, const Window& window, int64_t start,
               int64_t end, LoopResult* out) {
    last_ = step;
    if (step.done) return;
    if (workload_.mode == Mode::kBatch) {
      for (veritas::ClaimId c : step.candidates) record_.suggestions.push_back(c);
      record_.suggestions.push_back(~uint64_t{0});
      return;
    }
    if (step.arrival_processed) {
      ++arrivals_;
      record_.suggestions.push_back(step.arrival.claim);
      record_.suggestions.push_back(BitsOf(step.arrival.initial_prob));
      if (window.Contains(start, end)) ++out->turns;
    }
  }

  void Finish(Endpoint* endpoint, const Window& window, LoopResult* out) {
    const int64_t start = NowNanos();
    auto outcome = endpoint->Terminate(session_);
    const int64_t end = NowNanos();
    if (!outcome.ok()) return Fail(window, start, nullptr);
    finished_ = true;
    if (window.Contains(start, end)) ++out->sessions;
    record_.final_probs = outcome.value().state.probs();
    record_.final_precision = outcome.value().final_precision;
    if (diverged_) record_.verdicts.push_back(~uint64_t{0});
  }

  /// A failed call abandons the session; the failure is a +infinity sample
  /// of the latency it interrupted.
  void Fail(const Window& window, int64_t start, Samples* samples) {
    failed_ = finished_ = true;
    if (samples != nullptr && start >= window.start_ns &&
        start <= window.end_ns) {
      samples->AddFailure();
    }
  }

  const Input& input_;
  const Workload& workload_;
  const SessionRecord* script_;
  SessionRecord record_;
  SessionId session_ = 0;
  StepResult last_;
  size_t arrivals_ = 0;
  size_t labelled_ = 0;
  bool finished_ = false;
  bool failed_ = false;
  bool diverged_ = false;
};

}  // namespace

Result<Workload> MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "guided") {
    w.mode = Mode::kBatch;
    w.pool = 64;
    w.corpus = HardWiki(0.5);
    w.budget = 12;
  } else if (name == "churn") {
    w.mode = Mode::kBatch;
    w.pool = 128;
    w.corpus = HardWiki(0.1);
    w.budget = 4;
    w.sessions_per_client = 4;
    // About 8 sessions are open per backend, so this budget spills whenever
    // placement is uneven. A tighter one restores on every touch, and since
    // restores hold the manager lock the run then serializes and its speed
    // swings widely.
    w.resident_sessions_per_backend = 8;
    w.checkpoint_each_step = true;
  } else if (name == "stream") {
    w.mode = Mode::kStream;
    w.pool = 64;
    w.corpus = HardWiki(0.5);
    w.label_interval = 4;
  } else {
    return Status::InvalidArgument("unknown workload '" + name +
                                   "' (guided, churn, stream)");
  }
  return w;
}

Result<std::vector<Input>> GenerateInputs(const Workload& workload,
                                          uint64_t seed) {
  std::vector<Input> inputs;
  for (size_t i = 0; i < workload.pool; ++i) {
    veritas::Rng rng(Mix(seed, i));
    auto corpus = veritas::GenerateCorpus(workload.corpus, &rng);
    if (!corpus.ok()) return corpus.status();
    Input input;
    input.db = std::move(corpus).value().db;
    veritas::SessionSpec& spec = input.spec;
    spec.user.kind = veritas::UserSpec::Kind::kNone;
    const uint64_t session_seed = Mix(seed ^ 0x5bd1e995ULL, i);
    if (workload.mode == Mode::kBatch) {
      spec.mode = veritas::SessionMode::kBatch;
      veritas::ValidationOptions& v = spec.validation;
      v.icrf.gibbs.burn_in = 10;
      v.icrf.gibbs.num_samples = 40;
      v.icrf.max_em_iterations = 2;
      v.guidance.variant = veritas::GuidanceVariant::kScalable;
      v.guidance.candidate_pool = 16;
      v.strategy = veritas::StrategyKind::kHybrid;
      v.target_precision = 2.0;  // run on the verdict budget alone
      v.budget = workload.budget;
      v.seed = session_seed;
    } else {
      spec.mode = veritas::SessionMode::kStreaming;
      veritas::StreamingOptions& s = spec.streaming;
      s.icrf.gibbs.burn_in = 8;
      s.icrf.gibbs.num_samples = 30;
      s.seed = session_seed;
    }
    inputs.push_back(std::move(input));
  }
  return inputs;
}

Result<size_t> SessionFootprint(const Input& input) {
  auto session = veritas::Session::Create(input.db, input.spec);
  if (!session.ok()) return session.status();
  auto step = session.value()->Advance();
  if (!step.ok()) return step.status();
  return session.value()->MemoryFootprintBytes();
}

const char* MethodName(Method method) {
  switch (method) {
    case kCreate: return "create";
    case kAdvance: return "advance";
    case kAnswer: return "answer";
    case kTerminate: return "terminate";
    case kNumMethods: break;
  }
  return "?";
}

// ---- endpoints -------------------------------------------------------------

WireEndpoint::WireEndpoint(std::unique_ptr<veritas::ApiClient> client,
                           std::string trace_prefix)
    : client_(std::move(client)), trace_prefix_(std::move(trace_prefix)) {}

Result<ApiResponse> WireEndpoint::Call(Method method, ApiRequest request) {
  ClientSpan span;
  span.method = method;
  if (!trace_prefix_.empty()) {
    request.trace_id = trace_prefix_ + std::to_string(next_trace_++);
    span.trace_id = request.trace_id;
  }
  span.start_ns = NowNanos();
  Result<ApiResponse> response = client_->Call(std::move(request));
  span.end_ns = NowNanos();
  if (response.ok() && veritas::IsError(response.value())) {
    response = veritas::ToStatus(
        std::get<veritas::ErrorResponse>(response.value().result));
  }
  span.ok = response.ok();
  Count(method, span.ok);
  if (!trace_prefix_.empty()) spans.push_back(std::move(span));
  return response;
}

namespace {

template <typename T>
Result<T> Payload(Result<ApiResponse> response) {
  if (!response.ok()) return response.status();
  if (T* payload = std::get_if<T>(&response.value().result)) {
    return std::move(*payload);
  }
  return Status::Internal("unexpected response payload");
}

}  // namespace

Result<SessionId> WireEndpoint::Create(const Input& input) {
  ApiRequest request;
  request.params = veritas::CreateSessionRequest{input.db, input.spec};
  auto created = Payload<veritas::CreateSessionResponse>(
      Call(kCreate, std::move(request)));
  if (!created.ok()) return created.status();
  return created.value().session;
}

Result<StepResult> WireEndpoint::Advance(SessionId session) {
  ApiRequest request;
  request.params = veritas::AdvanceRequest{session};
  auto step =
      Payload<veritas::StepResponse>(Call(kAdvance, std::move(request)));
  if (!step.ok()) return step.status();
  return std::move(step).value().step;
}

Result<StepResult> WireEndpoint::Answer(SessionId session,
                                        const StepAnswers& answers) {
  ApiRequest request;
  request.params = veritas::AnswerRequest{session, answers};
  auto step = Payload<veritas::StepResponse>(Call(kAnswer, std::move(request)));
  if (!step.ok()) return step.status();
  return std::move(step).value().step;
}

Result<ValidationOutcome> WireEndpoint::Terminate(SessionId session) {
  ApiRequest request;
  request.params = veritas::TerminateRequest{session};
  auto outcome =
      Payload<veritas::TerminateResponse>(Call(kTerminate, std::move(request)));
  if (!outcome.ok()) return outcome.status();
  if (checkpoint_dir_of) {
    std::error_code ec;
    std::filesystem::remove_all(checkpoint_dir_of(session), ec);
  }
  return std::move(outcome).value().outcome;
}

Result<SessionId> LocalEndpoint::Create(const Input& input) {
  auto created = manager_.Create(input.db, input.spec);
  Count(kCreate, created.ok());
  return created;
}

Result<StepResult> LocalEndpoint::Advance(SessionId session) {
  const int64_t start = NowNanos();
  auto step = manager_.Advance(session);
  const int64_t end = NowNanos();
  Count(kAdvance, step.ok());
  bool& seen = advanced_[session];
  if (step.ok() && !step.value().done) {
    (seen ? advance_ms : first_advance_ms).Add(Millis(start, end));
  }
  seen = true;
  return step;
}

Result<StepResult> LocalEndpoint::Answer(SessionId session,
                                         const StepAnswers& answers) {
  const double sweeps_before = CrfSweepSeconds();
  const int64_t start = NowNanos();
  auto step = manager_.Answer(session, answers);
  const int64_t end = NowNanos();
  sweep_seconds_in_answers += CrfSweepSeconds() - sweeps_before;
  answer_seconds += static_cast<double>(end - start) * 1e-9;
  Count(kAnswer, step.ok());
  if (step.ok()) answer_ms.Add(Millis(start, end));
  return step;
}

Result<ValidationOutcome> LocalEndpoint::Terminate(SessionId session) {
  auto outcome = manager_.Terminate(session);
  Count(kTerminate, outcome.ok());
  advanced_.erase(session);
  return outcome;
}

// ---- records and loops -----------------------------------------------------

uint64_t SessionRecord::Digest() const {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a, one 64-bit word at a time
  const auto feed = [&h](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  feed(corpus);
  feed(suggestions.size());
  for (uint64_t s : suggestions) feed(s);
  feed(verdicts.size());
  for (uint64_t v : verdicts) feed(v);
  feed(final_probs.size());
  for (double p : final_probs) feed(BitsOf(p));
  feed(BitsOf(final_precision));
  return h;
}

bool SessionRecord::SameAs(const SessionRecord& other) const {
  if (final_probs.size() != other.final_probs.size()) return false;
  for (size_t i = 0; i < final_probs.size(); ++i) {
    if (BitsOf(final_probs[i]) != BitsOf(other.final_probs[i])) return false;
  }
  return corpus == other.corpus && suggestions == other.suggestions &&
         verdicts == other.verdicts &&
         BitsOf(final_precision) == BitsOf(other.final_precision);
}

size_t LoopResult::total_attempted() const {
  size_t n = 0;
  for (size_t a : attempted) n += a;
  return n;
}

size_t LoopResult::total_failed() const {
  size_t n = 0;
  for (size_t f : failed) n += f;
  return n;
}

void LoopResult::Merge(LoopResult other) {
  turn_ms.Merge(other.turn_ms);
  advance_ms.Merge(other.advance_ms);
  first_ms.Merge(other.first_ms);
  turns += other.turns;
  sessions += other.sessions;
  for (size_t m = 0; m < kNumMethods; ++m) {
    attempted[m] += other.attempted[m];
    failed[m] += other.failed[m];
  }
  for (auto& record : other.records) records.push_back(std::move(record));
}

bool RunSession(const Input& input, const Workload& workload, size_t corpus,
                Endpoint* endpoint, const Window& window, LoopResult* out,
                const SessionRecord* script) {
  SessionRun run(input, workload, corpus, script);
  run.Start(endpoint, window, out);
  while (!run.finished()) run.Visit(endpoint, window, out);
  if (run.failed()) return false;
  out->records.push_back(run.record());
  return true;
}

LoopResult RunClosedLoop(const std::vector<Input>& inputs,
                         const Workload& workload,
                         const std::vector<Endpoint*>& endpoints,
                         const Window& window,
                         std::atomic<size_t>* next_session) {
  std::vector<LoopResult> results(endpoints.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < endpoints.size(); ++c) {
    threads.emplace_back([&, c] {
      Endpoint* endpoint = endpoints[c];
      LoopResult& out = results[c];
      const auto attempted_before = endpoint->attempted;
      const auto failed_before = endpoint->failed;
      std::vector<std::unique_ptr<SessionRun>> slots(
          workload.sessions_per_client);
      for (;;) {
        bool active = false;
        for (auto& slot : slots) {
          if (slot == nullptr) {
            if (NowNanos() >= window.end_ns) continue;
            const size_t k = next_session->fetch_add(1) % inputs.size();
            slot = std::make_unique<SessionRun>(inputs[k], workload, k,
                                                nullptr);
            slot->Start(endpoint, window, &out);
          } else {
            slot->Visit(endpoint, window, &out);
          }
          if (slot->finished()) {
            if (!slot->failed()) out.records.push_back(slot->record());
            slot.reset();
          } else {
            active = true;
          }
        }
        if (!active && NowNanos() >= window.end_ns) break;
      }
      for (size_t m = 0; m < kNumMethods; ++m) {
        out.attempted[m] = endpoint->attempted[m] - attempted_before[m];
        out.failed[m] = endpoint->failed[m] - failed_before[m];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  LoopResult merged;
  for (auto& result : results) merged.Merge(std::move(result));
  return merged;
}

LoopResult RunLocalProfile(const std::vector<Input>& inputs,
                           const Workload& workload, double seconds,
                           LocalEndpoint* endpoint) {
  LoopResult out;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  for (size_t k = 0; std::chrono::steady_clock::now() < deadline; ++k) {
    RunSession(inputs[k % inputs.size()], workload, k % inputs.size(),
               endpoint, Window{}, &out);
  }
  return out;
}

}  // namespace perfbench
