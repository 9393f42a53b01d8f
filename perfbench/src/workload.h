// Workloads, their seeded inputs, and the closed-loop validator that drives
// sessions through either the wire stack or an in-process SessionManager.
//
// The benchmark plays the human checker: every suggested claim is answered
// from the emulated corpus's ground truth with zero think time, so the
// program, not a sleep, bounds the loop. Every session on corpus i uses the
// same spec and seed, so all of them must produce the same suggestion
// sequence and final posterior; that is what the correctness checks rely on.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/client.h"
#include "data/emulator.h"
#include "fleet.h"
#include "service/session_manager.h"
#include "stats.h"

namespace perfbench {

enum class Mode { kBatch, kStream };

/// Validator clients, one connection each, in every workload.
inline constexpr size_t kClients = 4;

struct Workload {
  std::string name;
  Mode mode = Mode::kBatch;
  /// Distinct corpora; session k runs on corpus k mod pool. Large enough
  /// that one corpus's cost does not move a run's averages.
  size_t pool = 0;
  veritas::CorpusSpec corpus;
  /// Batch: verdicts per session. Stream: every label_interval-th arrival
  /// is labelled through Answer.
  size_t budget = 0;
  size_t label_interval = 0;
  /// Sessions each client keeps open, visited round-robin.
  size_t sessions_per_client = 1;
  /// Per-backend memory budget, in resident sessions (0 = unlimited).
  size_t resident_sessions_per_backend = 0;
  bool checkpoint_each_step = false;
};

/// The named workload, or an error for an unknown name.
veritas::Result<Workload> MakeWorkload(const std::string& name);

/// One generated corpus with the session spec every session on it uses.
struct Input {
  veritas::FactDatabase db;
  veritas::SessionSpec spec;
};

/// Generates the workload's corpora from `seed` (same seed, same inputs).
veritas::Result<std::vector<Input>> GenerateInputs(const Workload& workload,
                                                   uint64_t seed);

/// Resident footprint of one session on `input` after its first step, as
/// the SessionManager estimates it; sizes the churn memory budget.
veritas::Result<size_t> SessionFootprint(const Input& input);

enum Method : size_t { kCreate, kAdvance, kAnswer, kTerminate, kNumMethods };
const char* MethodName(Method method);

/// One client call as the client saw it (traced runs only).
struct ClientSpan {
  std::string trace_id;
  Method method = kCreate;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool ok = false;
};

/// The session surface the validator drives: the wire client or a local
/// SessionManager. Counts attempts and failures per method.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual veritas::Result<SessionId> Create(const Input& input) = 0;
  virtual veritas::Result<veritas::StepResult> Advance(SessionId session) = 0;
  virtual veritas::Result<veritas::StepResult> Answer(
      SessionId session, const veritas::StepAnswers& answers) = 0;
  virtual veritas::Result<veritas::ValidationOutcome> Terminate(
      SessionId session) = 0;

  std::array<size_t, kNumMethods> attempted{};
  std::array<size_t, kNumMethods> failed{};

 protected:
  void Count(Method method, bool ok) {
    ++attempted[method];
    if (!ok) ++failed[method];
  }
};

/// ApiClient over one connection. With `trace_prefix` set, every request
/// carries a unique trace id and the call is recorded as a ClientSpan.
class WireEndpoint : public Endpoint {
 public:
  WireEndpoint(std::unique_ptr<veritas::ApiClient> client,
               std::string trace_prefix);
  veritas::Result<SessionId> Create(const Input& input) override;
  veritas::Result<veritas::StepResult> Advance(SessionId session) override;
  veritas::Result<veritas::StepResult> Answer(
      SessionId session, const veritas::StepAnswers& answers) override;
  veritas::Result<veritas::ValidationOutcome> Terminate(
      SessionId session) override;

  std::vector<ClientSpan> spans;
  /// Where the router checkpoints a session; removed after Terminate so a
  /// long churn run does not fill the disk. Unset = nothing to remove.
  std::function<std::string(SessionId)> checkpoint_dir_of;

 private:
  veritas::Result<veritas::ApiResponse> Call(Method method,
                                             veritas::ApiRequest request);

  std::unique_ptr<veritas::ApiClient> client_;
  std::string trace_prefix_;
  uint64_t next_trace_ = 0;
};

/// A local SessionManager, timing each call at its public boundary. The
/// first Advance of a session (initial inference plus the first plan) is
/// kept apart from later ones, and the CRF E-step time spent inside each
/// Answer is read from the registry's sweep histograms, which is exact
/// while this endpoint is the only thing running.
class LocalEndpoint : public Endpoint {
 public:
  veritas::Result<SessionId> Create(const Input& input) override;
  veritas::Result<veritas::StepResult> Advance(SessionId session) override;
  veritas::Result<veritas::StepResult> Answer(
      SessionId session, const veritas::StepAnswers& answers) override;
  veritas::Result<veritas::ValidationOutcome> Terminate(
      SessionId session) override;

  Samples first_advance_ms, advance_ms, answer_ms;
  double answer_seconds = 0.0;
  double sweep_seconds_in_answers = 0.0;

 private:
  veritas::SessionManager manager_;
  std::map<SessionId, bool> advanced_;
};

/// What one session produced, in a form two runs can compare bit for bit.
struct SessionRecord {
  size_t corpus = 0;
  /// Batch: each plan's candidate ids then a separator. Stream: each
  /// arrival's claim id and the bits of its initial probability.
  std::vector<uint64_t> suggestions;
  /// claim << 1 | verdict, in the order they were sent.
  std::vector<uint64_t> verdicts;
  std::vector<double> final_probs;
  double final_precision = 0.0;

  uint64_t Digest() const;
  bool SameAs(const SessionRecord& other) const;
};

/// The timed window, on the NowNanos() clock. A sample counts when its
/// request started and finished inside it.
struct Window {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool Contains(int64_t start, int64_t end) const {
    return start >= start_ns && end <= end_ns;
  }
};

/// What the clients measured: the end-to-end samples of the window plus
/// every session they completed (inside the window or while draining).
struct LoopResult {
  Samples turn_ms, advance_ms, first_ms;
  size_t turns = 0;     ///< verdicts (batch) or arrivals (stream) in window
  size_t sessions = 0;  ///< sessions terminated in window
  std::array<size_t, kNumMethods> attempted{};
  std::array<size_t, kNumMethods> failed{};
  std::vector<SessionRecord> records;

  size_t total_attempted() const;
  size_t total_failed() const;
  void Merge(LoopResult other);
};

/// Runs one session to completion on `endpoint`. Verdicts come from the
/// corpus ground truth, or, when `script` is set, from a recorded session
/// (whose claims must then come up in the same order). Returns false when
/// a call failed and the session was abandoned.
bool RunSession(const Input& input, const Workload& workload, size_t corpus,
                Endpoint* endpoint, const Window& window, LoopResult* out,
                const SessionRecord* script = nullptr);

/// The closed loop: `endpoints.size()` client threads, each keeping
/// workload.sessions_per_client sessions open round-robin and taking corpus
/// indices from a shared counter. New sessions start until the window
/// closes; open ones are then finished, untimed, so every started session
/// leaves a complete record.
LoopResult RunClosedLoop(const std::vector<Input>& inputs,
                         const Workload& workload,
                         const std::vector<Endpoint*>& endpoints,
                         const Window& window, std::atomic<size_t>* next_session);

/// Single-threaded in-process sessions for `seconds` on a LocalEndpoint:
/// the core-layer profile of a traced run. Returns the sessions' records.
LoopResult RunLocalProfile(const std::vector<Input>& inputs,
                           const Workload& workload, double seconds,
                           LocalEndpoint* endpoint);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
