// perfbench: the repository benchmark. One workload, one seed, one run:
//
//   perfbench --workload guided|churn|stream --seed N --seconds S
//             --trace 0|1 [--scratch DIR] [--commit SHA]
//
// --trace 0 sets the stack up several times (setup_s is their median),
// measures a closed loop of four validator clients for S seconds and prints
// the end-to-end metrics. --trace 1 prints the per-layer metrics instead:
// an untraced window (the overhead baseline), a traced window with timing
// handlers at every public seam, then S seconds of in-process sessions for
// the core and crf layers. Either way the sessions are checked: every wire
// session on one corpus must match the others and an in-process replay bit
// for bit. The last line of standard output is the result object; the exit
// code is 0 only when the run completed and the check passed.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/client.h"
#include "fleet.h"
#include "obs/metrics.h"
#include "report.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

using veritas::Result;
using veritas::Status;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

/// Untimed closed loop before each timed window: the first seconds of load
/// on a fresh stack run measurably slower (allocator, page cache, spill
/// directories), and the window should see the steady state.
constexpr double kWarmupSeconds = 1.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/scratch";
  std::string commit = "unknown";
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument("no value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--scratch") {
        args.scratch = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else {
        return Status::InvalidArgument("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Status::InvalidArgument("bad value '" + value + "' for " + flag);
    }
  }
  if (args.workload.empty()) return Status::InvalidArgument("--workload is required");
  if (!(args.seconds > 0.0 && args.seconds <= 120.0)) {
    return Status::InvalidArgument("--seconds must be in (0, 120]");
  }
  return args;
}

/// A started fleet and its connected validator clients.
struct Stack {
  std::unique_ptr<Fleet> fleet;
  std::vector<std::unique_ptr<WireEndpoint>> clients;

  std::vector<Endpoint*> endpoints() const {
    std::vector<Endpoint*> out;
    for (const auto& client : clients) out.push_back(client.get());
    return out;
  }
};

/// Starts the stack, connects the clients and runs one untimed warm-up
/// session per client, all at once.
Result<Stack> SetUp(const FleetConfig& config, const Workload& workload,
                    const std::vector<Input>& inputs) {
  Stack stack;
  auto fleet = Fleet::Start(config);
  if (!fleet.ok()) return fleet.status();
  stack.fleet = std::move(fleet).value();
  for (size_t c = 0; c < kClients; ++c) {
    auto client = veritas::ApiClient::Connect("127.0.0.1", stack.fleet->port());
    if (!client.ok()) return client.status();
    auto endpoint = std::make_unique<WireEndpoint>(
        std::move(client).value(),
        config.traced ? "c" + std::to_string(c) + "-" : std::string());
    if (config.checkpoint_each_step) {
      Fleet* owner = stack.fleet.get();
      endpoint->checkpoint_dir_of = [owner](SessionId session) {
        return owner->CheckpointDirOf(session);
      };
    }
    stack.clients.push_back(std::move(endpoint));
  }
  std::vector<char> warmed(kClients, 0);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LoopResult ignored;
      const size_t k = c % inputs.size();
      warmed[c] = RunSession(inputs[k], workload, k, stack.clients[c].get(),
                             Window{}, &ignored);
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t c = 0; c < kClients; ++c) {
    if (!warmed[c]) return Status::Internal("warm-up session failed");
  }
  return stack;
}

/// Runs the untimed warm-up loop, then the timed one for `seconds`.
/// `at_start` runs between the two, once the warm-up has drained;
/// `at_end` runs on its own thread the moment the window closes, while the
/// clients drain.
LoopResult RunWindow(const Stack& stack, const std::vector<Input>& inputs,
                     const Workload& workload, double seconds, Window* window,
                     const std::function<void()>& at_start = nullptr,
                     const std::function<void()>& at_end = nullptr) {
  std::atomic<size_t> next_session{0};
  Window warmup;
  warmup.end_ns = NowNanos() + static_cast<int64_t>(kWarmupSeconds * 1e9);
  RunClosedLoop(inputs, workload, stack.endpoints(), warmup, &next_session);
  for (const auto& client : stack.clients) client->spans.clear();
  if (at_start) at_start();
  window->start_ns = NowNanos();
  window->end_ns = window->start_ns + static_cast<int64_t>(seconds * 1e9);
  std::thread marker;
  if (at_end) {
    const int64_t end_ns = window->end_ns;
    marker = std::thread([end_ns, &at_end] {
      const int64_t left = end_ns - NowNanos();
      if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
      at_end();
    });
  }
  LoopResult result = RunClosedLoop(inputs, workload, stack.endpoints(),
                                    *window, &next_session);
  if (marker.joinable()) marker.join();
  return result;
}

FleetConfig ConfigFor(const Workload& workload, size_t session_bytes,
                      const std::string& scratch_dir, bool traced) {
  FleetConfig config;
  config.memory_budget_bytes =
      workload.resident_sessions_per_backend * session_bytes;
  config.checkpoint_each_step = workload.checkpoint_each_step;
  config.scratch_dir = scratch_dir;
  config.traced = traced;
  return config;
}

/// The outcome of the correctness check over a run's sessions.
struct Check {
  bool ok = true;
  std::vector<std::string> problems;
  uint64_t digest = 0;
  double precision_mean = 0.0;
  size_t corpora = 0;
  size_t sessions = 0;
  size_t replayed_corpus = 0;

  void Fail(std::string problem) {
    ok = false;
    problems.push_back(std::move(problem));
  }
};

/// Every session on one corpus ran the same spec, seed and verdicts, so all
/// of them must agree bit for bit; one corpus is then replayed in-process
/// through a SessionManager and must agree too. The digest covers one
/// session per corpus and precision_mean averages over corpora, so both
/// depend only on the seed.
Check CheckSessions(const std::vector<SessionRecord>& records,
                    const std::vector<Input>& inputs, const Workload& workload,
                    uint64_t seed) {
  Check check;
  check.sessions = records.size();
  std::map<size_t, const SessionRecord*> by_corpus;
  for (const SessionRecord& record : records) {
    const Input& input = inputs[record.corpus];
    if (record.suggestions.empty() ||
        record.final_probs.size() != input.db.num_claims()) {
      check.Fail("corpus " + std::to_string(record.corpus) +
                 ": incomplete session");
      continue;
    }
    auto [it, inserted] = by_corpus.emplace(record.corpus, &record);
    if (!inserted && !record.SameAs(*it->second)) {
      check.Fail("corpus " + std::to_string(record.corpus) +
                 ": wire sessions disagree");
    }
  }
  if (by_corpus.empty()) {
    check.Fail("no session completed");
    return check;
  }
  uint64_t digest = 0xcbf29ce484222325ULL;
  double precision = 0.0;
  for (const auto& [corpus, record] : by_corpus) {
    digest = (digest ^ record->Digest()) * 0x100000001b3ULL;
    precision += record->final_precision;
  }
  check.digest = digest;
  check.corpora = by_corpus.size();
  check.precision_mean = precision / static_cast<double>(by_corpus.size());

  auto replay = by_corpus.find(seed % inputs.size());
  if (replay == by_corpus.end()) replay = by_corpus.begin();
  check.replayed_corpus = replay->first;
  LocalEndpoint local;
  LoopResult replayed;
  const bool ran = RunSession(inputs[replay->first], workload, replay->first,
                              &local, Window{}, &replayed, replay->second);
  if (!ran || replayed.records.empty() ||
      !replayed.records.front().SameAs(*replay->second)) {
    check.Fail("corpus " + std::to_string(replay->first) +
               ": in-process replay differs from the wire session");
  }
  return check;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

/// Host and build facts printed with every result. A build that is not
/// optimized is flagged as not comparable.
std::string MetaJson(const Args& args, const Check& check,
                     const LoopResult& loop, const MetricList& metrics,
                     const std::vector<double>& setup_seconds,
                     const std::vector<double>& window_turns_per_s) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool optimized =
      build_type == "Release" || build_type == "RelWithDebInfo";
  std::string json = "{";
  json += "\"workload\": " + JsonString(args.workload);
  json += ", \"seed\": " + std::to_string(args.seed);
  json += ", \"seconds\": " + JsonNumber(args.seconds);
  json += ", \"trace\": " + std::string(args.trace ? "1" : "0");
  json += ", \"commit\": " + JsonString(args.commit);
  json += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  json += ", \"cpu\": " + JsonString(CpuModel());
  json += ", \"compiler\": " + JsonString(PERFBENCH_COMPILER);
  json += ", \"build_type\": " + JsonString(build_type);
  json += ", \"comparable\": " + std::string(optimized ? "true" : "false");
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(check.digest));
  json += ", \"suggestion_digest\": " + JsonString(digest);
  json += ", \"precision_mean\": " + JsonNumber(check.precision_mean);
  json += ", \"corpora\": " + std::to_string(check.corpora);
  json += ", \"sessions_checked\": " + std::to_string(check.sessions);
  json += ", \"replayed_corpus\": " + std::to_string(check.replayed_corpus);
  json += ", \"requests\": {";
  for (size_t m = 0; m < kNumMethods; ++m) {
    if (m > 0) json += ", ";
    json += JsonString(MethodName(static_cast<Method>(m))) +
            ": {\"attempted\": " + std::to_string(loop.attempted[m]) +
            ", \"failed\": " + std::to_string(loop.failed[m]) + "}";
  }
  // Each latency's sample count and the highest percentile it supports.
  json += "}, \"samples\": {";
  const std::pair<const char*, const Samples*> latencies[] = {
      {"turn", &loop.turn_ms},
      {"advance", &loop.advance_ms},
      {"first_suggestion", &loop.first_ms}};
  for (const auto& [name, samples] : latencies) {
    if (samples != &loop.turn_ms) json += ", ";
    json += JsonString(name) + ": {\"count\": " +
            std::to_string(samples->count()) + ", \"highest_supported\": " +
            JsonNumber(HighestSupportedPercentile(samples->count())) + "}";
  }
  json += "}";
  json += ", \"setups_s\": [";
  for (size_t i = 0; i < setup_seconds.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonNumber(setup_seconds[i]);
  }
  json += "], \"window_turns_per_s\": [";
  for (size_t i = 0; i < window_turns_per_s.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonNumber(window_turns_per_s[i]);
  }
  json += "], \"unsupported_percentiles\": [";
  for (size_t i = 0; i < metrics.unsupported().size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics.unsupported()[i]);
  }
  json += "], \"problems\": [";
  for (size_t i = 0; i < check.problems.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(check.problems[i]);
  }
  return json + "]}";
}

MetricList EndToEndMetrics(const LoopResult& loop, double seconds,
                           double setup_s, const Check& check) {
  MetricList out;
  out.Add("setup_s", setup_s, "s");
  out.AddPercentile("turn_ms_p50", loop.turn_ms, 0.5, "ms", false);
  out.AddPercentile("turn_ms_p90", loop.turn_ms, 0.9, "ms", false);
  out.AddPercentile("first_suggestion_ms_p50", loop.first_ms, 0.5, "ms", false);
  out.AddPercentile("first_suggestion_ms_p90", loop.first_ms, 0.9, "ms", false);
  out.AddPercentile("advance_ms_p50", loop.advance_ms, 0.5, "ms", false);
  out.AddPercentile("advance_ms_p90", loop.advance_ms, 0.9, "ms", false);
  out.Add("turns_per_s", static_cast<double>(loop.turns) / seconds, "1/s");
  out.Add("sessions_per_s", static_cast<double>(loop.sessions) / seconds,
          "1/s");
  out.Add("precision_mean", check.precision_mean, "fraction");
  const size_t attempted = loop.total_attempted();
  out.Add("ops_ok_frac",
          attempted > 0 ? 1.0 - static_cast<double>(loop.total_failed()) /
                                    static_cast<double>(attempted)
                        : 0.0,
          "fraction");
  out.Add("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
  return 2;
}

int Run(const Args& args) {
  auto workload_or = MakeWorkload(args.workload);
  if (!workload_or.ok()) return Fail(workload_or.status());
  const Workload workload = workload_or.value();
  auto inputs_or = GenerateInputs(workload, args.seed);
  if (!inputs_or.ok()) return Fail(inputs_or.status());
  const std::vector<Input> inputs = std::move(inputs_or).value();
  auto footprint = SessionFootprint(inputs.front());
  if (!footprint.ok()) return Fail(footprint.status());
  const size_t session_bytes = footprint.value();
  const std::string scratch =
      args.scratch + "/run-" + std::to_string(NowNanos());

  // Untraced: kSetups fresh stacks, each timed for a share of the seconds.
  // Thread placement and allocator state differ from one stack to the next
  // and move a whole window together, so pooling several stacks' samples
  // steadies every metric.
  // A traced run needs the untraced rate only as its overhead baseline.
  const int stacks = args.trace ? 1 : kSetups;
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> setup_seconds;
  std::vector<double> window_turns_per_s;
  LoopResult loop;
  for (int k = 0; k < stacks; ++k) {
    const auto config = ConfigFor(workload, session_bytes,
                                  scratch + "/fleet-" + std::to_string(k),
                                  /*traced=*/false);
    const int64_t started = NowNanos();
    auto set_up = SetUp(config, workload, inputs);
    if (!set_up.ok()) return Fail(set_up.status());
    setup_seconds.push_back(static_cast<double>(NowNanos() - started) * 1e-9);
    const Stack stack = std::move(set_up).value();
    Window window;
    LoopResult part = RunWindow(stack, inputs, workload,
                                untraced_seconds / stacks, &window);
    window_turns_per_s.push_back(static_cast<double>(part.turns) /
                                 (untraced_seconds / stacks));
    loop.Merge(std::move(part));
  }
  const double untraced_turns_per_s =
      static_cast<double>(loop.turns) / untraced_seconds;

  MetricList metrics;
  LocalEndpoint local;
  if (args.trace) {
    // Traced: a fresh stack with the timing handlers spliced in.
    const auto config = ConfigFor(workload, session_bytes,
                                  scratch + "/traced", /*traced=*/true);
    auto set_up = SetUp(config, workload, inputs);
    if (!set_up.ok()) return Fail(set_up.status());
    Stack stack = std::move(set_up).value();
    TracedRun run;
    run.mode = workload.mode;
    LoopResult traced = RunWindow(
        stack, inputs, workload, args.seconds, &run.window,
        [&] {
          std::vector<RouterSpan> warmup_router;
          std::vector<BackendSpan> warmup_backend;
          stack.fleet->spans()->Take(&warmup_router, &warmup_backend);
          run.counters_before = stack.fleet->Counters();
          run.metrics_before = veritas::GlobalMetrics().Snapshot();
        },
        [&] {
          run.counters_after = stack.fleet->Counters();
          run.metrics_after = veritas::GlobalMetrics().Snapshot();
        });
    stack.fleet->spans()->Take(&run.router, &run.backend);
    for (const auto& client : stack.clients) {
      run.client.insert(run.client.end(), client->spans.begin(),
                        client->spans.end());
    }
    stack = Stack{};
    run.untraced_turns_per_s = untraced_turns_per_s;
    run.traced_turns_per_s = static_cast<double>(traced.turns) / args.seconds;

    // The in-process profile: the same sessions on a bare SessionManager.
    run.local_before = veritas::GlobalMetrics().Snapshot();
    LoopResult profiled = RunLocalProfile(inputs, workload, args.seconds, &local);
    run.local_after = veritas::GlobalMetrics().Snapshot();
    run.local = &local;
    metrics = LayerMetrics(run);

    loop.Merge(std::move(traced));
    for (auto& record : profiled.records) loop.records.push_back(std::move(record));
  }

  Check check = CheckSessions(loop.records, inputs, workload, args.seed);
  if (!args.trace) {
    metrics = EndToEndMetrics(loop, args.seconds, Median(setup_seconds), check);
  }
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
  for (const std::string& problem : check.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  PrintResult(check.ok, loop.total_attempted(), loop.total_failed(), metrics,
              MetaJson(args, check, loop, metrics, setup_seconds,
                       window_turns_per_s));
  return check.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  auto args = perfbench::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", args.status().ToString().c_str());
    return 2;
  }
  return perfbench::Run(args.value());
}
