// Throughput of the multi-session guidance service (DESIGN.md §9): an
// open-loop workload of Poisson request arrivals over a mixed population of
// batch and streaming sessions on the emulated wiki corpus, executed by the
// RequestQueue worker pool at 1/2/4/8 workers.
//
// Each batch step blocks on the emulated validator's round trip (think
// time) — the regime the paper's interactive setting implies and the reason
// a serving layer multiplexes M >> K sessions over K workers: while one
// session waits for its human, the workers serve other sessions. The think
// time is auto-calibrated to 4x the measured per-step compute so the
// scaling headroom is the same on any host (override with --latency=<ms>);
// compute itself also parallelizes on multi-core hosts.
//
// Reported per worker count: completed steps/s, completed sessions/s, p50
// and p99 request latency (queue wait + service), and admission-control
// sheds. The shape check pins >= 3x step throughput at 4 workers vs 1.
//
// --socket switches to the wire-overhead mode (DESIGN.md §10): the same
// batch session driven twice with identical seeds — once in-process through
// the GuidanceApi dispatch + one-worker RequestQueue (no JSON, no socket),
// once through the JSON-over-TCP loopback API on the same stack — plus a
// codec-only microbenchmark, reporting the per-step cost the protocol adds
// on top of step compute. bench_report.sh records the "# socket" footers
// into BENCH_guidance.json.
//
// --fleet switches to the fleet mode (DESIGN.md §11): one worker stack
// under 64 concurrent think-time-bound sessions, then the SessionRouter's
// 1/2/4-backend scaling curve with sessions consistent-hashed across
// in-process worker stacks. bench_report.sh records the "# fleet" footers
// into BENCH_guidance.json.
//
// --metrics-overhead switches to the observability cost gate (DESIGN.md
// §14): the identical one-worker stack with the global metrics registry
// enabled vs disabled, interleaved arms, best rep per arm. bench_report.sh
// records the "# metrics" footers as "metrics_overhead" and fails above 1%.

#include <algorithm>
#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "api/client.h"
#include "api/codec.h"
#include "api/event_server.h"
#include "api/service.h"
#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "fleet/router.h"
#include "obs/metrics.h"
#include "service/request_queue.h"

namespace veritas {
namespace bench {
namespace {

struct WorkloadSpec {
  size_t batch_sessions = 8;
  size_t streaming_sessions = 8;
  size_t steps_per_batch_session = 4;
  double latency_ms = -1.0;  ///< <0: auto-calibrate to 4x step compute
  double offered_load = 1.2; ///< Poisson rate as a multiple of ideal capacity
};

SessionSpec ServiceBatchSpec(uint64_t seed, size_t budget, double latency_ms) {
  SessionSpec spec;
  spec.mode = SessionMode::kBatch;
  spec.validation = BenchValidationOptions(StrategyKind::kHybrid, seed);
  // Serial guidance: the service parallelizes across sessions, not inside a
  // step, so workers never oversubscribe each other.
  spec.validation.guidance.variant = GuidanceVariant::kScalable;
  spec.validation.guidance.candidate_pool = 16;
  spec.validation.budget = budget;
  spec.user.kind = UserSpec::Kind::kOracle;
  spec.user.latency_ms = latency_ms;
  return spec;
}

SessionSpec ServiceStreamingSpec(uint64_t seed, double latency_ms) {
  SessionSpec spec;
  spec.mode = SessionMode::kStreaming;
  spec.streaming.icrf.gibbs = GibbsOptions{5, 12, 1};
  spec.streaming.icrf.max_em_iterations = 2;
  spec.streaming.tron_iterations_per_arrival = 3;
  spec.streaming.seed = seed;
  spec.streaming_label_interval = 4;
  spec.user.kind = UserSpec::Kind::kOracle;
  spec.user.latency_ms = latency_ms;
  return spec;
}

/// Mean wall-clock of one batch guidance step with a zero-latency user.
double CalibrateStepSeconds(const EmulatedCorpus& corpus, uint64_t seed) {
  SessionManager manager;
  auto id = manager.Create(corpus.db, ServiceBatchSpec(seed, 3, 0.0));
  if (!id.ok()) std::abort();
  Stopwatch watch;
  size_t steps = 0;
  for (; steps < 3; ++steps) {
    auto step = manager.Advance(id.value());
    if (!step.ok() || step.value().done) break;
  }
  return steps == 0 ? 0.01 : watch.ElapsedSeconds() / static_cast<double>(steps);
}

struct RunResult {
  double wall_seconds = 0.0;
  double steps_per_second = 0.0;
  double sessions_per_second = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t sheds = 0;
};

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const size_t index = std::min(
      values->size() - 1, static_cast<size_t>(q * (values->size() - 1) + 0.5));
  return (*values)[index];
}

RunResult RunWorkload(const EmulatedCorpus& corpus, const WorkloadSpec& work,
                      size_t workers, double step_seconds, double latency_ms,
                      uint64_t seed) {
  SessionManager manager;
  std::vector<SessionId> sessions;
  std::vector<size_t> requests_per_session;
  for (size_t s = 0; s < work.batch_sessions; ++s) {
    auto id = manager.Create(
        corpus.db, ServiceBatchSpec(seed + s, work.steps_per_batch_session,
                                    latency_ms));
    if (!id.ok()) std::abort();
    sessions.push_back(id.value());
    requests_per_session.push_back(work.steps_per_batch_session);
  }
  for (size_t s = 0; s < work.streaming_sessions; ++s) {
    auto id =
        manager.Create(corpus.db, ServiceStreamingSpec(seed + 100 + s, latency_ms));
    if (!id.ok()) std::abort();
    sessions.push_back(id.value());
    // Arrivals drain the whole corpus; one extra request hits the
    // stream-drained sync.
    requests_per_session.push_back(corpus.db.num_claims() + 1);
  }

  // Round-robin request order across sessions = the per-session FIFO the
  // scheduler must honor; Poisson inter-arrival gaps make the offered load
  // open-loop.
  std::vector<SessionId> order;
  {
    size_t remaining = 0;
    for (const size_t n : requests_per_session) remaining += n;
    std::vector<size_t> left = requests_per_session;
    while (remaining > 0) {
      for (size_t s = 0; s < sessions.size(); ++s) {
        if (left[s] == 0) continue;
        order.push_back(sessions[s]);
        --left[s];
        --remaining;
      }
    }
  }

  // Ideal capacity: workers bounded by think+compute per step, the machine
  // bounded by compute alone.
  const double step_total = step_seconds + latency_ms / 1000.0;
  const double capacity = static_cast<double>(workers) / step_total;
  const double rate = work.offered_load * capacity;

  RequestQueueOptions queue_options;
  queue_options.num_workers = workers;
  queue_options.max_queue_depth = 4 * order.size();
  RequestQueue queue(&manager, queue_options);

  Rng arrival_rng(seed ^ 0x5eed5eedULL);
  std::vector<std::future<ServiceResponse>> futures;
  futures.reserve(order.size());
  size_t sheds = 0;
  Stopwatch wall;
  for (const SessionId id : order) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(arrival_rng.Exponential(rate)));
    ServiceRequest request;
    request.kind = RequestKind::kAdvance;
    request.session = id;
    for (;;) {
      auto submitted = queue.Submit(request);
      if (submitted.ok()) {
        futures.push_back(std::move(submitted).value());
        break;
      }
      ++sheds;  // admission control: back off and retry
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  queue.Drain();
  const double wall_seconds = wall.ElapsedSeconds();

  std::vector<double> latencies_ms;
  latencies_ms.reserve(futures.size());
  size_t completed_steps = 0;
  for (auto& future : futures) {
    const ServiceResponse response = future.get();
    if (!response.status.ok()) {
      std::cerr << "request failed: " << response.status << "\n";
      std::exit(1);
    }
    if (response.step.iteration_completed || response.step.arrival_processed ||
        response.step.done) {
      ++completed_steps;
    }
    latencies_ms.push_back(
        (response.wait_seconds + response.service_seconds) * 1e3);
  }

  RunResult result;
  result.wall_seconds = wall_seconds;
  result.steps_per_second =
      static_cast<double>(completed_steps) / wall_seconds;
  result.sessions_per_second =
      static_cast<double>(sessions.size()) / wall_seconds;
  result.p50_ms = Percentile(&latencies_ms, 0.50);
  result.p99_ms = Percentile(&latencies_ms, 0.99);
  result.sheds = sheds;
  return result;
}

/// Wire-overhead mode: per-step cost of codec + loopback transport,
/// measured against the identically-seeded in-process run. The two arms
/// are interleaved and the medians compared: a single back-to-back pair
/// used to report negative overhead whenever inference cost drifted
/// between the runs (allocator state, frequency scaling) by more than the
/// sub-millisecond protocol tax being measured.
int RunSocketMode(const EmulatedCorpus& corpus, uint64_t seed) {
  const size_t budget = 8;
  const size_t reps = 5;
  StepResult sample_step;

  // In-process arm: the same GuidanceApi dispatch through an identically-
  // configured one-worker RequestQueue, zero-latency oracle — everything
  // the loopback arm does EXCEPT the JSON codec and the socket, so the
  // delta is pure codec + transport, not queue handoff or dispatch.
  auto run_in_process = [&](double* ms_per_step) -> bool {
    SessionManager manager;
    RequestQueueOptions queue_options;
    queue_options.num_workers = 1;
    RequestQueue queue(&manager, queue_options);
    GuidanceApi api(&manager, &queue);
    auto id = manager.Create(corpus.db, ServiceBatchSpec(seed, budget, 0.0));
    if (!id.ok()) {
      std::cerr << "create failed: " << id.status() << "\n";
      return false;
    }
    Stopwatch watch;
    size_t steps = 0;
    for (; steps < budget; ++steps) {
      ApiRequest request;
      request.params = AdvanceRequest{id.value()};
      ApiResponse response = api.Handle(request);
      const StepResponse* step = std::get_if<StepResponse>(&response.result);
      if (step == nullptr || step->step.done) break;
      sample_step = step->step;
    }
    if (steps == 0) {
      std::cerr << "no steps completed\n";
      return false;
    }
    *ms_per_step = watch.ElapsedSeconds() * 1e3 / static_cast<double>(steps);
    return true;
  };

  // Loopback arm: the same session (same seed, same spec) through the wire:
  // encode request -> TCP -> decode -> step -> encode response -> TCP ->
  // decode, on a dispatch + queue stack identical to the in-process arm.
  auto run_loopback = [&](double* ms_per_step) -> bool {
    SessionManager manager;
    RequestQueueOptions queue_options;
    queue_options.num_workers = 1;
    RequestQueue queue(&manager, queue_options);
    GuidanceApi api(&manager, &queue);
    auto server = EventApiServer::Start(&api);
    if (!server.ok()) {
      std::cerr << "server start failed: " << server.status() << "\n";
      return false;
    }
    auto client = ApiClient::Connect("127.0.0.1", server.value()->port());
    if (!client.ok()) {
      std::cerr << "connect failed: " << client.status() << "\n";
      return false;
    }
    auto id = client.value()->CreateSession(corpus.db,
                                            ServiceBatchSpec(seed, budget, 0.0));
    if (!id.ok()) {
      std::cerr << "wire create failed: " << id.status() << "\n";
      return false;
    }
    Stopwatch watch;
    size_t steps = 0;
    for (; steps < budget; ++steps) {
      auto step = client.value()->Advance(id.value());
      if (!step.ok() || step.value().done) break;
    }
    if (steps == 0) {
      std::cerr << "no wire steps completed\n";
      return false;
    }
    *ms_per_step = watch.ElapsedSeconds() * 1e3 / static_cast<double>(steps);
    server.value()->Stop();
    return true;
  };

  auto median = [](std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
  };

  // Interleave the arms (ABAB...) so slow drift hits both equally; one
  // warm-up pair untimed, then the medians carry the comparison.
  std::vector<double> in_process_samples, loopback_samples;
  double discard = 0.0;
  if (!run_in_process(&discard) || !run_loopback(&discard)) return 1;
  for (size_t rep = 0; rep < reps; ++rep) {
    double in_process_rep = 0.0, loopback_rep = 0.0;
    if (!run_in_process(&in_process_rep)) return 1;
    if (!run_loopback(&loopback_rep)) return 1;
    in_process_samples.push_back(in_process_rep);
    loopback_samples.push_back(loopback_rep);
  }
  const double in_process_ms = median(in_process_samples);
  const double loopback_ms = median(loopback_samples);

  // 3. Codec alone: encode + decode of a representative StepResponse.
  ApiResponse response;
  response.result = StepResponse{sample_step};
  auto encoded = EncodeResponse(response);
  if (!encoded.ok()) {
    std::cerr << "encode failed: " << encoded.status() << "\n";
    return 1;
  }
  const size_t response_bytes = encoded.value().size();
  const size_t codec_reps = 500;
  Stopwatch codec_watch;
  for (size_t i = 0; i < codec_reps; ++i) {
    auto text = EncodeResponse(response);
    auto back = DecodeResponse(text.value());
    if (!back.ok()) {
      std::cerr << "decode failed: " << back.status() << "\n";
      return 1;
    }
  }
  const double codec_us =
      codec_watch.ElapsedSeconds() * 1e6 / static_cast<double>(codec_reps);

  const double overhead_ms = loopback_ms - in_process_ms;
  TextTable table;
  table.SetHeader({"mode", "ms/step"});
  table.AddNumericRow("in_process", {in_process_ms}, 3);
  table.AddNumericRow("loopback", {loopback_ms}, 3);
  table.Print(std::cout);
  std::cout << "# socket in_process_ms_per_step = " << in_process_ms << "\n";
  std::cout << "# socket loopback_ms_per_step = " << loopback_ms << "\n";
  std::cout << "# socket overhead_ms_per_step = " << overhead_ms << "\n";
  std::cout << "# socket codec_us_per_roundtrip = " << codec_us << "\n";
  std::cout << "# socket step_response_bytes = " << response_bytes << "\n";

  // Protocol tax must stay small next to step compute: the serving layer's
  // bottleneck is inference + validator think time, not JSON-over-loopback.
  const double limit_ms = std::max(2.0, 0.5 * in_process_ms);
  PrintShapeCheck(overhead_ms <= limit_ms,
                  "codec+transport overhead per step stays below "
                  "max(2ms, 50% of step compute)");
  return overhead_ms <= limit_ms ? 0 : 1;
}

// ---- metrics-overhead mode (DESIGN.md §14) ---------------------------------

/// Cost gate for the always-on metrics registry: the same one-worker
/// service stack driven with the global registry enabled (every queue,
/// step, session and solver instrument recording) and disabled (the
/// one-relaxed-load kill switch, standing in for a compiled-out build).
///
/// The recording tax being measured is microseconds under ~3 ms of step
/// compute, so machine noise (co-tenants, core placement, frequency)
/// dwarfs it in any appreciable timing window. The design squeezes that
/// noise out by pairing as tightly as possible: TWO seed-identical
/// sessions advance in lockstep through the same service stack, a slice
/// of steps on one timed with the registry enabled and the same slice on
/// the other with it disabled, back to back (~10 ms apart, so both halves
/// of a pair see the same machine state and the queue's thread-handoff
/// jitter averages out within a slice), with the order inside each pair
/// alternating to cancel position bias. The gate reads the median of the
/// per-slice-pair overheads — a noise spike that splits one pair lands in
/// the tails.
/// bench_report.sh fails the report when the overhead exceeds 1% of step
/// throughput.
int RunMetricsOverheadMode(const EmulatedCorpus& corpus, uint64_t seed) {
  const size_t slice_steps = 4;
  const size_t slices_per_session = 4;
  const size_t budget = slice_steps * slices_per_session;
  // Session pairs. Sized so the run spans several seconds: co-tenant load
  // swings have correlation times around a second, and a run that fits
  // inside one swing hands every pair the same bias.
  const size_t rounds = 96;

  SessionManager manager;
  RequestQueueOptions queue_options;
  queue_options.num_workers = 1;
  RequestQueue queue(&manager, queue_options);
  GuidanceApi api(&manager, &queue);

  // One slice of steps through the full API stack; seconds out, false on
  // failure.
  auto timed_slice = [&](SessionId id, bool enabled, double* seconds) -> bool {
    GlobalMetrics().set_enabled(enabled);
    Stopwatch watch;
    for (size_t step = 0; step < slice_steps; ++step) {
      ApiRequest request;
      request.params = AdvanceRequest{id};
      ApiResponse response = api.Handle(request);
      if (std::get_if<StepResponse>(&response.result) == nullptr) return false;
    }
    *seconds = watch.ElapsedSeconds();
    return true;
  };

  auto median = [](std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    const size_t mid = samples.size() / 2;
    return samples.size() % 2 == 1
               ? samples[mid]
               : 0.5 * (samples[mid - 1] + samples[mid]);
  };

  std::vector<double> pair_overheads;
  double enabled_seconds = 0.0, disabled_seconds = 0.0;
  size_t steps_timed = 0;
  for (size_t round = 0; round < rounds; ++round) {
    // Two identical sessions: the registry never feeds back into the
    // computation, so they stay in lockstep and step k costs the same
    // compute in both.
    auto enabled_id =
        manager.Create(corpus.db, ServiceBatchSpec(seed, budget, 0.0));
    auto disabled_id =
        manager.Create(corpus.db, ServiceBatchSpec(seed, budget, 0.0));
    if (!enabled_id.ok() || !disabled_id.ok()) {
      std::cerr << "create failed\n";
      return 1;
    }
    for (size_t slice = 0; slice < slices_per_session; ++slice) {
      double enabled_slice = 0.0, disabled_slice = 0.0;
      const bool enabled_first = (round + slice) % 2 == 0;
      bool ok =
          enabled_first
              ? timed_slice(enabled_id.value(), true, &enabled_slice) &&
                    timed_slice(disabled_id.value(), false, &disabled_slice)
              : timed_slice(disabled_id.value(), false, &disabled_slice) &&
                    timed_slice(enabled_id.value(), true, &enabled_slice);
      if (!ok) {
        std::cerr << "step failed\n";
        GlobalMetrics().set_enabled(true);
        return 1;
      }
      if (round == 0 && slice == 0) continue;  // warm-up pair untimed
      enabled_seconds += enabled_slice;
      disabled_seconds += disabled_slice;
      steps_timed += slice_steps;
      pair_overheads.push_back((enabled_slice - disabled_slice) /
                               disabled_slice * 100.0);
    }
    (void)manager.Terminate(enabled_id.value());
    (void)manager.Terminate(disabled_id.value());
  }
  GlobalMetrics().set_enabled(true);

  const double enabled_sps =
      static_cast<double>(steps_timed) / enabled_seconds;
  const double disabled_sps =
      static_cast<double>(steps_timed) / disabled_seconds;
  const double overhead_pct = median(pair_overheads);

  TextTable table;
  table.SetHeader({"registry", "steps/s"});
  table.AddNumericRow("enabled", {enabled_sps}, 2);
  table.AddNumericRow("disabled", {disabled_sps}, 2);
  table.Print(std::cout);
  std::cout << "# metrics steps_per_second_enabled = " << enabled_sps << "\n";
  std::cout << "# metrics steps_per_second_disabled = " << disabled_sps
            << "\n";
  std::cout << "# metrics overhead_pct = " << overhead_pct << "\n";

  PrintShapeCheck(overhead_pct <= 1.0,
                  "instrumented step throughput stays within 1% of the "
                  "registry-disabled run");
  return overhead_pct <= 1.0 ? 0 : 1;
}

// ---- fleet mode (DESIGN.md §11) --------------------------------------------

/// One backend worker: the full veritas_server stack, owned in-process so
/// the bench controls its lifetime.
struct FleetWorker {
  std::unique_ptr<SessionManager> manager;
  std::unique_ptr<RequestQueue> queue;
  std::unique_ptr<GuidanceApi> api;
  std::unique_ptr<EventApiServer> server;
};

FleetWorker StartFleetWorker(size_t queue_workers) {
  FleetWorker worker;
  worker.manager = std::make_unique<SessionManager>();
  RequestQueueOptions queue_options;
  queue_options.num_workers = queue_workers;
  worker.queue =
      std::make_unique<RequestQueue>(worker.manager.get(), queue_options);
  worker.api =
      std::make_unique<GuidanceApi>(worker.manager.get(), worker.queue.get());
  EventApiServerOptions server_options;
  // Dispatch must outnumber queue workers: a dispatch thread blocks on the
  // queue future, so fewer dispatchers than queue workers starves the queue.
  server_options.dispatch_workers = queue_workers + 4;
  auto server = EventApiServer::Start(worker.api.get(), server_options);
  if (!server.ok()) {
    std::cerr << "worker start failed: " << server.status() << "\n";
    std::exit(1);
  }
  worker.server = std::move(server).value();
  return worker;
}

/// Closed-loop drive: `sessions` client threads each run one think-time-
/// bound batch session to completion against host:port. Session creation
/// is OUTSIDE the timed window — creates are CPU-bound inference that no
/// fleet parallelizes on a small host; the timed phase starts once every
/// session exists, so steps/s measures the steady-state serving regime.
double DriveClosedLoop(const EmulatedCorpus& corpus, uint16_t port,
                       size_t sessions, size_t budget, double latency_ms,
                       uint64_t seed) {
  std::atomic<size_t> steps{0};
  std::atomic<size_t> ready{0};
  std::promise<void> start;
  std::shared_future<void> start_signal = start.get_future().share();
  std::vector<std::thread> drivers;
  drivers.reserve(sessions);
  for (size_t s = 0; s < sessions; ++s) {
    drivers.emplace_back([&, s] {
      auto client = ApiClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        std::cerr << "connect failed: " << client.status() << "\n";
        std::exit(1);
      }
      auto id = client.value()->CreateSession(
          corpus.db, ServiceBatchSpec(seed + s, budget, latency_ms));
      if (!id.ok()) {
        std::cerr << "create failed: " << id.status() << "\n";
        std::exit(1);
      }
      ++ready;
      start_signal.wait();
      for (;;) {
        auto step = client.value()->Advance(id.value());
        if (!step.ok()) {
          std::cerr << "advance failed: " << step.status() << "\n";
          std::exit(1);
        }
        if (step.value().iteration_completed) ++steps;
        if (step.value().done) break;
      }
      auto outcome = client.value()->Terminate(id.value());
      if (!outcome.ok()) {
        std::cerr << "terminate failed: " << outcome.status() << "\n";
        std::exit(1);
      }
    });
  }
  while (ready.load() < sessions) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Stopwatch wall;
  start.set_value();
  for (std::thread& driver : drivers) driver.join();
  const double wall_seconds = wall.ElapsedSeconds();
  return static_cast<double>(steps.load()) / wall_seconds;
}

/// Fleet mode: (A) one stack under 64 concurrent connections, then (B) the
/// router's 1->N backend scaling curve. Both parts are think-time-bound
/// (the oracle sleeps latency_ms inside each step), so the curves measure
/// MULTIPLEXING — how many waiting sessions a server/fleet keeps in flight
/// — not raw compute, and hold their shape on any core count.
int RunFleetMode(const EmulatedCorpus& corpus, double latency_ms,
                 uint64_t seed) {
  const double think_ms = latency_ms >= 0.0 ? latency_ms : 40.0;
  const size_t kConnections = 64;
  const size_t kBudget = 3;

  // Part A: one worker stack (16 queue workers).
  double event_steps = 0.0;
  {
    FleetWorker worker = StartFleetWorker(16);
    event_steps = DriveClosedLoop(corpus, worker.server->port(), kConnections,
                                  kBudget, think_ms, seed);
    worker.server->Stop();
  }

  // Part B: router scaling. Each backend gets 4 queue workers; 64 sessions
  // consistent-hash across them (64 sessions: enough keys for the ring to spread load evenly). Capacity is (4 * backends) / think_time,
  // so the curve rises with the fleet until the 64 closed-loop clients
  // saturate. Checkpointing off: this measures routing, not durability.
  // Longer sessions than part A: session creation is CPU-bound compute that
  // no fleet parallelizes on a small host, so enough think-bound steps must
  // follow each create for the scaling signal to dominate that fixed cost.
  const size_t kFleetBudget = 8;
  TextTable table;
  table.SetHeader({"backends", "steps/s"});
  double steps_1b = 0.0;
  double steps_4b = 0.0;
  std::vector<double> curve;
  for (const size_t backends : {1, 2, 4}) {
    std::vector<FleetWorker> workers;
    SessionRouterOptions router_options;
    for (size_t b = 0; b < backends; ++b) {
      workers.push_back(StartFleetWorker(4));
      router_options.backends.push_back(
          "127.0.0.1:" + std::to_string(workers.back().server->port()));
    }
    auto router = SessionRouter::Start(router_options);
    if (!router.ok()) {
      std::cerr << "router start failed: " << router.status() << "\n";
      return 1;
    }
    // One dispatch worker per client: forwarding never queues at the front,
    // which keeps the router out of the measurement (the backends are the
    // bottleneck under test).
    EventApiServerOptions front_options;
    front_options.dispatch_workers = kConnections;
    auto front = EventApiServer::Start(router.value().get(), front_options);
    if (!front.ok()) {
      std::cerr << "front start failed: " << front.status() << "\n";
      return 1;
    }
    const double steps_per_s =
        DriveClosedLoop(corpus, front.value()->port(), kConnections,
                        kFleetBudget, think_ms, seed);
    if (backends == 1) steps_1b = steps_per_s;
    if (backends == 4) steps_4b = steps_per_s;
    curve.push_back(steps_per_s);
    table.AddNumericRow(std::to_string(backends), {steps_per_s}, 2);
    front.value()->Stop();
    for (FleetWorker& worker : workers) worker.server->Stop();
  }
  table.Print(std::cout);

  const double scaling = steps_1b > 0.0 ? steps_4b / steps_1b : 0.0;
  std::cout << "# fleet event_steps_per_s = " << event_steps << "\n";
  const size_t backend_counts[] = {1, 2, 4};
  for (size_t i = 0; i < curve.size(); ++i) {
    std::cout << "# fleet backends=" << backend_counts[i]
              << " steps_per_s = " << curve[i] << "\n";
  }
  std::cout << "# fleet scaling_4b_over_1b = " << scaling << "\n";

  const bool scaling_ok = scaling >= 2.5;
  PrintShapeCheck(scaling_ok,
                  "4 backends deliver >= 2.5x the routed step throughput "
                  "of 1 backend (think-time-bound sessions spread by the "
                  "consistent-hash ring)");
  return scaling_ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  WorkloadSpec work;
  bool socket_mode = false;
  bool fleet_mode = false;
  bool metrics_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--latency=", 0) == 0) work.latency_ms = std::stod(arg.substr(10));
    if (arg.rfind("--steps=", 0) == 0) {
      work.steps_per_batch_session = static_cast<size_t>(std::stoul(arg.substr(8)));
    }
    if (arg == "--socket") socket_mode = true;
    if (arg == "--fleet") fleet_mode = true;
    if (arg == "--metrics-overhead") metrics_mode = true;
  }

  // A small corpus per session: the service regime is many light sessions,
  // not one heavy batch job.
  CorpusSpec spec = Scaled(WikipediaSpec(), 0.2 * args.scale);
  Rng corpus_rng(args.seed ^ 0xf005ba11ULL);
  auto corpus = GenerateCorpus(spec, &corpus_rng);
  if (!corpus.ok()) {
    std::cerr << "corpus generation failed: " << corpus.status() << "\n";
    return 1;
  }

  if (fleet_mode) {
    // Fleet mode gets an even smaller per-session corpus than the service
    // workload: it measures MULTIPLEXING (how many waiting sessions a
    // transport or fleet keeps in flight), so per-step compute must stay
    // negligible against think time — on a single-core host, step compute
    // serializes across backends and would flatten the scaling curve.
    CorpusSpec fleet_spec = Scaled(WikipediaSpec(), 0.1 * args.scale);
    Rng fleet_rng(args.seed ^ 0xf1ee7ULL);
    auto fleet_corpus = GenerateCorpus(fleet_spec, &fleet_rng);
    if (!fleet_corpus.ok()) {
      std::cerr << "corpus generation failed: " << fleet_corpus.status()
                << "\n";
      return 1;
    }
    std::cout << "Fleet mode - one stack at 64 connections, then router "
                 "scaling over 1/2/4 backends ("
              << fleet_corpus.value().db.num_claims()
              << " claims per session)\n";
    return RunFleetMode(fleet_corpus.value(), work.latency_ms, args.seed);
  }

  if (socket_mode) {
    std::cout << "Wire-overhead mode - one batch session, in-process vs "
                 "JSON-over-TCP loopback ("
              << corpus.value().db.num_claims() << " claims)\n";
    return RunSocketMode(corpus.value(), args.seed);
  }

  if (metrics_mode) {
    std::cout << "Metrics-overhead mode - one batch session, registry "
                 "enabled vs disabled ("
              << corpus.value().db.num_claims() << " claims)\n";
    return RunMetricsOverheadMode(corpus.value(), args.seed);
  }

  const double step_seconds = CalibrateStepSeconds(corpus.value(), args.seed);
  const double latency_ms = work.latency_ms >= 0.0
                                ? work.latency_ms
                                : std::max(10.0, 4.0 * step_seconds * 1e3);

  std::cout << "Service throughput - open-loop Poisson workload, "
            << work.batch_sessions << " batch + " << work.streaming_sessions
            << " streaming sessions ("
            << corpus.value().db.num_claims() << " claims each)\n";
  std::cout << "calibrated step compute: " << step_seconds * 1e3
            << " ms; validator think time: " << latency_ms << " ms\n";

  TextTable table;
  table.SetHeader({"workers", "steps/s", "sessions/s", "p50_ms", "p99_ms",
                   "sheds"});
  const size_t worker_counts[] = {1, 2, 4, 8};
  double throughput_1 = 0.0;
  double throughput_4 = 0.0;
  for (const size_t workers : worker_counts) {
    const RunResult result = RunWorkload(corpus.value(), work, workers,
                                         step_seconds, latency_ms, args.seed);
    if (workers == 1) throughput_1 = result.steps_per_second;
    if (workers == 4) throughput_4 = result.steps_per_second;
    table.AddNumericRow(std::to_string(workers),
                        {result.steps_per_second, result.sessions_per_second,
                         result.p50_ms, result.p99_ms,
                         static_cast<double>(result.sheds)},
                        2);
  }
  table.Print(std::cout);

  const double ratio = throughput_1 > 0.0 ? throughput_4 / throughput_1 : 0.0;
  std::cout << "# scaling 4w/1w = " << ratio << "x\n";
  PrintShapeCheck(ratio >= 3.0,
                  "4 workers deliver >= 3x the step throughput of 1 worker "
                  "(K workers multiplex M >> K think-time-bound sessions)");
  return ratio >= 3.0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace veritas

int main(int argc, char** argv) { return veritas::bench::Main(argc, argv); }
