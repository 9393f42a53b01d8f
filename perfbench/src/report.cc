#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>

namespace perfbench {

using veritas::ApiMethod;

void MetricList::Add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void MetricList::AddPercentile(std::string name, const Samples& samples,
                               double q, std::string unit,
                               bool absent_if_unsupported) {
  double value = Percentile(samples, q);
  if (!PercentileSupported(q, samples.count())) {
    unsupported_.push_back(name);
    if (absent_if_unsupported) value = 0.0;
  }
  Add(std::move(name), value, std::move(unit));
}

namespace {

/// Sum and count a histogram family gained between two snapshots; a name
/// without labels also matches its labelled keys (name{...}).
struct HistogramDelta {
  double sum = 0.0;
  double count = 0.0;
  double Mean() const { return count > 0 ? sum / count : 0.0; }
};

HistogramDelta HistogramGain(const veritas::MetricsSnapshot& before,
                             const veritas::MetricsSnapshot& after,
                             const std::string& family) {
  HistogramDelta delta;
  for (const auto& [name, hist] : after.histograms) {
    if (name != family && name.rfind(family + "{", 0) != 0) continue;
    delta.sum += hist.sum;
    delta.count += static_cast<double>(hist.count);
    auto it = before.histograms.find(name);
    if (it != before.histograms.end()) {
      delta.sum -= it->second.sum;
      delta.count -= static_cast<double>(it->second.count);
    }
  }
  return delta;
}

double CounterGain(const veritas::MetricsSnapshot& before,
                   const veritas::MetricsSnapshot& after,
                   const std::string& name) {
  const auto value = [&name](const veritas::MetricsSnapshot& snapshot) {
    auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0.0
                                         : static_cast<double>(it->second);
  };
  return value(after) - value(before);
}

double Seconds(int64_t nanos) { return static_cast<double>(nanos) * 1e-9; }

bool IsStep(ApiMethod method) {
  return method == ApiMethod::kAdvance || method == ApiMethod::kAnswer;
}

/// Client calls joined to the router and backend spans that served them.
/// Router checkpoints carry no trace id; each is joined to the step (or
/// create) that triggered it: same backend and backend session, inside
/// that request's router span.
class SpanJoin {
 public:
  explicit SpanJoin(const TracedRun& run) {
    for (const RouterSpan& span : run.router) {
      if (!span.trace_id.empty()) router_[span.trace_id] = &span;
    }
    for (const BackendSpan& span : run.backend) {
      if (!span.trace_id.empty()) {
        backend_[span.trace_id].push_back(&span);
      } else if (span.decoded && span.method == ApiMethod::kCheckpoint) {
        checkpoints_[{span.backend, span.session}].push_back(&span);
      }
    }
    for (auto& [key, spans] : checkpoints_) {
      std::sort(spans.begin(), spans.end(),
                [](const BackendSpan* a, const BackendSpan* b) {
                  return a->start_ns < b->start_ns;
                });
    }
  }

  const RouterSpan* RouterOf(const std::string& trace_id) const {
    auto it = router_.find(trace_id);
    return it == router_.end() ? nullptr : it->second;
  }

  /// The backend frames a router span waited on: the traced request's own
  /// frame(s) and the checkpoints that followed them.
  std::vector<const BackendSpan*> BackendOf(const std::string& trace_id,
                                            const RouterSpan& router) const {
    std::vector<const BackendSpan*> frames;
    auto it = backend_.find(trace_id);
    if (it == backend_.end()) return frames;
    for (const BackendSpan* frame : it->second) {
      frames.push_back(frame);
      auto ck = checkpoints_.find({frame->backend, frame->session});
      if (ck == checkpoints_.end()) continue;
      for (const BackendSpan* checkpoint : ck->second) {
        if (checkpoint->start_ns >= frame->end_ns &&
            checkpoint->end_ns <= router.end_ns) {
          frames.push_back(checkpoint);
          break;
        }
      }
    }
    return frames;
  }

 private:
  std::unordered_map<std::string, const RouterSpan*> router_;
  std::unordered_map<std::string, std::vector<const BackendSpan*>> backend_;
  std::map<std::pair<size_t, SessionId>, std::vector<const BackendSpan*>>
      checkpoints_;
};

}  // namespace

MetricList LayerMetrics(const TracedRun& run) {
  MetricList out;
  const SpanJoin join(run);
  const Window& window = run.window;

  // ---- client calls, the hops between the boundaries, the ledger ----------
  Samples client_ms[kNumMethods];
  Samples router_ms[kNumMethods];
  Samples client_hop_us, backend_hop_us;
  double client_total = 0.0, client_hop = 0.0, router_hop = 0.0,
         codec = 0.0, direct_dispatch = 0.0;
  for (const ClientSpan& call : run.client) {
    if (!window.Contains(call.start_ns, call.end_ns)) continue;
    if (!call.ok) {
      client_ms[call.method].AddFailure();
      continue;
    }
    const int64_t c = call.end_ns - call.start_ns;
    client_ms[call.method].Add(static_cast<double>(c) * 1e-6);
    client_total += Seconds(c);
    const RouterSpan* router = join.RouterOf(call.trace_id);
    if (router == nullptr) continue;
    const int64_t r = router->end_ns - router->start_ns;
    router_ms[call.method].Add(static_cast<double>(r) * 1e-6);
    client_hop_us.Add(static_cast<double>(c - r) * 1e-3);
    client_hop += Seconds(c - r);
    const auto frames = join.BackendOf(call.trace_id, *router);
    if (frames.empty()) continue;
    int64_t b = 0;
    for (const BackendSpan* frame : frames) {
      b += frame->end_ns - frame->start_ns;
      codec += Seconds(frame->decode_ns + frame->encode_ns);
      // Frames GuidanceApi serves without the RequestQueue.
      if (frame->method == ApiMethod::kCreateSession ||
          frame->method == ApiMethod::kCheckpoint) {
        direct_dispatch += Seconds(frame->handle_ns);
      }
    }
    backend_hop_us.Add(static_cast<double>(r - b) * 1e-3 /
                       static_cast<double>(frames.size()));
    router_hop += Seconds(r - b);
  }
  for (Method m : {kCreate, kAdvance, kAnswer, kTerminate}) {
    out.AddPercentile(std::string("api.client.") + MethodName(m) + "_ms_p50",
                      client_ms[m], 0.5, "ms", true);
  }
  out.AddPercentile("api.client.advance_ms_p99", client_ms[kAdvance], 0.99,
                    "ms", true);
  out.AddPercentile("api.client.answer_ms_p99", client_ms[kAnswer], 0.99, "ms",
                    true);

  // ---- backend frames: codec and dispatch ---------------------------------
  std::vector<double> create_decode_ms, create_bytes, step_decode_us,
      step_encode_us, step_response_bytes;
  std::map<ApiMethod, Samples> dispatch_ms;
  std::vector<double> frames_per_backend(run.counters_after.queues.size(), 0.0);
  for (const BackendSpan& frame : run.backend) {
    if (!frame.decoded || !window.Contains(frame.start_ns, frame.end_ns)) {
      continue;
    }
    dispatch_ms[frame.method].Add(static_cast<double>(frame.handle_ns) * 1e-6);
    if (frame.backend < frames_per_backend.size() && !frame.trace_id.empty()) {
      frames_per_backend[frame.backend] += 1.0;
    }
    if (frame.method == ApiMethod::kCreateSession) {
      create_decode_ms.push_back(static_cast<double>(frame.decode_ns) * 1e-6);
      create_bytes.push_back(static_cast<double>(frame.request_bytes));
    } else if (IsStep(frame.method)) {
      step_decode_us.push_back(static_cast<double>(frame.decode_ns) * 1e-3);
      step_encode_us.push_back(static_cast<double>(frame.encode_ns) * 1e-3);
      step_response_bytes.push_back(static_cast<double>(frame.response_bytes));
    }
  }
  out.Add("api.codec.create_decode_ms_mean", Mean(create_decode_ms), "ms");
  out.Add("api.codec.create_bytes_mean", Mean(create_bytes), "bytes");
  out.Add("api.codec.step_decode_us_mean", Mean(step_decode_us), "us");
  out.Add("api.codec.step_encode_us_mean", Mean(step_encode_us), "us");
  out.Add("api.codec.step_response_bytes_mean", Mean(step_response_bytes),
          "bytes");
  out.AddPercentile("api.transport.client_hop_us_p50", client_hop_us, 0.5,
                    "us", true);
  out.AddPercentile("api.transport.backend_hop_us_p50", backend_hop_us, 0.5,
                    "us", true);
  const std::pair<const char*, ApiMethod> dispatched[] = {
      {"create", ApiMethod::kCreateSession},
      {"advance", ApiMethod::kAdvance},
      {"answer", ApiMethod::kAnswer},
      {"checkpoint", ApiMethod::kCheckpoint},
      {"terminate", ApiMethod::kTerminate}};
  for (const auto& [name, method] : dispatched) {
    out.AddPercentile(std::string("api.dispatch.") + name + "_ms_p50",
                      dispatch_ms[method], 0.5, "ms", true);
  }

  // ---- fleet ---------------------------------------------------------------
  for (Method m : {kCreate, kAdvance, kAnswer}) {
    out.AddPercentile(std::string("fleet.router.") + MethodName(m) + "_ms_p50",
                      router_ms[m], 0.5, "ms", true);
  }
  out.Add("fleet.router.checkpoints",
          static_cast<double>(run.counters_after.router.checkpoints -
                              run.counters_before.router.checkpoints),
          "count");
  const double load_mean = Mean(frames_per_backend);
  out.Add("fleet.router.backend_load_max_over_mean",
          load_mean > 0 ? *std::max_element(frames_per_backend.begin(),
                                            frames_per_backend.end()) /
                              load_mean
                        : 0.0,
          "ratio");

  // ---- service -------------------------------------------------------------
  const auto& mb = run.metrics_before;
  const auto& ma = run.metrics_after;
  const HistogramDelta wait = HistogramGain(mb, ma, "veritas_queue_wait_seconds");
  const HistogramDelta service =
      HistogramGain(mb, ma, "veritas_queue_service_seconds");
  out.Add("service.queue.wait_ms_mean", wait.Mean() * 1e3, "ms");
  out.Add("service.queue.service_ms_mean", service.Mean() * 1e3, "ms");
  double peak_depth = 0.0, rejected = 0.0;
  for (size_t b = 0; b < run.counters_after.queues.size(); ++b) {
    peak_depth = std::max(
        peak_depth, static_cast<double>(run.counters_after.queues[b].peak_depth));
    rejected += static_cast<double>(run.counters_after.queues[b].rejected -
                                    run.counters_before.queues[b].rejected);
  }
  out.Add("service.queue.peak_depth", peak_depth, "count");
  out.Add("service.queue.rejected", rejected, "count");

  out.Add("service.checkpoint.saves",
          CounterGain(mb, ma, "veritas_checkpoint_saves_total"), "count");
  out.Add("service.checkpoint.loads",
          CounterGain(mb, ma, "veritas_checkpoint_loads_total"), "count");
  out.Add("service.checkpoint.save_ms_mean",
          HistogramGain(mb, ma, "veritas_checkpoint_save_seconds").Mean() * 1e3,
          "ms");
  out.Add("service.checkpoint.load_ms_mean",
          HistogramGain(mb, ma, "veritas_checkpoint_load_seconds").Mean() * 1e3,
          "ms");
  out.Add("service.checkpoint.bytes_mean",
          HistogramGain(mb, ma, "veritas_checkpoint_bytes").Mean(), "bytes");

  double evictions = 0.0, spill_restores = 0.0, peak_resident = 0.0;
  for (size_t b = 0; b < run.counters_after.managers.size(); ++b) {
    const auto& after = run.counters_after.managers[b];
    const auto& before = run.counters_before.managers[b];
    evictions += static_cast<double>(after.evictions - before.evictions);
    spill_restores +=
        static_cast<double>(after.spill_restores - before.spill_restores);
    peak_resident += static_cast<double>(after.peak_resident_bytes);
  }
  out.Add("service.sessions.evictions", evictions, "count");
  out.Add("service.sessions.spill_restores", spill_restores, "count");
  out.Add("service.sessions.peak_resident_mb", peak_resident * 1e-6, "MB");

  // ---- core and crf, from the in-process profile ---------------------------
  const LocalEndpoint& local = *run.local;
  const bool batch = run.mode == Mode::kBatch;
  const Samples none;
  out.AddPercentile("core.validation.initialize_ms_p50",
                    batch ? local.first_advance_ms : none, 0.5, "ms", true);
  out.AddPercentile("core.validation.plan_ms_p50",
                    batch ? local.advance_ms : none, 0.5, "ms", true);
  out.AddPercentile("core.validation.plan_ms_p99",
                    batch ? local.advance_ms : none, 0.99, "ms", true);
  out.AddPercentile("core.validation.complete_ms_p50",
                    batch ? local.answer_ms : none, 0.5, "ms", true);
  out.AddPercentile("core.validation.complete_ms_p99",
                    batch ? local.answer_ms : none, 0.99, "ms", true);
  out.AddPercentile("core.streaming.arrival_ms_p50",
                    batch ? none : local.advance_ms, 0.5, "ms", true);
  out.AddPercentile("core.streaming.label_ms_p50",
                    batch ? none : local.answer_ms, 0.5, "ms", true);
  const HistogramDelta sweeps = HistogramGain(
      run.local_before, run.local_after, "veritas_crf_sweep_seconds");
  out.Add("crf.sweeps", sweeps.count, "count");
  out.Add("crf.sweep_ms_mean", sweeps.Mean() * 1e3, "ms");
  out.Add("crf.sweep_share_of_complete",
          local.answer_seconds > 0
              ? local.sweep_seconds_in_answers / local.answer_seconds
              : 0.0,
          "fraction");

  // ---- the ledger: each layer's self time over the traced window ----------
  // Every term is read at its own boundary. What no boundary covers is the
  // part of GuidanceApi::Handle around the queue (request hand-off, future
  // wake-up) plus any call whose spans did not join.
  const double crf_wire =
      HistogramGain(mb, ma, "veritas_crf_sweep_seconds").sum;
  const double api_self = client_hop + codec;
  const double fleet_self = router_hop;
  const double service_self =
      wait.sum + service.sum - crf_wire + direct_dispatch;
  const double unattributed =
      client_total - api_self - fleet_self - service_self - crf_wire;
  out.Add("trace.overhead_pct",
          run.untraced_turns_per_s > 0
              ? 100.0 * (run.untraced_turns_per_s - run.traced_turns_per_s) /
                    run.untraced_turns_per_s
              : 0.0,
          "%");
  out.Add("trace.unattributed_pct",
          client_total > 0 ? 100.0 * unattributed / client_total : 0.0, "%");
  out.Add("ledger.client_s", client_total, "s");
  out.Add("ledger.api_self_s", api_self, "s");
  out.Add("ledger.fleet_self_s", fleet_self, "s");
  out.Add("ledger.service_self_s", service_self, "s");
  out.Add("ledger.crf_self_s", crf_wire, "s");
  out.Add("ledger.unattributed_s", unattributed, "s");
  return out;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib * 1024.0 * 1e-6;
    }
  }
  return 0.0;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const unsigned char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += static_cast<char>(ch);
    } else if (ch < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", ch);
      out += escaped;
    } else {
      out += static_cast<char>(ch);
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (std::isnan(value)) value = 0.0;
  if (std::isinf(value)) value = value > 0 ? 1e300 : -1e300;
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const MetricList& metrics, const std::string& meta_json) {
  for (const Metric& metric : metrics.metrics()) {
    std::printf("%-44s %14.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("{\"meta\": %s}\n", meta_json.c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics.metrics()) {
    if (!first) json += ", ";
    first = false;
    json += JsonString(metric.name) + ": {\"value\": " +
            JsonNumber(metric.value) + ", \"unit\": " +
            JsonString(metric.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
