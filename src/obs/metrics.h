/// \file
/// Always-on serving metrics (DESIGN.md §14): a dependency-free
/// MetricsRegistry of monotonic counters, gauges and log-bucketed latency
/// histograms, built so the hot path can record without ever taking a lock
/// or waiting on another thread. Instrument handles (Counter/Gauge/
/// Histogram) are registered once — a mutex-guarded name lookup — and
/// cached by the instrumented component; recording through a handle is a
/// single relaxed fetch_add on a sharded atomic, striped by thread so
/// concurrent recorders do not bounce one cacheline between cores.
///
/// Snapshot() is safe against concurrent writers (every cell is an atomic;
/// a snapshot may straddle in-flight recordings but never tears a value)
/// and reports, per histogram, the exact [lower, upper) bound of every
/// bucket — so any quantile is answerable to within its bucket's bounds.
///
/// Naming: keys are Prometheus-style metric names, optionally with a
/// rendered label set — `veritas_crf_sweep_seconds{backend="gibbs"}`. The
/// exposition endpoint (obs/exposition.h) and the `metrics` wire method
/// (api/wire.h) both serve MetricsSnapshot verbatim.
///
/// Cost gate: recording must stay under 1% of step throughput —
/// `bench_service_throughput --metrics-overhead` measures enabled vs
/// disabled arms and scripts/bench_report.sh fails the report above 1%.
/// set_enabled(false) turns every handle into a single relaxed load + a
/// not-taken branch, the compiled-out stand-in the bench compares against.

#ifndef VERITAS_OBS_METRICS_H_
#define VERITAS_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/fields.h"

namespace veritas {

/// One histogram, frozen: `upper_bounds[i]` is the inclusive upper edge of
/// bucket i (the lower edge is the previous bound, 0 for the first; the
/// last bound is +infinity). `counts[i]` are per-bucket (NOT cumulative —
/// the Prometheus renderer accumulates). `sum` is the total of recorded
/// values, `count` their number.
struct HistogramSnapshot {
  std::vector<double> upper_bounds;
  std::vector<uint64_t> counts;
  double sum = 0.0;
  uint64_t count = 0;

  /// The exact upper bound of the bucket containing the q-quantile
  /// (q in [0,1]); 0 when the histogram is empty. The true quantile lies
  /// within that bucket's [lower, upper) bounds — the "exact quantile
  /// bounds" contract of the log-bucket scheme.
  double QuantileUpperBound(double q) const;
};

/// A full registry snapshot, keyed by metric name (+ rendered labels).
/// Serializable over the wire (api/codec.cc) and mergeable across fleet
/// members (the router's `metrics` aggregation).
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

template <typename V, typename S>
FieldsOf<S, MetricsSnapshot> VisitFields(V& v, S& snapshot) {
  v("counters", snapshot.counters);
  v("gauges", snapshot.gauges);
  v("histograms", snapshot.histograms);
}

/// Adds `from` into `into`: counters and gauges sum; histograms add
/// bucketwise (bucket layouts are identical across builds of one version;
/// a mismatched layout is kept from the first contributor).
void MergeSnapshot(MetricsSnapshot* into, const MetricsSnapshot& from);

/// Renders `name{key="value"}` — the label-carrying registry key.
std::string WithLabel(const std::string& name, const std::string& key,
                      const std::string& value);

class MetricsRegistry {
 public:
  /// Stripes per handle. Each recording thread sticks to one stripe, so up
  /// to kShards recorders proceed with zero cacheline contention.
  static constexpr size_t kShards = 8;

  /// Log-bucket scheme: bucket i spans (kFirstBound*2^(i-1), kFirstBound*2^i]
  /// with bucket 0 = (0, kFirstBound]; the last bucket is the +inf
  /// overflow. 1 µs .. ~274 s in factor-of-two steps — latency resolution
  /// proportional to magnitude, which is what quantile reporting needs.
  static constexpr double kFirstBound = 1e-6;
  static constexpr size_t kFiniteBuckets = 28;
  static constexpr size_t kNumBuckets = kFiniteBuckets + 1;  // + overflow

  /// Monotonic counter. Increment is wait-free (one relaxed fetch_add).
  class Counter {
   public:
    void Increment(uint64_t delta = 1);
    uint64_t Value() const;

   private:
    friend class MetricsRegistry;
    explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
    struct alignas(64) Shard {
      std::atomic<uint64_t> value{0};
    };
    const std::atomic<bool>* enabled_;
    Shard shards_[kShards];
  };

  /// Last-writer-wins level (resident bytes, live sessions, ...).
  class Gauge {
   public:
    void Set(int64_t value);
    void Add(int64_t delta);
    int64_t Value() const;

   private:
    friend class MetricsRegistry;
    explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
    const std::atomic<bool>* enabled_;
    std::atomic<int64_t> value_{0};
  };

  /// Log-bucketed latency histogram (values in seconds). Record is
  /// wait-free: bucket index from frexp, then two relaxed fetch_adds on
  /// the caller's stripe (bucket count + nanosecond sum).
  class Histogram {
   public:
    void Record(double value);
    HistogramSnapshot Snapshot() const;

   private:
    friend class MetricsRegistry;
    explicit Histogram(const std::atomic<bool>* enabled) : enabled_(enabled) {}
    struct alignas(64) Shard {
      std::atomic<uint64_t> buckets[kNumBuckets] = {};
      std::atomic<uint64_t> sum_nanos{0};
    };
    const std::atomic<bool>* enabled_;
    Shard shards_[kShards];
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds) a handle. Mutex-guarded — call once at component
  /// init and cache the pointer; the handle lives as long as the registry.
  /// A name registered as one kind stays that kind (re-registration under
  /// a different kind returns the existing handle's family's slot — callers
  /// use distinct names per kind by convention).
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Runtime kill-switch: disabled handles cost one relaxed load + an
  /// untaken branch. The overhead bench's "compiled-out" arm.
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Consistent-enough snapshot under concurrent writers: atomically read
  /// cell by cell; never torn, possibly mid-burst.
  MetricsSnapshot Snapshot() const;

 private:
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry every serving layer records into; the
/// exposition endpoint and the `metrics` wire method serve its snapshot.
MetricsRegistry& GlobalMetrics();

/// Records elapsed seconds into a histogram at scope exit (null = no-op).
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(MetricsRegistry::Histogram* histogram);
  ~ScopedLatencyTimer();

  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  MetricsRegistry::Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace veritas

#endif  // VERITAS_OBS_METRICS_H_
