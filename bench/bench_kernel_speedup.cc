// Guidance-step latency of the hardware-fast inference kernels against the
// committed reference path, on the Fig. 2 corpora (DESIGN.md §12).
//
//   reference  per-candidate fan-out (independent restricted Gibbs runs per
//              (candidate, branch)) + sequential-Gibbs E-step
//   fast       batched fan-out (shared base resample + per-candidate label
//              overlays, incremental IG_S entropy) + chromatic counter-based
//              E-step with Rao-Blackwellized marginals
//
// The fast arm runs fewer E-step sweeps because Rao-Blackwellized marginals
// average the exact conditional instead of a ±1 draw, so each retained sweep
// carries far less variance; the precision columns keep that trade honest.
// scripts/bench_report.sh parses the "# kernel" footers into the
// kernel_speedup section of BENCH_guidance.json. The speed gate (>= 5x) and
// the precision gate (fast within 0.05 of the reference on every dataset)
// print separate footers, because only the speed gate depends on the host's
// core count.

#include <cmath>

#include "bench/bench_common.h"
#include "core/user_model.h"

namespace veritas {
namespace bench {
namespace {

struct ArmResult {
  double ms_per_step = 0.0;
  double final_precision = 0.0;
};

ArmResult RunArm(const EmulatedCorpus& corpus, bool fast, size_t iterations,
                 uint64_t seed, size_t reps) {
  ValidationOptions options = BenchValidationOptions(StrategyKind::kHybrid, seed);
  options.budget = iterations;
  if (fast) {
    options.guidance.fanout = FanoutKernel::kBatched;
    // Overlays start from the shared base chain, already near equilibrium;
    // only the flipped candidate label has to re-mix, and the worker scores
    // with Rao-Blackwellized conditionals, so a short schedule suffices.
    options.guidance.fanout_burn_in = 1;
    options.guidance.fanout_samples = 5;
    options.icrf.backend = CrfBackend::kChromatic;
    options.icrf.gibbs.burn_in = 5;
    options.icrf.gibbs.num_samples = 12;
  } else {
    options.guidance.fanout = FanoutKernel::kPerCandidate;
  }
  // The trace (and so the precision) is deterministic given the seed; only
  // the wall time varies. Keep the min across reps: scheduling noise can
  // only inflate a measurement, never deflate it.
  ArmResult result;
  for (size_t rep = 0; rep < reps; ++rep) {
    OracleUser user;
    ValidationProcess process(&corpus.db, &user, options);
    auto outcome = process.Run();
    if (!outcome.ok()) {
      std::cerr << "run failed: " << outcome.status() << "\n";
      std::exit(1);
    }
    const auto& trace = outcome.value().trace;
    if (trace.empty()) return result;
    double total = 0.0;
    for (const IterationRecord& record : trace) total += record.seconds;
    const double ms = 1e3 * total / static_cast<double>(trace.size());
    if (rep == 0 || ms < result.ms_per_step) result.ms_per_step = ms;
    result.final_precision = trace.back().precision;
  }
  return result;
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  const auto corpora = BenchCorpora(args);
  const size_t iterations = 6;
  const size_t reps = args.runs < 3 ? 3 : args.runs;

  std::cout << "Kernel speedup - guidance-step latency, reference vs fast "
            << "kernels (ms/step)\n";
  TextTable table;
  table.SetHeader({"dataset", "reference", "fast", "speedup", "ref_prec",
                   "fast_prec"});
  double log_speedup_sum = 0.0;
  double min_speedup = 0.0;
  bool precision_holds = true;
  for (const EmulatedCorpus& corpus : corpora) {
    const ArmResult reference =
        RunArm(corpus, false, iterations, args.seed, reps);
    const ArmResult fast = RunArm(corpus, true, iterations, args.seed, reps);
    const double speedup =
        fast.ms_per_step > 0.0 ? reference.ms_per_step / fast.ms_per_step : 0.0;
    table.AddNumericRow(corpus.name,
                        {reference.ms_per_step, fast.ms_per_step, speedup,
                         reference.final_precision, fast.final_precision},
                        3);
    log_speedup_sum += std::log(speedup > 0.0 ? speedup : 1e-300);
    if (min_speedup == 0.0 || speedup < min_speedup) min_speedup = speedup;
    // The fast arm must stay within noise of the reference precision; a
    // kernel that wins latency by degrading the grounding would be cheating.
    if (fast.final_precision + 0.05 < reference.final_precision) {
      precision_holds = false;
    }
    std::cout << "# kernel " << corpus.name << "_speedup = " << speedup << "\n";
  }
  table.Print(std::cout);
  const double geomean =
      corpora.empty()
          ? 0.0
          : std::exp(log_speedup_sum / static_cast<double>(corpora.size()));
  const bool speed_holds = geomean >= 5.0;
  std::cout << "# kernel speedup = " << geomean << "\n";
  std::cout << "# kernel min_speedup = " << min_speedup << "\n";
  std::cout << "# kernel speed_holds = " << (speed_holds ? 1 : 0) << "\n";
  std::cout << "# kernel precision_holds = " << (precision_holds ? 1 : 0)
            << "\n";
  PrintShapeCheck(speed_holds && precision_holds,
                  "batched fan-out + chromatic E-step is >= 5x faster per "
                  "guidance step without losing precision");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace veritas

int main(int argc, char** argv) { return veritas::bench::Main(argc, argv); }
