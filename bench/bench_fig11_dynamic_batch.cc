// Reproduces Fig. 11: label effort (box plots over runs) vs cost saving for
// batch sizes k in {1, 2, 5, 10, 20} when validating until a precision
// threshold (0.8 / 0.9) is reached, under the cost model alpha = 2/3.
// The trade-off suggests starting with small k and growing it as labels
// accumulate (the paper's dynamic-batch recommendation).

#include <cmath>

#include "bench/bench_common.h"
#include "common/stats.h"
#include "core/user_model.h"

namespace veritas {
namespace bench {
namespace {

double EffortToPrecision(const EmulatedCorpus& corpus, size_t batch_size,
                         double target, uint64_t seed) {
  OracleUser user;
  ValidationOptions options =
      BenchValidationOptions(StrategyKind::kInfoGain, seed);
  options.batch_size = batch_size;
  options.target_precision = target;
  options.budget = corpus.db.num_claims();
  ValidationProcess process(&corpus.db, &user, options);
  auto outcome = process.Run();
  if (!outcome.ok()) {
    std::cerr << "run failed: " << outcome.status() << "\n";
    std::exit(1);
  }
  return outcome.value().state.Effort();
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  const auto corpora = BenchCorpora(args);
  const std::vector<size_t> batch_sizes{1, 2, 5, 10, 20};
  const std::vector<double> targets{0.8, 0.9};
  const double alpha = 2.0 / 3.0;
  const size_t runs = std::max<size_t>(3, args.runs);

  // The claim the check prints: the largest k costs at least as much label
  // effort as k = 1, in the median, on every corpus and target.
  bool effort_grows_with_k = true;
  for (const EmulatedCorpus& corpus : corpora) {
    std::cout << "Fig. 11 - Label effort vs cost saving (" << corpus.name
              << ", alpha=2/3, " << runs << " runs)\n";
    TextTable table;
    table.SetHeader({"k", "cost saving", "target", "min", "q1", "median", "q3",
                     "max"});
    std::vector<double> median_at_k1(targets.size(), 0.0);
    for (const size_t k : batch_sizes) {
      const double saving = 1.0 - 1.0 / std::pow(static_cast<double>(k), alpha);
      for (size_t t = 0; t < targets.size(); ++t) {
        const double target = targets[t];
        std::vector<double> efforts;
        for (size_t run = 0; run < runs; ++run) {
          efforts.push_back(
              EffortToPrecision(corpus, k, target, args.seed + 997 * run));
        }
        const BoxStats box = ComputeBoxStats(efforts);
        if (k == batch_sizes.front()) median_at_k1[t] = box.median;
        if (k == batch_sizes.back() && box.median < median_at_k1[t]) {
          effort_grows_with_k = false;
        }
        table.AddRow({std::to_string(k), FormatPercent(saving, 1),
                      FormatDouble(target, 1), FormatPercent(box.min, 0),
                      FormatPercent(box.q1, 0), FormatPercent(box.median, 0),
                      FormatPercent(box.q3, 0), FormatPercent(box.max, 0)});
      }
    }
    table.Print(std::cout);
    std::cout << "\n";
  }
  PrintShapeCheck(effort_grows_with_k,
                  "higher k trades extra label effort for set-up cost savings: "
                  "median effort at k=20 >= k=1 on every corpus and target "
                  "(paper: start small, grow k as claims accumulate)");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace veritas

int main(int argc, char** argv) { return veritas::bench::Main(argc, argv); }
