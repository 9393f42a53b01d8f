#ifndef VERITAS_TESTS_SERVICE_SERVICE_FIXTURES_H_
#define VERITAS_TESTS_SERVICE_SERVICE_FIXTURES_H_

#include <string>

#include "service/session.h"
#include "testing/corpus_fixtures.h"

namespace veritas {
namespace testing {

/// Validation options tuned for fast-but-nontrivial service tests: cheap
/// Gibbs, serial guidance (steps do not borrow the compute pool), small
/// candidate pool.
inline ValidationOptions FastValidationOptions(uint64_t seed = 42) {
  ValidationOptions options;
  options.icrf.gibbs = GibbsOptions{5, 12};
  options.icrf.hypothetical_gibbs = GibbsOptions{4, 8};
  options.icrf.max_em_iterations = 2;
  options.guidance.variant = GuidanceVariant::kScalable;
  options.guidance.candidate_pool = 8;
  options.guidance.seed = seed ^ 0x9e37;
  options.seed = seed;
  return options;
}

/// Batch-mode spec: oracle validator, `budget` validations.
inline SessionSpec BatchSpec(uint64_t seed = 42, size_t budget = 4) {
  SessionSpec spec;
  spec.mode = SessionMode::kBatch;
  spec.validation = FastValidationOptions(seed);
  spec.validation.budget = budget;
  spec.user.kind = UserSpec::Kind::kOracle;
  return spec;
}

/// Streaming-mode spec: labels every `label_interval`-th arrival.
inline SessionSpec StreamingSpec(uint64_t seed = 99, size_t label_interval = 3) {
  SessionSpec spec;
  spec.mode = SessionMode::kStreaming;
  spec.streaming.icrf.gibbs = GibbsOptions{5, 12};
  spec.streaming.icrf.max_em_iterations = 2;
  spec.streaming.tron_iterations_per_arrival = 3;
  spec.streaming.seed = seed;
  spec.streaming_label_interval = label_interval;
  spec.user.kind = UserSpec::Kind::kOracle;
  return spec;
}

}  // namespace testing
}  // namespace veritas

#endif  // VERITAS_TESTS_SERVICE_SERVICE_FIXTURES_H_
