// Pins the settable leaves of SessionSpec: every value a create frame or a
// checkpoint carries, by key path, in visit order. A knob added to any
// struct the spec holds fails this test until the list below is edited on
// purpose.

#include "service/session.h"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

namespace veritas {
namespace {

/// Visitor collecting the key path of every non-struct field.
class LeafPaths {
 public:
  template <typename T>
  void operator()(const char* key, const T& value) {
    const std::string path = prefix_.empty() ? key : prefix_ + "." + key;
    if constexpr (std::is_class_v<T>) {
      const std::string outer = prefix_;
      prefix_ = path;
      VisitFields(*this, value);
      prefix_ = outer;
    } else {
      paths.push_back(path);
    }
  }

  std::vector<std::string> paths;

 private:
  std::string prefix_;
};

std::vector<std::string> IcrfLeaves(const std::string& prefix) {
  std::vector<std::string> leaves;
  for (const char* leaf :
       {"crf.coupling", "gibbs.burn_in", "gibbs.num_samples",
        "hypothetical_gibbs.burn_in", "hypothetical_gibbs.num_samples",
        "max_em_iterations", "em_tolerance", "fit_weights", "backend"}) {
    leaves.push_back(prefix + ".icrf." + leaf);
  }
  return leaves;
}

TEST(SessionSpecTest, LeafSetIsPinned) {
  std::vector<std::string> expected = {
      "mode",
      "user.kind",
      "user.rate",
      "user.seed",
      "user.latency_ms",
      "streaming_label_interval",
  };
  for (const std::string& leaf : IcrfLeaves("validation")) {
    expected.push_back(leaf);
  }
  for (const char* leaf : {
           "validation.guidance.variant",
           "validation.guidance.candidate_pool",
           "validation.guidance.seed",
           "validation.guidance.fanout",
           "validation.guidance.fanout_burn_in",
           "validation.guidance.fanout_samples",
           "validation.strategy",
           "validation.budget",
           "validation.target_precision",
           "validation.batch_size",
           "validation.confirmation_interval",
           "validation.termination.enable_urr",
           "validation.termination.urr_threshold",
           "validation.termination.urr_patience",
           "validation.termination.enable_cng",
           "validation.termination.cng_threshold",
           "validation.termination.cng_patience",
           "validation.termination.enable_pre",
           "validation.termination.pre_streak",
           "validation.termination.enable_pir",
           "validation.termination.pir_threshold",
           "validation.termination.pir_folds",
           "validation.termination.pir_interval",
           "validation.termination.pir_patience",
           "validation.seed",
       }) {
    expected.push_back(leaf);
  }
  for (const std::string& leaf : IcrfLeaves("streaming")) {
    expected.push_back(leaf);
  }
  expected.push_back("streaming.tron_iterations_per_arrival");
  expected.push_back("streaming.seed");

  LeafPaths visitor;
  const SessionSpec spec;
  VisitFields(visitor, spec);
  ASSERT_EQ(expected.size(), 51u);
  EXPECT_EQ(visitor.paths, expected)
      << "The session spec's settable leaves changed. Each leaf is an "
         "option every create frame and checkpoint carries; add one only "
         "when two non-test callers need different values (the "
         "simplicity-review \"Options\" rule, CONTRIBUTING.md \"Adding a "
         "wire or option field\"), and make a value with one caller a "
         "named constant. A deliberate change edits this list and bumps "
         "kCheckpointVersion.";
}

}  // namespace
}  // namespace veritas
