// Straight-line reference for the M-step objective (DESIGN.md §12, "M-step
// kernel"): every Value/Gradient/HessianVectorProduct call recomputes each
// example's margin and sigmoid from scratch. This is the logistic kernel as
// it stood before optim/logistic.h gained its per-weight-vector cache, kept
// only as a test oracle: the cached kernel must match it bit for bit.

#ifndef VERITAS_TESTS_TESTING_REFERENCE_LOGISTIC_H_
#define VERITAS_TESTS_TESTING_REFERENCE_LOGISTIC_H_

#include <vector>

#include "optim/objective.h"

namespace veritas {
namespace testing {

class ReferenceLogisticObjective : public DifferentiableObjective {
 public:
  ReferenceLogisticObjective(size_t dim, double l2_lambda)
      : dim_(dim), l2_lambda_(l2_lambda) {}

  /// Same clamping and zero-padding contract as LogisticObjective.
  void AddExample(const std::vector<double>& features, double target,
                  double weight = 1.0);
  void ClearExamples();

  size_t dim() const override { return dim_; }
  double Value(const std::vector<double>& w) const override;
  void Gradient(const std::vector<double>& w, std::vector<double>* g) const override;
  void HessianVectorProduct(const std::vector<double>& w,
                            const std::vector<double>& v,
                            std::vector<double>* hv) const override;

 private:
  size_t dim_;
  double l2_lambda_;
  std::vector<double> features_;  // row-major, num_examples x dim
  std::vector<double> targets_;
  std::vector<double> weights_;
};

}  // namespace testing
}  // namespace veritas

#endif  // VERITAS_TESTS_TESTING_REFERENCE_LOGISTIC_H_
