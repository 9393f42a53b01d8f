#include "testing/reference_logistic.h"

#include <algorithm>
#include <cmath>

#include "common/math.h"

namespace veritas {
namespace testing {

void ReferenceLogisticObjective::AddExample(const std::vector<double>& features,
                                            double target, double weight) {
  for (size_t i = 0; i < dim_; ++i) {
    features_.push_back(i < features.size() ? features[i] : 0.0);
  }
  targets_.push_back(std::clamp(target, 0.0, 1.0));
  weights_.push_back(std::max(0.0, weight));
}

void ReferenceLogisticObjective::ClearExamples() {
  features_.clear();
  targets_.clear();
  weights_.clear();
}

double ReferenceLogisticObjective::Value(const std::vector<double>& w) const {
  double loss = 0.0;
  for (size_t i = 0; i < targets_.size(); ++i) {
    const double* row = &features_[i * dim_];
    double margin = 0.0;
    for (size_t j = 0; j < dim_; ++j) margin += row[j] * w[j];
    const double y = targets_[i];
    const double log_s = margin >= 0.0 ? -std::log1p(std::exp(-margin))
                                       : margin - std::log1p(std::exp(margin));
    const double log_1ms = log_s - margin;
    loss -= weights_[i] * (y * log_s + (1.0 - y) * log_1ms);
  }
  double reg = 0.0;
  for (double x : w) reg += x * x;
  return loss + 0.5 * l2_lambda_ * reg;
}

void ReferenceLogisticObjective::Gradient(const std::vector<double>& w,
                                          std::vector<double>* g) const {
  g->assign(dim_, 0.0);
  for (size_t i = 0; i < targets_.size(); ++i) {
    const double* row = &features_[i * dim_];
    double margin = 0.0;
    for (size_t j = 0; j < dim_; ++j) margin += row[j] * w[j];
    const double residual = weights_[i] * (Sigmoid(margin) - targets_[i]);
    for (size_t j = 0; j < dim_; ++j) (*g)[j] += residual * row[j];
  }
  for (size_t j = 0; j < dim_; ++j) (*g)[j] += l2_lambda_ * w[j];
}

void ReferenceLogisticObjective::HessianVectorProduct(
    const std::vector<double>& w, const std::vector<double>& v,
    std::vector<double>* hv) const {
  hv->assign(dim_, 0.0);
  for (size_t i = 0; i < targets_.size(); ++i) {
    const double* row = &features_[i * dim_];
    double margin = 0.0;
    double xv = 0.0;
    for (size_t j = 0; j < dim_; ++j) {
      margin += row[j] * w[j];
      xv += row[j] * v[j];
    }
    const double s = Sigmoid(margin);
    const double curvature = weights_[i] * s * (1.0 - s) * xv;
    for (size_t j = 0; j < dim_; ++j) (*hv)[j] += curvature * row[j];
  }
  for (size_t j = 0; j < dim_; ++j) (*hv)[j] += l2_lambda_ * v[j];
}

}  // namespace testing
}  // namespace veritas
