#include "optim/logistic.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

namespace veritas {

namespace {

// The row kernels work on K consecutive rows at once so that K independent
// dot-product chains overlap in the pipeline. Each row's dot product still
// accumulates in index order from +0.0, and each output coordinate still
// receives the rows' contributions one at a time in row order, so every
// result has the bits of a one-row-at-a-time loop.
constexpr size_t kRowBlock = 4;

/// out[k] = row_k . v for the K rows starting at `rows`.
template <size_t K>
void DotRows(const double* rows, size_t dim, const double* v, double* out) {
  double acc[K] = {};
  for (size_t j = 0; j < dim; ++j) {
    for (size_t k = 0; k < K; ++k) acc[k] += rows[k * dim + j] * v[j];
  }
  for (size_t k = 0; k < K; ++k) out[k] = acc[k];
}

/// acc[j] += scale[k] * row_k[j] for k = 0..K-1, one addition at a time.
template <size_t K>
void AddScaledRows(const double* rows, size_t dim, const double* scale,
                   double* acc) {
  for (size_t j = 0; j < dim; ++j) {
    double sum = acc[j];
    for (size_t k = 0; k < K; ++k) sum += scale[k] * rows[k * dim + j];
    acc[j] = sum;
  }
}

/// Calls body(first_row, block) over rows [0, n): whole blocks of kRowBlock
/// rows, then the rest one at a time. `block` is a std::integral_constant
/// holding the block's row count.
template <typename Body>
void ForEachRowBlock(size_t n, Body&& body) {
  size_t i = 0;
  for (; i + kRowBlock <= n; i += kRowBlock) {
    body(i, std::integral_constant<size_t, kRowBlock>());
  }
  for (; i < n; ++i) body(i, std::integral_constant<size_t, 1>());
}

}  // namespace

LogisticObjective::LogisticObjective(size_t dim, double l2_lambda)
    : dim_(dim), l2_lambda_(l2_lambda) {}

void LogisticObjective::Reserve(size_t examples) {
  features_.reserve(examples * dim_);
  targets_.reserve(examples);
  weights_.reserve(examples);
}

void LogisticObjective::AddExample(const std::vector<double>& features,
                                   double target, double weight) {
  const size_t given = std::min(dim_, features.size());
  features_.insert(features_.end(), features.begin(),
                   features.begin() + static_cast<std::ptrdiff_t>(given));
  features_.resize(features_.size() + (dim_ - given), 0.0);
  targets_.push_back(std::clamp(target, 0.0, 1.0));
  weights_.push_back(std::max(0.0, weight));
  cache_valid_ = false;
}

void LogisticObjective::ClearExamples() {
  features_.clear();
  targets_.clear();
  weights_.clear();
  cache_valid_ = false;
}

void LogisticObjective::EvaluateAt(const std::vector<double>& w) const {
  // Bitwise, not ==: -0.0 == +0.0 and NaN != NaN, and the cache promises
  // exactly what a fresh evaluation at these bits would produce.
  if (cache_valid_ && cached_w_.size() == w.size() &&
      (w.empty() || std::memcmp(cached_w_.data(), w.data(),
                                w.size() * sizeof(double)) == 0)) {
    return;
  }
  const size_t n = targets_.size();
  margins_.resize(n);
  exps_.resize(n);
  sigmoids_.resize(n);
  curvatures_.resize(n);
  ForEachRowBlock(n, [&](size_t i, auto block) {
    constexpr size_t K = decltype(block)::value;
    DotRows<K>(features_.data() + i * dim_, dim_, w.data(), &margins_[i]);
  });
  for (size_t i = 0; i < n; ++i) {
    // Sigmoid() of common/math.h, expression for expression; its exponential
    // is kept because Value's log(1 + e^{-|m|}) needs the same one.
    const double m = margins_[i];
    const double z = std::exp(m >= 0.0 ? -m : m);
    const double s = m >= 0.0 ? 1.0 / (1.0 + z) : z / (1.0 + z);
    exps_[i] = z;
    sigmoids_[i] = s;
    curvatures_[i] = weights_[i] * s * (1.0 - s);
  }
  cached_w_ = w;
  cache_valid_ = true;
}

double LogisticObjective::Value(const std::vector<double>& w) const {
  EvaluateAt(w);
  double loss = 0.0;
  for (size_t i = 0; i < targets_.size(); ++i) {
    const double margin = margins_[i];
    // -y log s - (1-y) log(1-s) written stably via log(1 + e^{-|m|}) forms.
    const double y = targets_[i];
    const double log_s = margin >= 0.0 ? -std::log1p(exps_[i])
                                       : margin - std::log1p(exps_[i]);
    const double log_1ms = log_s - margin;  // log(1-s) = log s - m
    loss -= weights_[i] * (y * log_s + (1.0 - y) * log_1ms);
  }
  double reg = 0.0;
  for (double x : w) reg += x * x;
  return loss + 0.5 * l2_lambda_ * reg;
}

void LogisticObjective::Gradient(const std::vector<double>& w,
                                 std::vector<double>* g) const {
  EvaluateAt(w);
  g->assign(dim_, 0.0);
  ForEachRowBlock(targets_.size(), [&](size_t i, auto block) {
    constexpr size_t K = decltype(block)::value;
    double residual[K] = {};
    for (size_t k = 0; k < K; ++k) {
      residual[k] = weights_[i + k] * (sigmoids_[i + k] - targets_[i + k]);
    }
    AddScaledRows<K>(features_.data() + i * dim_, dim_, residual, g->data());
  });
  for (size_t j = 0; j < dim_; ++j) (*g)[j] += l2_lambda_ * w[j];
}

void LogisticObjective::HessianVectorProduct(const std::vector<double>& w,
                                             const std::vector<double>& v,
                                             std::vector<double>* hv) const {
  EvaluateAt(w);
  hv->assign(dim_, 0.0);
  ForEachRowBlock(targets_.size(), [&](size_t i, auto block) {
    constexpr size_t K = decltype(block)::value;
    const double* rows = features_.data() + i * dim_;
    double scale[K] = {};
    DotRows<K>(rows, dim_, v.data(), scale);  // x_i . v
    for (size_t k = 0; k < K; ++k) scale[k] = curvatures_[i + k] * scale[k];
    AddScaledRows<K>(rows, dim_, scale, hv->data());
  });
  for (size_t j = 0; j < dim_; ++j) (*hv)[j] += l2_lambda_ * v[j];
}

}  // namespace veritas
