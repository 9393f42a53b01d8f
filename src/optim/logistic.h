#ifndef VERITAS_OPTIM_LOGISTIC_H_
#define VERITAS_OPTIM_LOGISTIC_H_

#include <vector>

#include "optim/objective.h"

namespace veritas {

/// L2-regularized logistic loss over weighted, soft-labelled examples:
///
///   f(w) = -sum_i omega_i [ y_i log s_i + (1 - y_i) log(1 - s_i) ]
///          + (lambda / 2) ||w||^2,   s_i = sigmoid(w . x_i)
///
/// This is the M-step objective of iCRF (§3.2): each CRF clique contributes
/// one example whose soft label y_i is the current credibility estimate of
/// its claim (or the user label) and whose weight omega_i propagates the
/// influence of the clique, per Eq. 6/8. Soft labels make the expectation of
/// the complete-data log-likelihood exact for a log-linear model.
///
/// TRON evaluates Value/Gradient once per accepted step but a dozen or more
/// Hessian-vector products at the same w. The per-example margin x_i . w,
/// e^{-|margin|}, the sigmoid and the curvature omega_i s_i (1 - s_i) are
/// therefore cached, keyed on the exact bits of the last w, so an HVP costs
/// two dim-length passes per example and no transcendental call. Every
/// cached value is computed by the same operations in the same order as a
/// straight-line evaluation, so results are bit-identical to recomputing
/// (DESIGN.md §12, "M-step kernel"). The cache makes the const evaluators
/// unsafe to call on one objective from two threads at once.
class LogisticObjective : public DifferentiableObjective {
 public:
  /// `dim` is the feature dimensionality (include the intercept in x).
  LogisticObjective(size_t dim, double l2_lambda);

  /// Pre-allocates room for `examples` rows, so a caller that knows its
  /// row count appends without regrowing the design matrix.
  void Reserve(size_t examples);

  /// Appends an example. `features` must have size dim(); `target` in [0,1];
  /// `weight` >= 0. Violations are clamped rather than rejected because the
  /// inference loop feeds millions of rows.
  void AddExample(const std::vector<double>& features, double target,
                  double weight = 1.0);

  /// Removes all examples, keeping dimension and regularization.
  void ClearExamples();

  size_t num_examples() const { return targets_.size(); }
  double l2_lambda() const { return l2_lambda_; }

  size_t dim() const override { return dim_; }
  double Value(const std::vector<double>& w) const override;
  void Gradient(const std::vector<double>& w, std::vector<double>* g) const override;
  void HessianVectorProduct(const std::vector<double>& w,
                            const std::vector<double>& v,
                            std::vector<double>* hv) const override;

 private:
  /// Makes the per-example cache describe `w`; a no-op when the cached key
  /// has the same bits.
  void EvaluateAt(const std::vector<double>& w) const;

  size_t dim_;
  double l2_lambda_;
  std::vector<double> features_;  // row-major, num_examples x dim
  std::vector<double> targets_;
  std::vector<double> weights_;

  // Per-example evaluation cache, valid for the weights in cached_w_.
  mutable bool cache_valid_ = false;
  mutable std::vector<double> cached_w_;
  mutable std::vector<double> margins_;     // m_i = x_i . w
  mutable std::vector<double> exps_;        // e^{-|m_i|}
  mutable std::vector<double> sigmoids_;    // s_i = sigmoid(m_i)
  mutable std::vector<double> curvatures_;  // omega_i s_i (1 - s_i)
};

}  // namespace veritas

#endif  // VERITAS_OPTIM_LOGISTIC_H_
