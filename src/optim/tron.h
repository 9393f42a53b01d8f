#ifndef VERITAS_OPTIM_TRON_H_
#define VERITAS_OPTIM_TRON_H_

#include <vector>

#include "common/status.h"
#include "optim/objective.h"

namespace veritas {

/// Budgets of the Trust Region Newton optimizer. The trust-region
/// constants (initial radius, acceptance thresholds, radius factors, inner
/// CG tolerance) are fixed in tron.cc.
struct TronOptions {
  size_t max_iterations = 50;
  double gradient_tolerance = 1e-4;  ///< stop when ||g|| <= tol * ||g0||
  size_t cg_max_iterations = 32;
};

/// Outcome of a TRON run.
struct TronReport {
  size_t iterations = 0;
  double initial_value = 0.0;
  double final_value = 0.0;
  double final_gradient_norm = 0.0;
  bool converged = false;
};

/// L2-regularized Trust Region Newton Method (TRON, Lin/Weng/Keerthi JMLR
/// 2008), the M-step solver of iCRF (§3.2) and the parameter update of the
/// streaming algorithm (§7). The trust-region subproblem is solved with
/// Steihaug conjugate gradients, so each outer iteration costs a handful of
/// Hessian-vector products — linear in the dataset size, as Prop. 1 requires.
///
/// Minimizes `objective` starting from *w (modified in place).
Result<TronReport> MinimizeTron(const DifferentiableObjective& objective,
                                std::vector<double>* w,
                                const TronOptions& options = {});

}  // namespace veritas

#endif  // VERITAS_OPTIM_TRON_H_
