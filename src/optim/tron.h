#ifndef VERITAS_OPTIM_TRON_H_
#define VERITAS_OPTIM_TRON_H_

#include <vector>

#include "common/fields.h"
#include "common/status.h"
#include "optim/objective.h"

namespace veritas {

/// Options for the Trust Region Newton optimizer.
struct TronOptions {
  size_t max_iterations = 50;
  double gradient_tolerance = 1e-4;  ///< stop when ||g|| <= tol * ||g0||
  double initial_radius = 1.0;
  size_t cg_max_iterations = 32;
  double cg_tolerance = 0.1;  ///< inner CG: ||r|| <= cg_tol * ||g||
  // Acceptance thresholds and radius update factors follow TRON (Lin et al.).
  double eta0 = 1e-4, eta1 = 0.25, eta2 = 0.75;
  double sigma1 = 0.25, sigma2 = 0.5, sigma3 = 4.0;
};

template <typename V, typename S>
FieldsOf<S, TronOptions> VisitFields(V& v, S& t) {
  v("max_iterations", t.max_iterations);
  v("gradient_tolerance", t.gradient_tolerance);
  v("initial_radius", t.initial_radius);
  v("cg_max_iterations", t.cg_max_iterations);
  v("cg_tolerance", t.cg_tolerance);
  v("eta0", t.eta0);
  v("eta1", t.eta1);
  v("eta2", t.eta2);
  v("sigma1", t.sigma1);
  v("sigma2", t.sigma2);
  v("sigma3", t.sigma3);
}

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
