#include "optim/tron.h"

#include <algorithm>
#include <cmath>

#include "common/math.h"

namespace veritas {

namespace {

constexpr double kInitialRadius = 1.0;
constexpr double kCgTolerance = 0.1;  ///< inner CG: ||r|| <= tol * ||g||
// Acceptance thresholds and radius update factors follow TRON (Lin et al.).
constexpr double kEta0 = 1e-4, kEta1 = 0.25, kEta2 = 0.75;
constexpr double kSigma1 = 0.25, kSigma2 = 0.5, kSigma3 = 4.0;

/// Steihaug CG: approximately minimizes the quadratic model
/// q(s) = g.s + 0.5 s.H.s subject to ||s|| <= radius. Returns the step in
/// *step and whether the trust-region boundary was hit in *hit_boundary.
void SteihaugCg(const DifferentiableObjective& objective,
                const std::vector<double>& w, const std::vector<double>& g,
                double radius, const TronOptions& options,
                std::vector<double>* step, bool* hit_boundary) {
  const size_t n = g.size();
  step->assign(n, 0.0);
  *hit_boundary = false;
  std::vector<double> residual(n);
  for (size_t i = 0; i < n; ++i) residual[i] = -g[i];
  std::vector<double> direction = residual;
  std::vector<double> hd(n);

  const double g_norm = Norm2(g);
  const double stop = kCgTolerance * g_norm;
  double rr = Dot(residual, residual);

  for (size_t iter = 0; iter < options.cg_max_iterations; ++iter) {
    if (std::sqrt(rr) <= stop) return;
    objective.HessianVectorProduct(w, direction, &hd);
    const double dhd = Dot(direction, hd);
    if (dhd <= 0.0) {
      // Negative curvature: walk to the trust-region boundary.
      const double ss = Dot(*step, *step);
      const double sd = Dot(*step, direction);
      const double dd = Dot(direction, direction);
      const double disc = sd * sd + dd * (radius * radius - ss);
      const double tau = (-sd + std::sqrt(std::max(0.0, disc))) / dd;
      Axpy(tau, direction, step);
      *hit_boundary = true;
      return;
    }
    const double alpha = rr / dhd;
    // Would the step leave the trust region?
    std::vector<double> candidate = *step;
    Axpy(alpha, direction, &candidate);
    if (Norm2(candidate) >= radius) {
      const double ss = Dot(*step, *step);
      const double sd = Dot(*step, direction);
      const double dd = Dot(direction, direction);
      const double disc = sd * sd + dd * (radius * radius - ss);
      const double tau = (-sd + std::sqrt(std::max(0.0, disc))) / dd;
      Axpy(tau, direction, step);
      *hit_boundary = true;
      return;
    }
    *step = std::move(candidate);
    Axpy(-alpha, hd, &residual);
    const double rr_new = Dot(residual, residual);
    const double beta = rr_new / rr;
    for (size_t i = 0; i < n; ++i) direction[i] = residual[i] + beta * direction[i];
    rr = rr_new;
  }
}

}  // namespace

Result<TronReport> MinimizeTron(const DifferentiableObjective& objective,
                                std::vector<double>* w,
                                const TronOptions& options) {
  if (w == nullptr) return Status::InvalidArgument("MinimizeTron: null weights");
  if (w->size() != objective.dim()) {
    return Status::InvalidArgument("MinimizeTron: weight dimension mismatch");
  }

  TronReport report;
  double value = objective.Value(*w);
  report.initial_value = value;
  std::vector<double> gradient;
  objective.Gradient(*w, &gradient);
  const double g0_norm = Norm2(gradient);
  double radius = kInitialRadius;

  std::vector<double> step;
  std::vector<double> hs;
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    const double g_norm = Norm2(gradient);
    report.final_gradient_norm = g_norm;
    if (g_norm <= options.gradient_tolerance * std::max(1.0, g0_norm)) {
      report.converged = true;
      break;
    }
    ++report.iterations;

    bool hit_boundary = false;
    SteihaugCg(objective, *w, gradient, radius, options, &step, &hit_boundary);
    const double step_norm = Norm2(step);
    if (step_norm <= 1e-15) {
      report.converged = true;
      break;
    }

    // Predicted reduction from the quadratic model.
    objective.HessianVectorProduct(*w, step, &hs);
    const double predicted = -(Dot(gradient, step) + 0.5 * Dot(step, hs));

    std::vector<double> candidate = *w;
    Axpy(1.0, step, &candidate);
    const double candidate_value = objective.Value(candidate);
    const double actual = value - candidate_value;
    const double rho = predicted > 0.0 ? actual / predicted : -1.0;

    // Radius update per TRON.
    if (rho < kEta1) {
      radius = std::max(1e-12, kSigma1 * std::min(radius, step_norm));
    } else if (rho < kEta2) {
      radius = std::max(kSigma1 * radius, std::min(kSigma2 * radius * 2.0, radius));
    } else if (hit_boundary) {
      radius = std::min(kSigma3 * radius, 1e12);
    }

    if (rho > kEta0) {
      *w = std::move(candidate);
      value = candidate_value;
      objective.Gradient(*w, &gradient);
    }
  }
  report.final_value = value;
  report.final_gradient_norm = Norm2(gradient);
  if (!report.converged) {
    report.converged = report.final_gradient_norm <=
                       options.gradient_tolerance * std::max(1.0, g0_norm);
  }
  return report;
}

}  // namespace veritas
