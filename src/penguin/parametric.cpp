#include "penguin/parametric.hpp"

#include <cmath>
#include <stdexcept>

#include "util/stats.hpp"

namespace a4nn::penguin {

namespace {

/// F(x) = a - b^(c - x), b > 1.
/// Rewriting b^(c-x) = exp((c - x) * ln b) keeps evaluation stable.
class PowExp final : public ParametricFunction {
 public:
  std::string name() const override { return "pow_exp"; }
  std::size_t param_count() const override { return 3; }

  double eval(std::span<const double> p, double x) const override {
    const double a = p[0], b = p[1], c = p[2];
    return a - std::exp((c - x) * std::log(b));
  }

  void gradient(std::span<const double> p, double x,
                std::span<double> out) const override {
    const double a = p[0], b = p[1], c = p[2];
    (void)a;
    const double log_b = std::log(b);
    const double term = std::exp((c - x) * log_b);  // b^(c-x)
    out[0] = 1.0;
    out[1] = -term * (c - x) / b;
    out[2] = -term * log_b;
  }

  std::optional<std::vector<double>> initial_guess(
      std::span<const double> xs, std::span<const double> ys) const override {
    // a ~ plateau slightly above the best observation; then
    // ln(a - y) = (ln b) * c - (ln b) * x is linear in x.
    const double a0 = util::max_of(ys) + 1.0;
    std::vector<double> lx, lg;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double gap = a0 - ys[i];
      if (gap <= 0.0) continue;
      lx.push_back(xs[i]);
      lg.push_back(std::log(gap));
    }
    if (lx.size() < 2) return std::nullopt;
    const auto fit = util::linear_fit(lx, lg);
    const double log_b = -fit.slope;
    if (log_b <= 1e-9) return std::nullopt;  // curve is not increasing
    const double b0 = std::exp(log_b);
    const double c0 = fit.intercept / log_b;
    return std::vector<double>{a0, b0, c0};
  }

  bool valid_params(std::span<const double> p) const override {
    return std::isfinite(p[0]) && std::isfinite(p[1]) && std::isfinite(p[2]) &&
           p[1] > 1.0;
  }
};

/// F(x) = a - b * x^(-c), b > 0, c > 0.
class InversePower final : public ParametricFunction {
 public:
  std::string name() const override { return "inverse_power"; }
  std::size_t param_count() const override { return 3; }

  double eval(std::span<const double> p, double x) const override {
    return p[0] - p[1] * std::pow(x, -p[2]);
  }

  void gradient(std::span<const double> p, double x,
                std::span<double> out) const override {
    const double xp = std::pow(x, -p[2]);
    out[0] = 1.0;
    out[1] = -xp;
    out[2] = p[1] * xp * std::log(x);
  }

  std::optional<std::vector<double>> initial_guess(
      std::span<const double> xs, std::span<const double> ys) const override {
    const double a0 = util::max_of(ys) + 1.0;
    // ln(a - y) = ln b - c ln x.
    std::vector<double> lx, lg;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double gap = a0 - ys[i];
      if (gap <= 0.0 || xs[i] <= 0.0) continue;
      lx.push_back(std::log(xs[i]));
      lg.push_back(std::log(gap));
    }
    if (lx.size() < 2) return std::nullopt;
    const auto fit = util::linear_fit(lx, lg);
    const double c0 = -fit.slope;
    if (c0 <= 1e-9) return std::nullopt;
    return std::vector<double>{a0, std::exp(fit.intercept), c0};
  }

  bool valid_params(std::span<const double> p) const override {
    return std::isfinite(p[0]) && p[1] > 0.0 && p[2] > 0.0;
  }
};

/// F(x) = a / (1 + exp(-b (x - c))), a > 0, b > 0.
class Logistic final : public ParametricFunction {
 public:
  std::string name() const override { return "logistic"; }
  std::size_t param_count() const override { return 3; }

  double eval(std::span<const double> p, double x) const override {
    return p[0] / (1.0 + std::exp(-p[1] * (x - p[2])));
  }

  void gradient(std::span<const double> p, double x,
                std::span<double> out) const override {
    const double e = std::exp(-p[1] * (x - p[2]));
    const double denom = 1.0 + e;
    out[0] = 1.0 / denom;
    out[1] = p[0] * e * (x - p[2]) / (denom * denom);
    out[2] = -p[0] * e * p[1] / (denom * denom);
  }

  std::optional<std::vector<double>> initial_guess(
      std::span<const double> xs, std::span<const double> ys) const override {
    const double a0 = util::max_of(ys) + 1.0;
    // Midpoint near the median x; slope from the observed range.
    const double c0 = util::median(xs);
    const double span_x = util::max_of(xs) - util::min_of(xs);
    if (span_x <= 0.0) return std::nullopt;
    return std::vector<double>{a0, 2.0 / span_x, c0};
  }

  bool valid_params(std::span<const double> p) const override {
    return p[0] > 0.0 && p[1] > 0.0 && std::isfinite(p[2]);
  }
};

/// F(x) = exp(a + b / x + c * ln x).
class VaporPressure final : public ParametricFunction {
 public:
  std::string name() const override { return "vapor_pressure"; }
  std::size_t param_count() const override { return 3; }

  double eval(std::span<const double> p, double x) const override {
    return std::exp(p[0] + p[1] / x + p[2] * std::log(x));
  }

  void gradient(std::span<const double> p, double x,
                std::span<double> out) const override {
    const double f = eval(p, x);
    out[0] = f;
    out[1] = f / x;
    out[2] = f * std::log(x);
  }

  std::optional<std::vector<double>> initial_guess(
      std::span<const double> /*xs*/,
      std::span<const double> ys) const override {
    // ln y = a + b / x + c ln x: least squares on the log curve would need
    // a 3-column solve; a coarse guess is enough for LM to take over.
    for (double y : ys) {
      if (y <= 0.0) return std::nullopt;
    }
    const double ly_last = std::log(ys[ys.size() - 1]);
    return std::vector<double>{ly_last, -1.0, 0.1};
  }

  bool valid_params(std::span<const double> p) const override {
    return std::isfinite(p[0]) && std::isfinite(p[1]) && std::isfinite(p[2]);
  }
};

}  // namespace

FunctionPtr make_pow_exp() { return std::make_shared<PowExp>(); }
FunctionPtr make_inverse_power() { return std::make_shared<InversePower>(); }
FunctionPtr make_logistic() { return std::make_shared<Logistic>(); }
FunctionPtr make_vapor_pressure() { return std::make_shared<VaporPressure>(); }

FunctionPtr make_function(const std::string& name) {
  if (name == "pow_exp") return make_pow_exp();
  if (name == "inverse_power") return make_inverse_power();
  if (name == "logistic") return make_logistic();
  if (name == "vapor_pressure") return make_vapor_pressure();
  if (name == "weibull") return make_weibull();
  if (name == "ilog") return make_ilog();
  if (name == "janoschek") return make_janoschek();
  if (name == "mmf") return make_mmf();
  throw std::invalid_argument("make_function: unknown family '" + name + "'");
}

std::vector<std::string> function_names() {
  return {"pow_exp", "inverse_power", "logistic", "vapor_pressure",
          "weibull",  "ilog",          "janoschek", "mmf"};
}

}  // namespace a4nn::penguin
