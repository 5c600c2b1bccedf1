#include "stats/special.h"

#include <cmath>
#include <limits>

#include "util/errors.h"

namespace avtk::stats {

namespace {

constexpr int k_max_iterations = 500;
constexpr double k_epsilon = 1e-15;
constexpr double k_fpmin = 1e-300;

// Lower incomplete gamma by series expansion; best for x < a + 1.
double gamma_p_series(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int i = 0; i < k_max_iterations; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * k_epsilon) {
      return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
    }
  }
  throw numeric_error("gamma_p series failed to converge");
}

// Upper incomplete gamma by Lentz continued fraction; best for x >= a + 1.
double gamma_q_cf(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / k_fpmin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= k_max_iterations; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < k_fpmin) d = k_fpmin;
    c = b + an / c;
    if (std::fabs(c) < k_fpmin) c = k_fpmin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < k_epsilon) {
      return std::exp(-x + a * std::log(x) - log_gamma(a)) * h;
    }
  }
  throw numeric_error("gamma_q continued fraction failed to converge");
}

// Continued fraction for the incomplete beta (Numerical Recipes betacf).
double beta_cf(double a, double b, double x) {
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < k_fpmin) d = k_fpmin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= k_max_iterations; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < k_fpmin) d = k_fpmin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < k_fpmin) c = k_fpmin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < k_fpmin) d = k_fpmin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < k_fpmin) c = k_fpmin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < k_epsilon) return h;
  }
  throw numeric_error("beta_inc continued fraction failed to converge");
}

}  // namespace

double log_gamma(double x) {
  if (!(x > 0)) throw numeric_error("log_gamma requires x > 0");
#if defined(__GLIBC__) || defined(__APPLE__)
  // std::lgamma writes the process-global `signgam`, which is a data race
  // when analyses run concurrently (serve worker pool). lgamma_r is the
  // reentrant form; the sign is always +1 for x > 0.
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

double gamma_p(double a, double x) {
  if (!(a > 0) || x < 0) throw numeric_error("gamma_p requires a > 0, x >= 0");
  if (x == 0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_cf(a, x);
}

double gamma_p_inverse(double a, double p) {
  if (!(a > 0) || p < 0.0 || p >= 1.0) {
    throw numeric_error("gamma_p_inverse requires a > 0, p in [0,1)");
  }
  if (p == 0.0) return 0.0;
  // Bracket then bisect with Newton acceleration. Start from the Wilson-
  // Hilferty approximation.
  const double g = log_gamma(a);
  double x;
  {
    const double z = normal_quantile(p);
    const double t = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * std::sqrt(a));
    x = a * t * t * t;
    if (!(x > 0)) x = 1e-8;
  }
  for (int i = 0; i < 100; ++i) {
    const double err = gamma_p(a, x) - p;
    const double pdf = std::exp((a - 1.0) * std::log(x) - x - g);
    if (pdf <= 0) break;
    double step = err / pdf;
    // Damp Newton steps that would escape the domain.
    double next = x - step;
    if (next <= 0) next = x / 2.0;
    if (std::fabs(next - x) < 1e-12 * (x + 1e-12)) return next;
    x = next;
  }
  // Fall back to bisection for pathological shapes.
  double lo = 0.0;
  double hi = std::fmax(x * 4.0, 10.0 * a + 10.0);
  while (gamma_p(a, hi) < p) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (gamma_p(a, mid) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double beta_inc(double a, double b, double x) {
  if (!(a > 0) || !(b > 0)) throw numeric_error("beta_inc requires a, b > 0");
  if (x < 0.0 || x > 1.0) throw numeric_error("beta_inc requires x in [0,1]");
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double ln_front =
      log_gamma(a + b) - log_gamma(a) - log_gamma(b) + a * std::log(x) + b * std::log(1.0 - x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_cf(a, b, x) / a;
  }
  return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double normal_quantile(double p) {
  if (!(p > 0.0) || !(p < 1.0)) throw numeric_error("normal_quantile requires p in (0,1)");
  // Acklam's rational approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  double x;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement using the exact CDF.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

double student_t_two_sided_p(double t, double dof) {
  if (!(dof > 0)) throw numeric_error("student_t p-value requires dof > 0");
  if (std::isinf(t)) return 0.0;
  const double x = dof / (dof + t * t);
  return beta_inc(dof / 2.0, 0.5, x);
}

double chi_squared_cdf(double x, double k) {
  if (x < 0) return 0.0;
  return gamma_p(k / 2.0, x / 2.0);
}

double chi_squared_quantile(double p, double k) {
  return 2.0 * gamma_p_inverse(k / 2.0, p);
}

}  // namespace avtk::stats
