#include "stats/dist/exponential.h"

#include "stats/descriptive.h"
#include "util/errors.h"

namespace avtk::stats {

exponential_dist::exponential_dist(double mean) : mean_(mean) {
  if (!(mean > 0)) throw numeric_error("exponential_dist requires mean > 0");
}

exponential_dist exponential_dist::fit(std::span<const double> xs) {
  if (xs.empty()) throw numeric_error("exponential fit on empty sample");
  for (double x : xs) {
    if (x < 0) throw numeric_error("exponential fit requires non-negative samples");
  }
  const double m = stats::mean(xs);
  if (!(m > 0)) throw numeric_error("exponential fit requires positive sample mean");
  return exponential_dist(m);
}

}  // namespace avtk::stats
