// Summary statistics and error metrics used by the benchmark harness
// (Figures 9, 13, 14 report average / worst-case errors).
#pragma once

#include <span>
#include <vector>

namespace dn {

double mean(std::span<const double> v);
double max_of(std::span<const double> v);
double median(std::span<const double> v);
double percentile(std::span<const double> v, double p);  // p in [0,100].
double rms(std::span<const double> v);

/// Error metrics between a model series and a reference (golden) series.
struct ErrorStats {
  double mean_abs_pct = 0.0;   // mean |model-ref|/|ref| * 100, over ref != 0
  double worst_abs_pct = 0.0;  // max of the same
  double mean_abs = 0.0;       // mean |model-ref| (absolute units)
  double worst_abs = 0.0;      // max |model-ref|
  double mean_signed = 0.0;    // mean (model-ref): sign shows under/over-estimation
  int n = 0;
  int n_underestimate = 0;     // count of model < ref
};

ErrorStats error_stats(std::span<const double> model, std::span<const double> ref);

}  // namespace dn
