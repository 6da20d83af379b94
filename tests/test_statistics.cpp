// Unit tests for summary statistics and error metrics (util/statistics.*).
#include "util/statistics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace dn {
namespace {

TEST(Stats, MeanStddev) {
  const std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
}

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, MinMaxMedian) {
  const std::vector<double> v{3, 1, 4, 1, 5};
  EXPECT_DOUBLE_EQ(max_of(v), 5.0);
  EXPECT_DOUBLE_EQ(median(v), 3.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
}

TEST(Stats, Rms) {
  const std::vector<double> v{3, 4};
  EXPECT_NEAR(rms(v), std::sqrt(12.5), 1e-12);
}

TEST(ErrorStats, ComputesPctAndSignCounts) {
  const std::vector<double> model{90, 110, 50};
  const std::vector<double> ref{100, 100, 100};
  const auto st = error_stats(model, ref);
  EXPECT_EQ(st.n, 3);
  EXPECT_EQ(st.n_underestimate, 2);
  EXPECT_NEAR(st.mean_abs_pct, (10 + 10 + 50) / 3.0, 1e-12);
  EXPECT_NEAR(st.worst_abs_pct, 50.0, 1e-12);
  EXPECT_NEAR(st.mean_abs, (10 + 10 + 50) / 3.0, 1e-12);
  EXPECT_NEAR(st.worst_abs, 50.0, 1e-12);
  EXPECT_NEAR(st.mean_signed, (-10 + 10 - 50) / 3.0, 1e-12);
}

TEST(ErrorStats, SkipsZeroReferenceInPct) {
  const std::vector<double> model{1, 5};
  const std::vector<double> ref{0, 10};
  const auto st = error_stats(model, ref);
  EXPECT_NEAR(st.mean_abs_pct, 50.0, 1e-12);  // Only the second point counts.
  EXPECT_NEAR(st.worst_abs, 5.0, 1e-12);
}

TEST(ErrorStats, SizeMismatchThrows) {
  EXPECT_THROW(error_stats(std::vector<double>{1}, std::vector<double>{1, 2}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dn
