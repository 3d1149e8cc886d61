#pragma once
// Order statistics over benchmark samples.

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

namespace perfbench {

/// Quantile `q` in [0, 1] by linear interpolation between the closest
/// ranks (the "inclusive" definition: q=0 is the minimum, q=1 the maximum,
/// q=0.5 of an even-sized sample the mean of the two middle values).
/// NaN for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Arithmetic mean; NaN for an empty sample.
[[nodiscard]] inline double mean(std::span<const double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace perfbench
