#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace hopsbench {

double QuantileSorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double position = q * static_cast<double>(sorted.size() - 1);
  const size_t below = static_cast<size_t>(std::floor(position));
  const size_t above = std::min(below + 1, sorted.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return sorted[below] + (sorted[above] - sorted[below]) * fraction;
}

double Quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return QuantileSorted(samples, q);
}

SampleStats Summarize(std::vector<double> samples) {
  SampleStats stats;
  stats.n = samples.size();
  if (samples.empty()) return stats;
  std::sort(samples.begin(), samples.end());
  stats.median = QuantileSorted(samples, 0.5);
  stats.p05 = QuantileSorted(samples, 0.05);
  stats.p95 = QuantileSorted(samples, 0.95);
  stats.p99 = QuantileSorted(samples, 0.99);
  if (samples.size() > 1) {
    const double mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
                        static_cast<double>(samples.size());
    double squares = 0;
    for (double x : samples) squares += (x - mean) * (x - mean);
    stats.stddev = std::sqrt(squares / static_cast<double>(samples.size() - 1));
  }
  return stats;
}

double QError(double estimate, double truth) {
  const double e = std::max(estimate, 1.0);
  const double t = std::max(truth, 1.0);
  return e >= t ? e / t : t / e;
}

}  // namespace hopsbench
