// Sample summaries for the benchmark's timings.
//
// Every timing the benchmark reports is summarized in one shape: n,
// median, p05, p95, p99, stddev. Quantiles use
// linear interpolation between closest ranks, the same definition as
// numpy's default and Python's statistics.quantiles(method="inclusive").
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hopsbench {

struct SampleStats {
  size_t n = 0;
  double median = 0;
  double p05 = 0;
  double p95 = 0;
  double p99 = 0;
  double stddev = 0;  ///< sample standard deviation (n - 1 denominator)
};

/// Quantile q in [0, 1] of an ascending-sorted sample; 0 when empty.
double QuantileSorted(std::span<const double> sorted, double q);

/// Quantile of an unsorted sample (copies and sorts).
double Quantile(std::vector<double> samples, double q);

SampleStats Summarize(std::vector<double> samples);

/// Symmetric q-error: max(est, 1) / max(truth, 1), or its inverse, >= 1.
double QError(double estimate, double truth);

}  // namespace hopsbench
