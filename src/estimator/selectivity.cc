#include "estimator/selectivity.h"

#include <algorithm>
#include <cstdint>

#include "engine/catalog_snapshot.h"
#include "estimator/serving.h"
#include "histogram/tuning.h"
#include "util/math.h"

namespace hops {

// The selection overloads are adapters onto the compiled kernels
// (estimator/serving.cc): one implementation per estimate.

double EstimateEqualitySelection(const ColumnStatistics& stats,
                                 const Value& value) {
  return EstimateEqualitySelection(CompileColumnStats(stats), value);
}

double EstimateNotEqualsSelection(const ColumnStatistics& stats,
                                  const Value& value) {
  return EstimateNotEqualsSelection(CompileColumnStats(stats), value);
}

double EstimateDisjunctiveSelection(const ColumnStatistics& stats,
                                    std::span<const Value> values) {
  return EstimateDisjunctiveSelection(CompileColumnStats(stats), values);
}

Result<double> EstimateRangeSelection(const ColumnStatistics& stats,
                                      const RangeBounds& bounds) {
  return EstimateRangeSelection(CompileColumnStats(stats), bounds);
}

namespace internal {

double FinishRangeEstimate(double num_tuples, int64_t min_value,
                           int64_t max_value, double default_frequency,
                           uint64_t num_default_values, int64_t lo, int64_t hi,
                           int64_t explicit_in_range, KahanSum total,
                           const BucketRefinementTree* refinement) {
  // Default-bucket contribution: default values assumed uniformly spread
  // over the column's [min, max] domain — unless a self-tuning refinement
  // tree has learned a better intra-bucket density from range feedback. A
  // still-uniform tree falls back to the historical arithmetic so an
  // installed-but-untouched tree stays bit-identical to no tree.
  if (num_default_values > 0 && max_value >= min_value) {
    const double domain_span =
        static_cast<double>(max_value - min_value) + 1.0;
    const int64_t clamped_lo = std::max(lo, min_value);
    const int64_t clamped_hi = std::min(hi, max_value);
    if (clamped_lo <= clamped_hi) {
      const double overlap =
          static_cast<double>(clamped_hi - clamped_lo) + 1.0;
      double values_in_range;
      if (refinement != nullptr && !refinement->IsUniform()) {
        values_in_range =
            static_cast<double>(num_default_values) *
            refinement->FractionInRange(clamped_lo, clamped_hi);
      } else {
        values_in_range =
            static_cast<double>(num_default_values) * overlap / domain_span;
      }
      // Do not double count the explicit values already summed.
      values_in_range = std::min(
          values_in_range,
          std::max(0.0, overlap - static_cast<double>(explicit_in_range)));
      total.Add(values_in_range * default_frequency);
    }
  }
  return std::min(total.Value(), num_tuples);
}

}  // namespace internal

Result<double> EstimateRangeSelectionLinear(const ColumnStatistics& stats,
                                            const RangeBounds& bounds) {
  // Frozen reference: the original full scan. Kept bit-for-bit as the
  // determinism oracle for the compiled kernel; do not optimize.
  int64_t lo = bounds.low + (bounds.include_low ? 0 : 1);
  int64_t hi = bounds.high - (bounds.include_high ? 0 : 1);
  if (lo > hi) return 0.0;

  const CatalogHistogram& hist = stats.histogram;
  KahanSum total;
  int64_t explicit_in_range = 0;
  for (const auto& [value, freq] : hist.explicit_entries()) {
    if (value >= lo && value <= hi) {
      total.Add(freq);
      ++explicit_in_range;
    }
  }
  return internal::FinishRangeEstimate(
      stats.num_tuples, stats.min_value, stats.max_value,
      hist.default_frequency(), hist.num_default_values(), lo, hi,
      explicit_in_range, total, hist.refinement().get());
}

double EstimateEquiJoinSize(const ColumnStatistics& left,
                            const ColumnStatistics& right) {
  const CatalogHistogram& hl = left.histogram;
  const CatalogHistogram& hr = right.histogram;
  KahanSum total;
  // Merge the two sorted explicit-entry lists.
  const auto& el = hl.explicit_entries();
  const auto& er = hr.explicit_entries();
  size_t i = 0, j = 0;
  size_t matched_explicit = 0;
  while (i < el.size() && j < er.size()) {
    if (el[i].first < er[j].first) {
      total.Add(el[i].second * hr.default_frequency());
      ++i;
    } else if (er[j].first < el[i].first) {
      total.Add(er[j].second * hl.default_frequency());
      ++j;
    } else {
      total.Add(el[i].second * er[j].second);
      ++matched_explicit;
      ++i;
      ++j;
    }
  }
  for (; i < el.size(); ++i) total.Add(el[i].second * hr.default_frequency());
  for (; j < er.size(); ++j) total.Add(er[j].second * hl.default_frequency());

  // Default-default mass: the values of the shared domain explicit in
  // neither histogram. With |EL| + |ER| - matched explicit values consumed
  // out of a shared universe of max(num_values) values:
  const double universe = static_cast<double>(
      std::max(hl.num_values(), hr.num_values()));
  const double consumed = static_cast<double>(el.size() + er.size() -
                                              matched_explicit);
  const double default_common = std::max(0.0, universe - consumed);
  total.Add(default_common * hl.default_frequency() *
            hr.default_frequency());
  return total.Value();
}

}  // namespace hops
