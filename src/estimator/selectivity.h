// Optimizer-facing cardinality estimation over catalog statistics.
//
// Covers the query shapes the paper claims serial histograms serve well
// (Sections 2.2 and 6): equality selection, disjunctive equality selection,
// not-equals (complement), range selection (a disjunctive selection over the
// values in the range), and two-relation equality join.
//
// Each estimate has one implementation: the compiled kernel of the same name
// in estimator/serving.h. The ColumnStatistics selection overloads below are
// adapters that reach it through stats.histogram.compiled(), which is built
// on first use and cached — so, like CatalogHistogram itself, they are
// thread-compatible on one ColumnStatistics, not thread-safe.
//
// The frozen oracles the kernels are tested against live here too and share
// no lookup or merge code with them:
//   - EstimateRangeSelectionLinear: the original linear range scan;
//   - EstimateEquiJoinSize(const ColumnStatistics&, ...): the sorted merge
//     over the decoded (value, frequency) pairs;
//   - for point probes, CatalogHistogram::LookupFrequency
//     (histogram/serialization.h).

#pragma once

#include <cstdint>
#include <span>

#include "engine/catalog.h"
#include "util/math.h"
#include "util/status.h"

namespace hops {

/// \brief Estimated |sigma_{col = value}(R)|.
double EstimateEqualitySelection(const ColumnStatistics& stats,
                                 const Value& value);

/// \brief Estimated |sigma_{col != value}(R)| — the complement of equality.
double EstimateNotEqualsSelection(const ColumnStatistics& stats,
                                  const Value& value);

/// \brief Estimated size of the disjunctive selection
/// (col = v1 or col = v2 or ...). Duplicate values are counted once.
double EstimateDisjunctiveSelection(const ColumnStatistics& stats,
                                    std::span<const Value> values);

/// \brief Inclusive/exclusive bounds for range estimation.
struct RangeBounds {
  int64_t low = 0;
  int64_t high = 0;
  bool include_low = true;
  bool include_high = true;
};

/// \brief Estimated |sigma_{low (<|<=) col (<|<=) high}(R)| for an int64
/// column: explicit histogram entries inside the range contribute exactly;
/// the implicit default bucket contributes its average frequency times the
/// estimated number of default values in the range (default values assumed
/// uniformly spread over [min_value, max_value]).
Result<double> EstimateRangeSelection(const ColumnStatistics& stats,
                                      const RangeBounds& bounds);

/// \brief Frozen reference implementation of range estimation: the original
/// linear scan over every explicit entry. Kept verbatim as the determinism
/// oracle — the compiled kernel must reproduce its results bit-for-bit. Do
/// not "optimize" this function.
Result<double> EstimateRangeSelectionLinear(const ColumnStatistics& stats,
                                            const RangeBounds& bounds);

namespace internal {

/// \brief Shared tail of range estimation: the default-bucket contribution
/// (average frequency x estimated default values in range) plus the
/// relation-size clamp, applied to the accumulator already holding the
/// explicit in-range mass. The linear oracle and the compiled kernel both
/// funnel through this one function so the floating-point association is
/// pinned in exactly one place.
///
/// A non-null, non-uniform self-tuning refinement tree (histogram/tuning.h)
/// supplies the default values' in-range share instead of the uniform-spread
/// assumption; a null or still-uniform tree computes the historical
/// arithmetic bit for bit — the tuning-off determinism contract. Pass the
/// histogram's own tree so the oracle and the kernel agree on tuned
/// histograms too.
double FinishRangeEstimate(double num_tuples, int64_t min_value,
                           int64_t max_value, double default_frequency,
                           uint64_t num_default_values, int64_t lo, int64_t hi,
                           int64_t explicit_in_range, KahanSum total,
                           const BucketRefinementTree* refinement);

}  // namespace internal

/// \brief Estimated |R ⋈ S| on one attribute, from both sides' compact
/// histograms — the frozen merge oracle over the decoded (value, frequency)
/// pairs; the compiled kernel in estimator/serving.h must match it bit for
/// bit. Assumes the two attributes share a value domain (the paper's
/// model): explicit-explicit pairs match exactly; values explicit on only
/// one side meet the other side's default frequency; the remaining
/// default-default mass pairs the leftover value counts.
double EstimateEquiJoinSize(const ColumnStatistics& left,
                            const ColumnStatistics& right);

}  // namespace hops
