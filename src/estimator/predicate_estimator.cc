#include "estimator/predicate_estimator.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "engine/joint_statistics.h"
#include "estimator/selectivity.h"
#include "estimator/serving.h"

namespace hops {

namespace {

// Bounds of a single ordered comparison; ok() only for ordered operators.
Result<RangeBounds> OrderedComparisonBounds(const Comparison& cmp) {
  if (!cmp.literal.is_int64()) {
    return Status::InvalidArgument(
        "ordered comparison on column '" + cmp.column +
        "' needs an int64 literal");
  }
  const int64_t v = cmp.literal.AsInt64();
  switch (cmp.op) {
    case PredicateOp::kLess:
      return RangeBounds{std::numeric_limits<int64_t>::min(), v, true, false};
    case PredicateOp::kLessEqual:
      return RangeBounds{std::numeric_limits<int64_t>::min(), v, true, true};
    case PredicateOp::kGreater:
      return RangeBounds{v, std::numeric_limits<int64_t>::max(), false, true};
    case PredicateOp::kGreaterEqual:
      return RangeBounds{v, std::numeric_limits<int64_t>::max(), true, true};
    default:
      return Status::Internal("unhandled comparison operator");
  }
}

// Cardinality of a single comparison from its column statistics.
Result<double> ComparisonCardinality(const CompiledColumnStats& stats,
                                     const Comparison& cmp) {
  switch (cmp.op) {
    case PredicateOp::kEqual:
      return EstimateEqualitySelection(stats, cmp.literal);
    case PredicateOp::kNotEqual:
      return EstimateNotEqualsSelection(stats, cmp.literal);
    case PredicateOp::kIn:
      return EstimateDisjunctiveSelection(stats, cmp.in_list);
    default:
      break;
  }
  HOPS_ASSIGN_OR_RETURN(RangeBounds bounds, OrderedComparisonBounds(cmp));
  return EstimateRangeSelection(stats, bounds);
}

// The one estimation body. \p lookup maps a column name of the predicate's
// table to its compiled statistics (Result<const CompiledColumnStats*>; any
// error means "no statistics"). The pointer need only stay valid until the
// next lookup.
template <typename Lookup>
Result<double> PredicateCardinality(const Predicate& predicate,
                                    Lookup&& lookup) {
  if (predicate.empty()) {
    return Status::InvalidArgument("empty predicate");
  }
  const auto& comparisons = predicate.comparisons();
  std::vector<bool> consumed(comparisons.size(), false);

  double relation_size = -1.0;
  double cardinality = -1.0;  // running estimate, starts at first factor
  auto apply_factor = [&](double count) {
    if (cardinality < 0) {
      cardinality = count;
    } else {
      // Independence: multiply by the factor's selectivity.
      cardinality *= relation_size > 0 ? count / relation_size : 0.0;
    }
  };

  // First pass: equality pairs served by joint statistics.
  for (size_t i = 0; i < comparisons.size(); ++i) {
    if (consumed[i] || comparisons[i].op != PredicateOp::kEqual) continue;
    for (size_t j = i + 1; j < comparisons.size(); ++j) {
      if (consumed[j] || comparisons[j].op != PredicateOp::kEqual) continue;
      // Joint statistics for (a, b) may be stored as "a+b" or, with the
      // roles swapped, as "b+a"; the probe order follows the stored order.
      size_t first = i, second = j;
      Result<const CompiledColumnStats*> joint = lookup(
          JointStatisticsColumnKey(comparisons[i].column,
                                   comparisons[j].column));
      if (!joint.ok()) {
        std::swap(first, second);
        joint = lookup(JointStatisticsColumnKey(comparisons[j].column,
                                                comparisons[i].column));
        if (!joint.ok()) continue;
      }
      const CompiledColumnStats& js = **joint;
      if (relation_size < 0) relation_size = js.num_tuples;
      apply_factor(EstimateConjunctiveEquality(
          js, comparisons[first].literal, comparisons[second].literal));
      consumed[i] = consumed[j] = true;
      break;
    }
  }

  // Second pass: the remaining comparisons, independently.
  for (size_t i = 0; i < comparisons.size(); ++i) {
    if (consumed[i]) continue;
    HOPS_ASSIGN_OR_RETURN(const CompiledColumnStats* stats,
                          lookup(comparisons[i].column));
    if (relation_size < 0) relation_size = stats->num_tuples;
    HOPS_ASSIGN_OR_RETURN(double count,
                          ComparisonCardinality(*stats, comparisons[i]));
    apply_factor(count);
  }
  return std::max(0.0, cardinality);
}

}  // namespace

Result<double> EstimatePredicateCardinality(const Catalog& catalog,
                                            const std::string& table,
                                            const Predicate& predicate) {
  CompiledColumnStats decoded;
  return PredicateCardinality(
      predicate,
      [&](const std::string& column) -> Result<const CompiledColumnStats*> {
        HOPS_ASSIGN_OR_RETURN(ColumnStatistics stats,
                              catalog.GetColumnStatistics(table, column));
        decoded = CompileColumnStats(stats);
        return &decoded;
      });
}

Result<double> EstimatePredicateCardinality(const CatalogSnapshot& snapshot,
                                            const std::string& table,
                                            const Predicate& predicate) {
  return PredicateCardinality(
      predicate,
      [&](const std::string& column) -> Result<const CompiledColumnStats*> {
        HOPS_ASSIGN_OR_RETURN(ColumnId id, snapshot.Resolve(table, column));
        return &snapshot.stats(id);
      });
}

}  // namespace hops
