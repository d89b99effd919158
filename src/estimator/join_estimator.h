// Chain-join size estimation from catalog statistics — the estimate a
// System-R-style optimizer derives while costing access plans.
//
// The Catalog and snapshot overloads share one spec validation and one
// running-size fold; they differ only in where the pairwise join sizes come
// from. The Catalog overloads decode every histogram per call and take them
// from the frozen merge oracle, EstimateEquiJoinSize(const ColumnStatistics&,
// ...) in selectivity.h; the snapshot overloads take them from the compiled
// kernel in serving.h. Agreement of the two is therefore a check of the
// kernel against the oracle (tests/estimator/serving_test.cc).

#pragma once

#include <span>
#include <string>
#include <vector>

#include "engine/catalog.h"
#include "engine/catalog_snapshot.h"
#include "util/status.h"

namespace hops {

/// \brief One relation of a chain-join estimation request. Mirrors
/// ChainJoinStep but by catalog names instead of live relations.
struct ChainJoinSpec {
  std::string table;
  std::string left_column;   ///< Empty on the first relation.
  std::string right_column;  ///< Empty on the last relation.
};

/// \brief Estimates |R0 ⋈ R1 ⋈ ... ⋈ RN| from per-column histograms.
///
/// Pairwise join sizes come from EstimateEquiJoinSize; chains longer than
/// one join use the classical attribute-independence assumption: joining the
/// intermediate result with the next relation scales the next pairwise
/// estimate by (intermediate size / previous relation size).
Result<double> EstimateChainJoinSize(const Catalog& catalog,
                                     std::span<const ChainJoinSpec> specs);

/// \brief Per-join breakdown of a chain estimate, for EXPLAIN-style output.
struct ChainJoinEstimateDetail {
  std::vector<double> pairwise_sizes;  ///< Histogram estimate per join.
  std::vector<double> running_sizes;   ///< Estimated size after each join.
  double final_size = 0.0;
};

/// \brief As EstimateChainJoinSize, but with the intermediate breakdown.
Result<ChainJoinEstimateDetail> ExplainChainJoinSize(
    const Catalog& catalog, std::span<const ChainJoinSpec> specs);

/// \brief One interior join of a chain, pre-resolved against a snapshot:
/// `left` is (relation i, its right-facing column), `right` is
/// (relation i+1, its left-facing column).
struct SnapshotChainStep {
  ColumnId left = 0;
  ColumnId right = 0;
};

/// \brief Interns a name-based chain spec against \p snapshot: the same
/// validation as the Catalog overloads, performed once per plan. The
/// returned steps are then estimated with zero string comparisons and zero
/// histogram decodes per estimate.
Result<std::vector<SnapshotChainStep>> ResolveChain(
    const CatalogSnapshot& snapshot, std::span<const ChainJoinSpec> specs);

/// \brief Chain estimate over a compiled snapshot: the Catalog overload's
/// fold over the compiled join kernel, so it matches the Catalog overload
/// bit for bit on the same statistics.
Result<ChainJoinEstimateDetail> ExplainChainJoinSize(
    const CatalogSnapshot& snapshot, std::span<const SnapshotChainStep> steps);

/// \brief As the snapshot ExplainChainJoinSize, final size only.
Result<double> EstimateChainJoinSize(const CatalogSnapshot& snapshot,
                                     std::span<const SnapshotChainStep> steps);

}  // namespace hops
