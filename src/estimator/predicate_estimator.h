// Cardinality estimation for conjunctive predicates from catalog
// statistics: per-comparison selectivities from the column histograms,
// combined under the classical attribute-independence assumption (unless a
// joint statistic for a column pair is available in the catalog, in which
// case equality pairs use it — correlation-aware, Muralikrishna & DeWitt
// style).
//
// Both overloads run one estimation body over the compiled kernels of
// estimator/serving.h; they differ only in how a column's statistics are
// found. The Catalog overload decodes and compiles each column per call
// (CompileColumnStats); the snapshot overload resolves it to a dense id.
// The frozen oracles these kernels are tested against are listed in
// serving.h.

#pragma once

#include <string>

#include "engine/catalog.h"
#include "engine/catalog_snapshot.h"
#include "engine/predicate.h"
#include "util/status.h"

namespace hops {

/// \brief Estimated |sigma_predicate(table)|.
///
/// Every referenced column needs statistics in the catalog. Equality pairs
/// over columns (a, b) with joint statistics stored under "a+b" are
/// estimated jointly; every remaining comparison contributes an independent
/// selectivity factor. Ordered comparisons require int64 columns.
Result<double> EstimatePredicateCardinality(const Catalog& catalog,
                                            const std::string& table,
                                            const Predicate& predicate);

/// \brief As above, over a compiled snapshot (estimator/serving.h), with zero
/// histogram decodes per call.
Result<double> EstimatePredicateCardinality(const CatalogSnapshot& snapshot,
                                            const std::string& table,
                                            const Predicate& predicate);

}  // namespace hops
