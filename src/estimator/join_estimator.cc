#include "estimator/join_estimator.h"

#include <string>
#include <utility>
#include <vector>

#include "estimator/selectivity.h"
#include "estimator/serving.h"

namespace hops {

namespace {

// The one validation of a name-based chain, shared by the Catalog estimate
// and ResolveChain so both reject exactly the same specs.
Status CheckChainSpecs(std::span<const ChainJoinSpec> specs) {
  if (specs.size() < 2) {
    return Status::InvalidArgument("chain join needs at least two relations");
  }
  if (!specs.front().left_column.empty() ||
      !specs.back().right_column.empty()) {
    return Status::InvalidArgument(
        "first/last chain relations must not declare outer join columns");
  }
  for (size_t i = 0; i + 1 < specs.size(); ++i) {
    if (specs[i].right_column.empty() || specs[i + 1].left_column.empty()) {
      return Status::InvalidArgument(
          "interior join columns must be non-empty (join " +
          std::to_string(i) + ")");
    }
  }
  return Status::OK();
}

// The running-size fold of a chain estimate, a pure function of the
// pairwise join sizes and the size of each join's right-hand relation.
// Attribute independence: the intermediate result keeps the previous
// relation's distribution on the next join attribute, scaled by how much of
// that relation survived.
ChainJoinEstimateDetail FoldChain(std::vector<double> pairwise_sizes,
                                  std::span<const double> right_sizes) {
  ChainJoinEstimateDetail detail;
  detail.running_sizes.reserve(pairwise_sizes.size());
  double running = 0.0;
  double prev_relation_size = 0.0;
  for (size_t i = 0; i < pairwise_sizes.size(); ++i) {
    if (i == 0) {
      running = pairwise_sizes[i];
    } else {
      double scale =
          prev_relation_size > 0 ? running / prev_relation_size : 0.0;
      running = pairwise_sizes[i] * scale;
    }
    // The next join scales by this join's right-hand relation, which
    // becomes its left side.
    prev_relation_size = right_sizes[i];
    detail.running_sizes.push_back(running);
  }
  detail.pairwise_sizes = std::move(pairwise_sizes);
  detail.final_size = running;
  return detail;
}

}  // namespace

Result<ChainJoinEstimateDetail> ExplainChainJoinSize(
    const Catalog& catalog, std::span<const ChainJoinSpec> specs) {
  HOPS_RETURN_NOT_OK(CheckChainSpecs(specs));
  std::vector<double> pairwise, right_sizes;
  for (size_t i = 0; i + 1 < specs.size(); ++i) {
    HOPS_ASSIGN_OR_RETURN(
        ColumnStatistics ls,
        catalog.GetColumnStatistics(specs[i].table, specs[i].right_column));
    HOPS_ASSIGN_OR_RETURN(
        ColumnStatistics rs,
        catalog.GetColumnStatistics(specs[i + 1].table,
                                    specs[i + 1].left_column));
    pairwise.push_back(EstimateEquiJoinSize(ls, rs));
    right_sizes.push_back(rs.num_tuples);
  }
  return FoldChain(std::move(pairwise), right_sizes);
}

Result<double> EstimateChainJoinSize(const Catalog& catalog,
                                     std::span<const ChainJoinSpec> specs) {
  HOPS_ASSIGN_OR_RETURN(ChainJoinEstimateDetail detail,
                        ExplainChainJoinSize(catalog, specs));
  return detail.final_size;
}

Result<std::vector<SnapshotChainStep>> ResolveChain(
    const CatalogSnapshot& snapshot, std::span<const ChainJoinSpec> specs) {
  HOPS_RETURN_NOT_OK(CheckChainSpecs(specs));
  std::vector<SnapshotChainStep> steps;
  steps.reserve(specs.size() - 1);
  for (size_t i = 0; i + 1 < specs.size(); ++i) {
    SnapshotChainStep step;
    HOPS_ASSIGN_OR_RETURN(
        step.left, snapshot.Resolve(specs[i].table, specs[i].right_column));
    HOPS_ASSIGN_OR_RETURN(
        step.right,
        snapshot.Resolve(specs[i + 1].table, specs[i + 1].left_column));
    steps.push_back(step);
  }
  return steps;
}

Result<ChainJoinEstimateDetail> ExplainChainJoinSize(
    const CatalogSnapshot& snapshot,
    std::span<const SnapshotChainStep> steps) {
  if (steps.empty()) {
    return Status::InvalidArgument("chain join needs at least one join step");
  }
  for (const SnapshotChainStep& step : steps) {
    if (step.left >= snapshot.num_columns() ||
        step.right >= snapshot.num_columns()) {
      return Status::InvalidArgument(
          "chain step references a column id outside the snapshot");
    }
  }
  std::vector<double> pairwise, right_sizes;
  pairwise.reserve(steps.size());
  right_sizes.reserve(steps.size());
  for (const SnapshotChainStep& step : steps) {
    const CompiledColumnStats& rs = snapshot.stats(step.right);
    pairwise.push_back(EstimateEquiJoinSize(snapshot.stats(step.left), rs));
    right_sizes.push_back(rs.num_tuples);
  }
  return FoldChain(std::move(pairwise), right_sizes);
}

Result<double> EstimateChainJoinSize(const CatalogSnapshot& snapshot,
                                     std::span<const SnapshotChainStep> steps) {
  HOPS_ASSIGN_OR_RETURN(ChainJoinEstimateDetail detail,
                        ExplainChainJoinSize(snapshot, steps));
  return detail.final_size;
}

}  // namespace hops
