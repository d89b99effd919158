// Exact result sizes, computed from the benchmark's own frequencies.
//
// The q-error metrics and the /feedback "actual" values must not come from
// the library under test, so the benchmark keeps every column's exact
// per-value counts itself and answers equality, not-equals, IN, range and
// equi-join sizes from them. Columns are dense integer domains [0, D); a
// Fenwick tree keeps range sums O(log D) while deltas stream in, so the
// truth is carried forward through the exact deltas the benchmark sent.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hopsbench {

class ColumnTruth {
 public:
  ColumnTruth() = default;
  /// counts[v] is the number of tuples holding value v.
  explicit ColumnTruth(std::vector<int64_t> counts);

  int64_t domain() const { return static_cast<int64_t>(counts_.size()); }
  int64_t total() const { return total_; }
  int64_t count(int64_t value) const;

  int64_t Equality(int64_t value) const { return count(value); }
  int64_t NotEquals(int64_t value) const { return total_ - count(value); }
  /// Duplicate list entries count once (IN is set membership).
  int64_t In(std::span<const int64_t> values) const;
  /// Tuples with low (<|<=) value (<|<=) high.
  int64_t Range(int64_t low, int64_t high, bool include_low = true,
                bool include_high = true) const;

  /// Adds `weight` tuples (negative removes) of `value`. Values outside the
  /// domain and removals below zero are rejected (returns false).
  bool Apply(int64_t value, int64_t weight);

  const std::vector<int64_t>& counts() const { return counts_; }

 private:
  int64_t Prefix(int64_t end) const;  // sum of counts[0, end)

  std::vector<int64_t> counts_;
  std::vector<int64_t> tree_;  // 1-based Fenwick tree over counts_
  int64_t total_ = 0;
};

/// |A join B| on equal values: sum over v of countA(v) * countB(v).
int64_t JoinSize(const ColumnTruth& left, const ColumnTruth& right);

}  // namespace hopsbench
