#include "truth.h"

#include <algorithm>

namespace hopsbench {

ColumnTruth::ColumnTruth(std::vector<int64_t> counts)
    : counts_(std::move(counts)), tree_(counts_.size() + 1, 0) {
  // O(D) Fenwick construction: push each node's sum to its parent.
  for (size_t i = 1; i <= counts_.size(); ++i) {
    tree_[i] += counts_[i - 1];
    total_ += counts_[i - 1];
    const size_t parent = i + (i & (~i + 1));
    if (parent < tree_.size()) tree_[parent] += tree_[i];
  }
}

int64_t ColumnTruth::count(int64_t value) const {
  if (value < 0 || value >= domain()) return 0;
  return counts_[static_cast<size_t>(value)];
}

int64_t ColumnTruth::In(std::span<const int64_t> values) const {
  std::vector<int64_t> distinct(values.begin(), values.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  int64_t sum = 0;
  for (int64_t v : distinct) sum += count(v);
  return sum;
}

int64_t ColumnTruth::Prefix(int64_t end) const {
  end = std::clamp<int64_t>(end, 0, domain());
  int64_t sum = 0;
  for (size_t i = static_cast<size_t>(end); i > 0; i &= i - 1) sum += tree_[i];
  return sum;
}

int64_t ColumnTruth::Range(int64_t low, int64_t high, bool include_low,
                           bool include_high) const {
  const int64_t lo = include_low ? low : low + 1;
  const int64_t hi = include_high ? high : high - 1;
  if (lo > hi) return 0;
  return Prefix(hi + 1) - Prefix(lo);
}

bool ColumnTruth::Apply(int64_t value, int64_t weight) {
  if (value < 0 || value >= domain()) return false;
  int64_t& slot = counts_[static_cast<size_t>(value)];
  if (slot + weight < 0) return false;
  slot += weight;
  total_ += weight;
  for (size_t i = static_cast<size_t>(value) + 1; i < tree_.size();
       i += i & (~i + 1)) {
    tree_[i] += weight;
  }
  return true;
}

int64_t JoinSize(const ColumnTruth& left, const ColumnTruth& right) {
  const size_t n = std::min(left.counts().size(), right.counts().size());
  int64_t sum = 0;
  for (size_t v = 0; v < n; ++v) sum += left.counts()[v] * right.counts()[v];
  return sum;
}

}  // namespace hopsbench
