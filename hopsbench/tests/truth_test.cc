#include "truth.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "workload.h"

namespace hopsbench {
namespace {

// Brute-force reference over the raw counts.
int64_t NaiveRange(const std::vector<int64_t>& counts, int64_t lo, int64_t hi) {
  int64_t sum = 0;
  for (int64_t v = std::max<int64_t>(lo, 0);
       v <= hi && v < static_cast<int64_t>(counts.size()); ++v) {
    sum += counts[static_cast<size_t>(v)];
  }
  return sum;
}

TEST(ColumnTruthTest, AnswersEveryPredicateKind) {
  const ColumnTruth truth({5, 0, 3, 7, 1});
  EXPECT_EQ(truth.total(), 16);
  EXPECT_EQ(truth.Equality(3), 7);
  EXPECT_EQ(truth.Equality(1), 0);
  EXPECT_EQ(truth.Equality(-1), 0);
  EXPECT_EQ(truth.Equality(5), 0);
  EXPECT_EQ(truth.NotEquals(3), 9);
  EXPECT_EQ(truth.NotEquals(99), 16);
  const std::vector<int64_t> in = {0, 3, 3, 42};
  EXPECT_EQ(truth.In(in), 12);  // duplicates count once, 42 is absent
  EXPECT_EQ(truth.Range(1, 3), 10);
  EXPECT_EQ(truth.Range(1, 3, false, true), 10);
  EXPECT_EQ(truth.Range(0, 3, false, false), 3);
  EXPECT_EQ(truth.Range(-10, 10), 16);
  EXPECT_EQ(truth.Range(4, 2), 0);
  EXPECT_EQ(truth.Range(2, 2, false, true), 0);
}

TEST(ColumnTruthTest, CarriesTheTruthThroughDeltas) {
  ColumnTruth truth({2, 2, 2});
  EXPECT_TRUE(truth.Apply(1, +3));
  EXPECT_TRUE(truth.Apply(0, -2));
  EXPECT_FALSE(truth.Apply(0, -1));  // would go negative
  EXPECT_FALSE(truth.Apply(3, +1));  // outside the domain
  EXPECT_FALSE(truth.Apply(-1, +1));
  EXPECT_EQ(truth.Equality(0), 0);
  EXPECT_EQ(truth.Equality(1), 5);
  EXPECT_EQ(truth.total(), 7);
  EXPECT_EQ(truth.Range(0, 1), 5);
  EXPECT_EQ(truth.NotEquals(1), 2);
}

TEST(ColumnTruthTest, FenwickMatchesBruteForceUnderRandomDeltas) {
  Rng rng(7);
  std::vector<int64_t> counts(257);
  for (int64_t& c : counts) c = static_cast<int64_t>(rng.Below(20));
  ColumnTruth truth(counts);
  for (int step = 0; step < 5000; ++step) {
    const int64_t v = static_cast<int64_t>(rng.Below(counts.size()));
    const int64_t w = rng.Below(2) == 0 ? 1 : -1;
    const bool applied = truth.Apply(v, w);
    EXPECT_EQ(applied, counts[static_cast<size_t>(v)] + w >= 0);
    if (applied) counts[static_cast<size_t>(v)] += w;
    const int64_t lo = static_cast<int64_t>(rng.Below(300)) - 20;
    const int64_t hi = lo + static_cast<int64_t>(rng.Below(100));
    ASSERT_EQ(truth.Range(lo, hi), NaiveRange(counts, lo, hi)) << step;
  }
}

TEST(JoinSizeTest, SumsProductsOfMatchingCounts) {
  const ColumnTruth left({1, 2, 3});
  const ColumnTruth right({4, 0, 5, 9});  // value 3 has no partner
  EXPECT_EQ(JoinSize(left, right), 1 * 4 + 2 * 0 + 3 * 5);
  EXPECT_EQ(JoinSize(right, left), JoinSize(left, right));
}

TEST(TruthOfTest, RoutesSpecsToTheirColumns) {
  std::vector<ColumnDef> catalog(2);
  catalog[0].truth = ColumnTruth({3, 1, 4});
  catalog[1].truth = ColumnTruth({1, 5, 9});
  Spec eq;
  eq.kind = Spec::Kind::kEquality;
  eq.column = 1;
  eq.a = 2;
  EXPECT_EQ(TruthOf(eq, catalog), 9);
  Spec range;
  range.kind = Spec::Kind::kRange;
  range.column = 0;
  range.a = 1;
  range.b = 2;
  EXPECT_EQ(TruthOf(range, catalog), 5);
  Spec join;
  join.kind = Spec::Kind::kJoin;
  join.column = 0;
  join.right = 1;
  EXPECT_EQ(TruthOf(join, catalog), 3 * 1 + 1 * 5 + 4 * 9);
  Spec in;
  in.kind = Spec::Kind::kIn;
  in.column = 0;
  in.values = {0, 2};
  EXPECT_EQ(TruthOf(in, catalog), 7);
  Spec ne;
  ne.kind = Spec::Kind::kNotEquals;
  ne.column = 0;
  ne.a = 0;
  EXPECT_EQ(TruthOf(ne, catalog), 5);
}

}  // namespace
}  // namespace hopsbench
