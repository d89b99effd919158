// Serving-path estimators: every compiled kernel must be bit-identical to
// the frozen oracles that share none of its code (the decoded
// CatalogHistogram lookup, the linear range scan, the ColumnStatistics join
// merge), and EstimateOne/EstimateBatch must validate ids and preserve spec
// order. EstimateBatch must reproduce a serial EstimateOne loop bit for bit
// on both sides of its chunk boundary.

#include "estimator/serving.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "engine/catalog.h"
#include "engine/catalog_snapshot.h"
#include "engine/predicate.h"
#include "estimator/join_estimator.h"
#include "estimator/predicate_estimator.h"
#include "estimator/selectivity.h"
#include "util/math.h"
#include "util/random.h"

namespace hops {
namespace {

ColumnStatistics MakeStats(double num_tuples,
                           std::vector<std::pair<int64_t, double>> entries,
                           double default_frequency, uint64_t num_default,
                           int64_t min_value, int64_t max_value) {
  ColumnStatistics stats;
  stats.num_tuples = num_tuples;
  stats.num_distinct = entries.size() + num_default;
  stats.min_value = min_value;
  stats.max_value = max_value;
  stats.histogram = *CatalogHistogram::Make(std::move(entries),
                                            default_frequency, num_default);
  return stats;
}

struct Fixture {
  Catalog catalog;
  std::shared_ptr<const CatalogSnapshot> snapshot;
  ColumnStatistics r_a, r_b, s_a, s_b;
  ColumnId r_a_id = 0, r_b_id = 0, s_a_id = 0, s_b_id = 0;

  Fixture() {
    r_a = MakeStats(100.0, {{1, 30.0}, {2, 20.0}, {7, 6.0}}, 6.25, 8, 1, 10);
    // Fractional frequencies: exercises the non-exact prefix fallback.
    r_b = MakeStats(90.0, {{3, 40.5}, {5, 10.25}}, 3.125, 12, 0, 15);
    s_a = MakeStats(60.0, {{2, 25.0}, {7, 9.0}}, 2.0, 13, 1, 20);
    s_b = MakeStats(60.0, {{4, 12.0}}, 4.0, 11, 0, 12);
    catalog.PutColumnStatistics("R", "a", r_a).Check();
    catalog.PutColumnStatistics("R", "b", r_b).Check();
    catalog.PutColumnStatistics("S", "a", s_a).Check();
    catalog.PutColumnStatistics("S", "b", s_b).Check();
    snapshot = *CatalogSnapshot::Compile(catalog);
    r_a_id = *snapshot->Resolve("R", "a");
    r_b_id = *snapshot->Resolve("R", "b");
    s_a_id = *snapshot->Resolve("S", "a");
    s_b_id = *snapshot->Resolve("S", "b");
  }
};

// The point-probe oracle: the decoded (value, frequency) pairs'
// CatalogHistogram::LookupFrequency, which the compiled kernels never call.
double LookupOracle(const ColumnStatistics& stats, const Value& value) {
  return stats.histogram.LookupFrequency(CatalogKeyFor(value));
}

TEST(ServingTest, EqualityMatchesLegacyBitForBit) {
  Fixture f;
  for (int64_t v = -3; v <= 25; ++v) {
    const Value probe(v);
    EXPECT_EQ(EstimateEqualitySelection(f.snapshot->stats(f.r_a_id), probe),
              LookupOracle(f.r_a, probe))
        << v;
    EXPECT_EQ(EstimateNotEqualsSelection(f.snapshot->stats(f.r_b_id), probe),
              std::max(0.0, f.r_b.num_tuples - LookupOracle(f.r_b, probe)))
        << v;
    // The ColumnStatistics adapters reach the same kernels.
    EXPECT_EQ(EstimateEqualitySelection(f.r_a, probe),
              LookupOracle(f.r_a, probe))
        << v;
  }
}

TEST(ServingTest, DisjunctiveMatchesLegacyBitForBit) {
  Fixture f;
  std::vector<Value> values = {Value(int64_t{2}), Value(int64_t{9}),
                               Value(int64_t{2}), Value(int64_t{1}),
                               Value(int64_t{9}), Value(int64_t{-4})};
  // Oracle: each distinct key once, Kahan-summed in first-occurrence order
  // (2, 9, 1, -4).
  for (auto [stats, id] :
       {std::pair{&f.r_a, f.r_a_id}, std::pair{&f.r_b, f.r_b_id}}) {
    KahanSum oracle;
    for (int64_t key : {2, 9, 1, -4}) {
      oracle.Add(LookupOracle(*stats, Value(key)));
    }
    EXPECT_EQ(EstimateDisjunctiveSelection(f.snapshot->stats(id), values),
              oracle.Value());
    EXPECT_EQ(EstimateDisjunctiveSelection(*stats, values), oracle.Value());
  }
}

TEST(ServingTest, RangeMatchesLegacyBitForBit) {
  Fixture f;
  for (int64_t lo = -2; lo <= 12; ++lo) {
    for (int64_t hi = lo - 1; hi <= 14; ++hi) {
      for (int mask = 0; mask < 4; ++mask) {
        const RangeBounds bounds{lo, hi, (mask & 1) != 0, (mask & 2) != 0};
        for (auto [stats, id] :
             {std::pair{&f.r_a, f.r_a_id}, std::pair{&f.r_b, f.r_b_id}}) {
          auto legacy = EstimateRangeSelectionLinear(*stats, bounds);
          auto serving =
              EstimateRangeSelection(f.snapshot->stats(id), bounds);
          auto adapter = EstimateRangeSelection(*stats, bounds);
          ASSERT_EQ(legacy.ok(), serving.ok());
          ASSERT_EQ(legacy.ok(), adapter.ok());
          if (legacy.ok()) {
            EXPECT_EQ(*legacy, *serving)
                << "[" << lo << "," << hi << "] mask " << mask;
            EXPECT_EQ(*legacy, *adapter)
                << "[" << lo << "," << hi << "] mask " << mask;
          }
        }
      }
    }
  }
}

TEST(ServingTest, EquiJoinMatchesLegacyBitForBit) {
  Fixture f;
  EXPECT_EQ(EstimateEquiJoinSize(f.snapshot->stats(f.r_a_id),
                                 f.snapshot->stats(f.s_a_id)),
            EstimateEquiJoinSize(f.r_a, f.s_a));
  EXPECT_EQ(EstimateEquiJoinSize(f.snapshot->stats(f.r_b_id),
                                 f.snapshot->stats(f.s_b_id)),
            EstimateEquiJoinSize(f.r_b, f.s_b));
}

TEST(ServingTest, ChainMatchesLegacyBitForBit) {
  Fixture f;
  std::vector<ChainJoinSpec> specs = {
      {"R", "", "b"}, {"S", "a", "b"}, {"R", "a", ""}};
  auto legacy = ExplainChainJoinSize(f.catalog, specs);
  ASSERT_TRUE(legacy.ok());

  auto steps = ResolveChain(*f.snapshot, specs);
  ASSERT_TRUE(steps.ok());
  auto served = ExplainChainJoinSize(*f.snapshot, *steps);
  ASSERT_TRUE(served.ok());
  ASSERT_EQ(legacy->pairwise_sizes.size(), served->pairwise_sizes.size());
  for (size_t i = 0; i < legacy->pairwise_sizes.size(); ++i) {
    EXPECT_EQ(legacy->pairwise_sizes[i], served->pairwise_sizes[i]);
    EXPECT_EQ(legacy->running_sizes[i], served->running_sizes[i]);
  }
  EXPECT_EQ(legacy->final_size, served->final_size);
}

TEST(ServingTest, ResolveChainValidatesLikeLegacy) {
  Fixture f;
  // Too short.
  std::vector<ChainJoinSpec> one = {{"R", "", ""}};
  EXPECT_FALSE(ResolveChain(*f.snapshot, one).ok());
  // Outer columns must be empty.
  std::vector<ChainJoinSpec> outer = {{"R", "a", "b"}, {"S", "a", ""}};
  EXPECT_FALSE(ResolveChain(*f.snapshot, outer).ok());
  // Interior columns must be non-empty.
  std::vector<ChainJoinSpec> interior = {{"R", "", ""}, {"S", "a", ""}};
  EXPECT_FALSE(ResolveChain(*f.snapshot, interior).ok());
  // Unknown column.
  std::vector<ChainJoinSpec> unknown = {{"R", "", "zzz"}, {"S", "a", ""}};
  EXPECT_FALSE(ResolveChain(*f.snapshot, unknown).ok());
}

TEST(ServingTest, EstimateOneRejectsBadIds) {
  Fixture f;
  const ColumnId bad = static_cast<ColumnId>(f.snapshot->num_columns());
  EXPECT_FALSE(
      EstimateOne(*f.snapshot, EstimateSpec::Equality(bad, Value(int64_t{1})))
          .ok());
  EXPECT_FALSE(
      EstimateOne(*f.snapshot, EstimateSpec::Join(f.r_a_id, bad)).ok());
  EXPECT_FALSE(EstimateOne(*f.snapshot,
                           EstimateSpec::Chain({SnapshotChainStep{bad, bad}}))
                   .ok());
  EXPECT_FALSE(EstimateOne(*f.snapshot, EstimateSpec::Chain({})).ok());
}

TEST(ServingTest, EstimateBatchMatchesSerialLoop) {
  Fixture f;
  std::vector<EstimateSpec> specs;
  specs.push_back(EstimateSpec::Equality(f.r_a_id, Value(int64_t{2})));
  specs.push_back(EstimateSpec::NotEquals(f.r_b_id, Value(int64_t{3})));
  specs.push_back(EstimateSpec::In(
      f.r_a_id, {Value(int64_t{1}), Value(int64_t{7}), Value(int64_t{1})}));
  specs.push_back(EstimateSpec::Range(f.r_a_id, RangeBounds{1, 8, true, false}));
  specs.push_back(EstimateSpec::Join(f.r_a_id, f.s_a_id));
  std::vector<ChainJoinSpec> chain_specs = {
      {"R", "", "b"}, {"S", "a", "b"}, {"R", "a", ""}};
  specs.push_back(EstimateSpec::Chain(*ResolveChain(*f.snapshot, chain_specs)));
  // One failing spec in the middle: the batch must not abort.
  specs.insert(specs.begin() + 2,
               EstimateSpec::Equality(static_cast<ColumnId>(999),
                                      Value(int64_t{0})));

  std::vector<Result<double>> batched = EstimateBatch(*f.snapshot, specs);
  ASSERT_EQ(batched.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    Result<double> serial = EstimateOne(*f.snapshot, specs[i]);
    ASSERT_EQ(serial.ok(), batched[i].ok()) << "spec " << i;
    if (serial.ok()) {
      EXPECT_EQ(*serial, *batched[i]) << "spec " << i;
    }
  }
  EXPECT_FALSE(batched[2].ok());
}

TEST(ServingTest, EstimateBatchEmptyAndExplicitPool) {
  Fixture f;
  EXPECT_TRUE(EstimateBatch(*f.snapshot, {}).empty());
  ThreadPool pool(2);
  std::vector<EstimateSpec> specs(
      37, EstimateSpec::Equality(f.r_a_id, Value(int64_t{1})));
  std::vector<Result<double>> results = EstimateBatch(*f.snapshot, specs, &pool);
  ASSERT_EQ(results.size(), specs.size());
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, 30.0);
  }
}

// A column with a few hundred keys and uneven gaps between them.
ColumnStatistics BigColumn(size_t n, uint64_t salt) {
  std::vector<std::pair<int64_t, double>> entries;
  entries.reserve(n);
  int64_t key = -50;
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double f = static_cast<double>(1 + (i * 13 + salt) % 17);
    entries.emplace_back(key, f);
    total += f;
    key += 1 + static_cast<int64_t>((i * 3 + salt) % 7);
  }
  ColumnStatistics stats;
  stats.num_tuples = total + 2.0 * 25.0;
  stats.num_distinct = n + 25;
  stats.min_value = -50;
  stats.max_value = key + 10;
  stats.histogram = *CatalogHistogram::Make(std::move(entries), 2.0, 25);
  return stats;
}

struct MixedFixture {
  Catalog catalog;
  std::shared_ptr<const CatalogSnapshot> snapshot;
  ColumnId big = 0, frac = 0, small = 0;

  MixedFixture() {
    catalog.PutColumnStatistics("T", "big", BigColumn(300, 5)).Check();
    // Fractional frequencies: the Kahan (non-exact-prefix) range path.
    catalog
        .PutColumnStatistics(
            "T", "frac",
            MakeStats(90.0, {{3, 40.5}, {5, 10.25}, {9, 1.5}}, 3.125, 12, 0,
                      15))
        .Check();
    catalog
        .PutColumnStatistics(
            "T", "small", MakeStats(50.0, {{1, 10.0}, {4, 20.0}}, 4.0, 5, 0, 9))
        .Check();
    snapshot = *CatalogSnapshot::Compile(catalog);
    big = *snapshot->Resolve("T", "big");
    frac = *snapshot->Resolve("T", "frac");
    small = *snapshot->Resolve("T", "small");
  }
};

// Every spec kind and edge case, shuffled with a fixed seed so each kind
// lands on both sides of the 64-spec chunk boundary.
std::vector<EstimateSpec> MixedSpecs(const MixedFixture& f) {
  std::vector<EstimateSpec> specs;
  // Point probes: hits, misses, and the not-equals complement.
  for (int64_t v = -60; v <= 60; v += 3) {
    specs.push_back(EstimateSpec::Equality(f.big, Value(v)));
    specs.push_back(EstimateSpec::NotEquals(f.big, Value(v + 1)));
    specs.push_back(EstimateSpec::Equality(f.frac, Value(v % 16)));
  }
  // A string literal routes through the hashed catalog key.
  specs.push_back(EstimateSpec::Equality(f.small, Value(std::string("x"))));
  // Ranges: inclusive/exclusive mixes, inverted (empty), single point, and
  // the fractional column's Kahan path.
  for (int mask = 0; mask < 4; ++mask) {
    specs.push_back(EstimateSpec::Range(
        f.big, RangeBounds{-10, 200, (mask & 1) != 0, (mask & 2) != 0}));
    specs.push_back(EstimateSpec::Range(
        f.frac, RangeBounds{2, 9, (mask & 1) != 0, (mask & 2) != 0}));
  }
  specs.push_back(EstimateSpec::Range(f.big, RangeBounds{50, 40, true, true}));
  specs.push_back(EstimateSpec::Range(f.big, RangeBounds{7, 7, true, true}));
  // IN-lists, joins, and duplicate chains.
  specs.push_back(EstimateSpec::In(
      f.big, {Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{1})}));
  specs.push_back(EstimateSpec::Join(f.big, f.frac));
  specs.push_back(EstimateSpec::Chain(
      {SnapshotChainStep{f.big, f.frac}, SnapshotChainStep{f.frac, f.small}}));
  specs.push_back(EstimateSpec::Chain(
      {SnapshotChainStep{f.big, f.frac}, SnapshotChainStep{f.frac, f.small}}));
  // Failures keep their slots: an id outside the snapshot.
  specs.push_back(EstimateSpec::Equality(ColumnId{999}, Value(int64_t{1})));
  specs.push_back(EstimateSpec::Range(ColumnId{999},
                                      RangeBounds{0, 1, true, true}));
  Rng rng(0x5eed);
  rng.Shuffle(&specs);
  return specs;
}

TEST(ServingTest, BatchIsBitIdenticalToSerialLoopAcrossChunks) {
  MixedFixture f;
  const std::vector<EstimateSpec> mixed = MixedSpecs(f);
  ThreadPool serial_pool(1);
  ThreadPool pool(3);
  // 63/64/65 straddle the 64-spec chunk boundary; 300 spans several chunks
  // and repeats every mixed spec at least twice.
  for (size_t n : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                   size_t{300}}) {
    std::vector<EstimateSpec> specs;
    for (size_t i = 0; i < n; ++i) specs.push_back(mixed[i % mixed.size()]);
    for (ThreadPool* p : {&serial_pool, &pool}) {
      SCOPED_TRACE("batch of " + std::to_string(n) + " on " +
                   std::to_string(p->num_threads()) + " threads");
      const std::vector<Result<double>> batched =
          EstimateBatch(*f.snapshot, specs, p);
      ASSERT_EQ(batched.size(), specs.size());
      for (size_t i = 0; i < specs.size(); ++i) {
        const Result<double> one = EstimateOne(*f.snapshot, specs[i]);
        ASSERT_EQ(batched[i].ok(), one.ok()) << "spec " << i;
        if (one.ok()) {
          // Bit-identical, not just equal.
          const double a = *batched[i];
          const double b = *one;
          EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0) << "spec " << i;
        } else {
          EXPECT_EQ(batched[i].status().code(), one.status().code())
              << "spec " << i;
        }
      }
    }
  }
}

TEST(ServingTest, PredicateCardinalityMatchesCatalogOverload) {
  Fixture f;
  Predicate predicate = Predicate::Of(
      {Comparison{"a", PredicateOp::kEqual, Value(int64_t{2}), {}},
       Comparison{"b", PredicateOp::kLess, Value(int64_t{9}), {}}});
  auto legacy = EstimatePredicateCardinality(f.catalog, "R", predicate);
  auto served = EstimatePredicateCardinality(*f.snapshot, "R", predicate);
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(*legacy, *served);
}

// --- Feedback hook (EstimationFeedbackSink / ReportEstimateOutcome) -------

class RecordingSink : public EstimationFeedbackSink {
 public:
  struct Report {
    std::string table;
    std::string column;
    double estimated;
    double actual;
  };

  void ReportEstimationError(std::string_view table, std::string_view column,
                             double estimated, double actual) override {
    reports.push_back(Report{std::string(table), std::string(column),
                             estimated, actual});
  }

  std::vector<Report> reports;
};

TEST(ServingFeedbackTest, SelectionReportsItsColumn) {
  Fixture f;
  RecordingSink sink;
  EstimateSpec spec = EstimateSpec::Equality(f.r_a_id, Value(int64_t{2}));
  ASSERT_TRUE(
      ReportEstimateOutcome(*f.snapshot, spec, 20.0, 25.0, &sink).ok());
  ASSERT_EQ(sink.reports.size(), 1u);
  EXPECT_EQ(sink.reports[0].table, "R");
  EXPECT_EQ(sink.reports[0].column, "a");
  EXPECT_DOUBLE_EQ(sink.reports[0].estimated, 20.0);
  EXPECT_DOUBLE_EQ(sink.reports[0].actual, 25.0);
}

TEST(ServingFeedbackTest, JoinReportsBothSidesOnce) {
  Fixture f;
  RecordingSink sink;
  EstimateSpec spec = EstimateSpec::Join(f.r_a_id, f.s_a_id);
  ASSERT_TRUE(
      ReportEstimateOutcome(*f.snapshot, spec, 100.0, 80.0, &sink).ok());
  ASSERT_EQ(sink.reports.size(), 2u);
  // Ids are deduplicated and reported in id order.
  EXPECT_EQ(sink.reports[0].table, "R");
  EXPECT_EQ(sink.reports[1].table, "S");

  // A self-join consults one column: exactly one report.
  sink.reports.clear();
  EstimateSpec self_join = EstimateSpec::Join(f.r_a_id, f.r_a_id);
  ASSERT_TRUE(
      ReportEstimateOutcome(*f.snapshot, self_join, 9.0, 9.0, &sink).ok());
  EXPECT_EQ(sink.reports.size(), 1u);
}

TEST(ServingFeedbackTest, ChainReportsEveryDistinctColumn) {
  Fixture f;
  RecordingSink sink;
  std::vector<SnapshotChainStep> steps = {{f.r_a_id, f.s_a_id},
                                          {f.s_b_id, f.r_b_id}};
  EstimateSpec spec = EstimateSpec::Chain(std::move(steps));
  ASSERT_TRUE(
      ReportEstimateOutcome(*f.snapshot, spec, 50.0, 60.0, &sink).ok());
  EXPECT_EQ(sink.reports.size(), 4u);
}

TEST(ServingFeedbackTest, ValidatesSinkAndIds) {
  Fixture f;
  RecordingSink sink;
  EstimateSpec spec = EstimateSpec::Equality(f.r_a_id, Value(int64_t{2}));
  EXPECT_TRUE(ReportEstimateOutcome(*f.snapshot, spec, 1.0, 1.0, nullptr)
                  .IsInvalidArgument());
  EstimateSpec bad = EstimateSpec::Equality(
      static_cast<ColumnId>(f.snapshot->num_columns()), Value(int64_t{2}));
  EXPECT_TRUE(ReportEstimateOutcome(*f.snapshot, bad, 1.0, 1.0, &sink)
                  .IsInvalidArgument());
  EXPECT_TRUE(sink.reports.empty());  // nothing reported on failure
}

TEST(ServingFeedbackTest, RejectsNonFiniteAndNegativeMagnitudes) {
  // Regression: a NaN or infinity forwarded into a sink's EWMA poisons it
  // permanently (alpha*x + (1-alpha)*inf stays inf), so the boundary must
  // reject bad magnitudes before any sink sees them.
  Fixture f;
  RecordingSink sink;
  EstimateSpec spec = EstimateSpec::Equality(f.r_a_id, Value(int64_t{2}));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {nan, inf, -inf, -1.0}) {
    EXPECT_TRUE(ReportEstimateOutcome(*f.snapshot, spec, bad, 25.0, &sink)
                    .IsInvalidArgument());
    EXPECT_TRUE(ReportEstimateOutcome(*f.snapshot, spec, 20.0, bad, &sink)
                    .IsInvalidArgument());
  }
  EXPECT_TRUE(sink.reports.empty());  // the sink never saw a bad value

  // Zero is a legitimate result size (empty result), not an error; the
  // q-error tracker clamps it to the one-tuple floor downstream.
  EXPECT_TRUE(ReportEstimateOutcome(*f.snapshot, spec, 0.0, 0.0, &sink).ok());
  EXPECT_EQ(sink.reports.size(), 1u);
}

}  // namespace
}  // namespace hops
