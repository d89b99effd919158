#include "workload.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "util/json.h"

namespace hopsbench {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(42), b(42), c(43);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t x = a.Next();
    EXPECT_EQ(x, b.Next());
    differs = differs || x != c.Next();
  }
  EXPECT_TRUE(differs);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(a.Below(7), 7u);
    const double u = a.Unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(ZipfCountsTest, KeepsEveryValueAndTheSkew) {
  Rng rng(1);
  const std::vector<int64_t> counts = ZipfCounts(1000, 1.0, 100000, rng);
  ASSERT_EQ(counts.size(), 1000u);
  for (int64_t c : counts) EXPECT_GE(c, 1);
  const int64_t total = std::accumulate(counts.begin(), counts.end(), int64_t{0});
  EXPECT_NEAR(static_cast<double>(total), 100000.0, 1000.0);
  std::vector<int64_t> sorted = counts;
  std::sort(sorted.rbegin(), sorted.rend());
  // Zipf(1): rank 1 holds about twice rank 2's tuples.
  EXPECT_NEAR(static_cast<double>(sorted[0]) / sorted[1], 2.0, 0.01);
  Rng same(1);
  EXPECT_EQ(ZipfCounts(1000, 1.0, 100000, same), counts);
}

TEST(ZipfSamplerTest, FavoursLowRanks) {
  Rng rng(3);
  const ZipfSampler sampler(100, 1.0);
  std::vector<int> hits(100);
  for (int i = 0; i < 100000; ++i) ++hits[sampler.Draw(rng)];
  EXPECT_GT(hits[0], hits[1]);
  EXPECT_GT(hits[1], hits[10]);
  EXPECT_NEAR(static_cast<double>(hits[0]) / hits[1], 2.0, 0.15);
}

TEST(RenderTest, EstimateJsonParsesBackToTheSpecs) {
  Rng rng(9);
  const std::vector<ColumnDef> catalog = MakeCatalog({2, 2, 500, 10000}, rng);
  const SpecMix mix{1, 1, 1, 1, 1, 3, 0.1};
  std::vector<Spec> specs;
  for (int i = 0; i < 50; ++i) specs.push_back(DrawSpec(mix, catalog, rng));
  hops::Result<hops::JsonValue> doc =
      hops::ParseJson(EstimateRequestJson(specs, catalog));
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->Find("specs")->AsArray().size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const hops::JsonValue& json = doc->Find("specs")->AsArray()[i];
    const Spec& spec = specs[i];
    if (spec.kind == Spec::Kind::kJoin) {
      EXPECT_EQ(*json.Find("left")->GetString("table"), catalog[spec.column].table);
      EXPECT_EQ(*json.Find("right")->GetString("column"), catalog[spec.right].column);
      EXPECT_NE(spec.column, spec.right);
    } else {
      EXPECT_EQ(*json.GetString("column"), catalog[spec.column].column);
    }
    if (spec.kind == Spec::Kind::kRange) {
      EXPECT_EQ(*json.GetInt("low"), spec.a);
      EXPECT_EQ(*json.GetInt("high"), spec.b);
      EXPECT_LE(spec.a, spec.b);
    }
  }
}

TEST(ParseEstimateResultsTest, ReadsSlotsInOrderWithErrorsAsNaN) {
  const std::string body =
      "{\n  \"snapshot_version\": 3,\n  \"results\": [\n"
      "    {\n      \"estimate\": 12.5\n    },\n"
      "    {\n      \"error\": \"unknown column: t9.c}\"\n    },\n"
      "    {\n      \"estimate\": 0.10000000000000001\n    }\n  ]\n}\n";
  std::vector<double> values;
  ASSERT_TRUE(ParseEstimateResults(body, &values));
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0], 12.5);
  EXPECT_TRUE(std::isnan(values[1]));
  EXPECT_EQ(values[2], 0.1);  // %.17g round-trips bit for bit
  EXPECT_FALSE(ParseEstimateResults("{\"error\": \"bad\"}", &values));
}

}  // namespace
}  // namespace hopsbench
