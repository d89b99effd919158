// Seeded inputs for the benchmark: Zipf columns, predicate streams, update
// deltas, and their wire encodings (JSON and the binary batch frame).
//
// Everything here is a pure function of the seed, so one seed always gives
// the same catalog, the same requests and the same expected answers. The
// library only ever sees the rendered requests and the frequency sets
// handed to RegisterColumn.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/catalog_snapshot.h"
#include "estimator/serving.h"
#include "net/wire_format.h"
#include "truth.h"
#include "util/status.h"

namespace hopsbench {

/// xoshiro256** seeded through splitmix64: small, fast, and identical on
/// every platform (unlike the std:: distributions).
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound);
  /// Uniform in [0, 1).
  double Unit();

 private:
  uint64_t s_[4];
};

/// Draws ranks 0..n-1 with P(rank k) proportional to 1 / (k + 1)^skew.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double skew);
  size_t Draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Counts for a dense domain [0, domain): a Zipf(skew) frequency set over
/// `tuples` tuples (every value keeps at least one tuple), with frequency
/// ranks assigned to values by a seeded random permutation — the paper's
/// "random arrangement" of a Zipf frequency set.
std::vector<int64_t> ZipfCounts(int64_t domain, double skew, int64_t tuples,
                                Rng& rng);

struct ColumnDef {
  std::string table;
  std::string column;
  ColumnTruth truth;
};

struct CatalogShape {
  size_t tables = 1;
  size_t columns_per_table = 1;
  int64_t domain = 1000;
  int64_t tuples = 100000;
  double skew_low = 0.8;   ///< per-column skew drawn from [low, high]
  double skew_high = 1.4;
};

std::vector<ColumnDef> MakeCatalog(const CatalogShape& shape, Rng& rng);

/// One predicate, in the benchmark's own terms (column indices into the
/// catalog definition, not the library's ColumnIds).
struct Spec {
  enum class Kind : uint8_t { kEquality, kNotEquals, kIn, kRange, kJoin };
  Kind kind = Kind::kEquality;
  uint32_t column = 0;
  uint32_t right = 0;  ///< join only
  int64_t a = 0;       ///< literal, or range low
  int64_t b = 0;       ///< range high (inclusive)
  std::vector<int64_t> values;  ///< IN list
};

bool operator==(const Spec& x, const Spec& y);

/// Relative weights of the spec kinds in a generated stream.
struct SpecMix {
  double equality = 1;
  double not_equals = 0;
  double in = 0;
  double range = 0;
  double join = 0;
  size_t in_list = 4;
  double max_range_fraction = 0.05;  ///< widest range, as a domain share
};

/// A fresh predicate: literals uniform over the column's domain, range
/// widths uniform up to the mix's limit, join sides two distinct columns.
Spec DrawSpec(const SpecMix& mix, const std::vector<ColumnDef>& catalog,
              Rng& rng);

/// Exact result size of `spec` under the catalog's current counts.
int64_t TruthOf(const Spec& spec, const std::vector<ColumnDef>& catalog);

/// The library's spec for `spec`, resolved against `snapshot`.
hops::Result<hops::EstimateSpec> ToEstimateSpec(
    const Spec& spec, const std::vector<ColumnDef>& catalog,
    const hops::CatalogSnapshot& snapshot);

/// Binary frame spec (IN has no binary form; callers must not pass it).
hops::net::WireSpec ToWireSpec(const Spec& spec,
                               const std::vector<ColumnDef>& catalog);

/// {"specs":[...]}
std::string EstimateRequestJson(std::span<const Spec> specs,
                                const std::vector<ColumnDef>& catalog);

struct Delta {
  uint32_t column = 0;
  int64_t value = 0;
  int64_t weight = 1;  ///< +1 insert, -1 delete
};

/// {"updates":[{"table":..,"column":..,"value":..,"weight":..},...]}
std::string UpdateRequestJson(std::span<const Delta> deltas,
                              const std::vector<ColumnDef>& catalog);

/// {"reports":[{spec..., "estimated":e, "actual":a},...]}
std::string FeedbackRequestJson(std::span<const Spec> specs,
                                std::span<const double> estimated,
                                std::span<const double> actual,
                                const std::vector<ColumnDef>& catalog);

/// Reads the per-slot answers of a JSON /estimate response: one entry per
/// result object, NaN where the slot carries an error instead of an
/// estimate. Returns false when the document is not a results array.
bool ParseEstimateResults(std::string_view body, std::vector<double>* out);

}  // namespace hopsbench
