// Read-optimized compiled form of a CatalogHistogram — the serving layer's
// unit of work (DESIGN.md §7 "Serving path").
//
// A CatalogHistogram stores sorted <value, frequency> pairs (AoS). That is
// the right *storage* layout, but the estimator hits it thousands of times
// per workload, and the hot loops want something denser:
//
//  * a struct-of-arrays split (keys[], freqs[]) so the binary search for an
//    equality probe touches only the dense 8-byte key stream — half the
//    cache-line traffic of searching the 16-byte (value, frequency) pairs
//    (a conditional-move "branch-free" search was tried and rejected; see
//    LowerBound in compiled.cc for the measured story);
//  * precomputed prefix sums so a range predicate becomes two binary
//    searches plus a prefix difference — O(log n) instead of the O(n) scan
//    the naive path performs. This is the paper-adjacent trick of Buccafurri
//    et al.'s tree-like bucket indices, collapsed to one level because the
//    explicit+default catalog form is already flat.
//
// Determinism contract (the serving layer must be *bit-identical* to the
// naive linear-scan estimator):
//
//   The reference implementation sums the in-range frequencies with a fresh
//   Neumaier-Kahan accumulator in ascending value order. A prefix-sum
//   difference reproduces those exact bits only when every addition involved
//   is exact. Compile() therefore classifies the histogram: when all
//   explicit frequencies are nonnegative integers and the running total
//   stays <= 2^53, every partial sum is an exactly-representable integer,
//   the Kahan compensation term is exactly zero at every step, and
//   prefix[j] - prefix[i] equals the fresh Kahan sum bit-for-bit
//   (prefix_exact() == true; this is the catalog's natural
//   BucketAverageMode::kRoundToInteger regime, DB2-style integer counts).
//   Otherwise ExplicitMass falls back to a Kahan scan over just the in-range
//   entries — O(log n + k) with k entries in range, still never the full
//   O(n) scan, and bit-identical by construction.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace hops {

class BucketRefinementTree;
class CatalogHistogram;

/// \brief Immutable struct-of-arrays view of a CatalogHistogram with
/// precomputed (Kahan-accurate) prefix sums. Cheap to share; safe for
/// concurrent readers (no mutable state after Compile).
class CompiledHistogram {
 public:
  CompiledHistogram() = default;

  /// Compiles \p histogram into the read-optimized form.
  static CompiledHistogram Compile(const CatalogHistogram& histogram);

  /// Approximate frequency of \p value: explicit entries hit the flat sorted
  /// key array via binary search, everything else gets the default
  /// frequency. Bit-identical to CatalogHistogram::LookupFrequency.
  double LookupFrequency(int64_t value, bool* is_explicit = nullptr) const;

  /// First index whose key is >= \p value.
  size_t LowerBound(int64_t value) const;

  /// First index whose key is > \p value.
  size_t UpperBound(int64_t value) const;

  /// Index range [begin, end) of explicit keys inside the *closed* interval
  /// [lo, hi]; empty when lo > hi.
  std::pair<size_t, size_t> ExplicitRange(int64_t lo, int64_t hi) const;

  /// Sum of frequencies[begin..end), bit-identical to a fresh Kahan
  /// accumulation over those entries in ascending order: prefix-sum
  /// difference when prefix_exact(), Kahan scan of the subrange otherwise.
  double ExplicitMass(size_t begin, size_t end) const;

  /// True when the prefix-difference fast path is provably bit-identical
  /// (all explicit frequencies are nonnegative integers, total <= 2^53).
  bool prefix_exact() const { return prefix_exact_; }

  std::span<const int64_t> keys() const { return keys_; }
  std::span<const double> frequencies() const { return freqs_; }
  /// prefix_sums()[k] is the (Kahan-accumulated) sum of the first k
  /// frequencies; size num_explicit() + 1.
  std::span<const double> prefix_sums() const { return prefix_; }

  size_t num_explicit() const { return keys_.size(); }
  double default_frequency() const { return default_frequency_; }
  uint64_t num_default_values() const { return num_default_values_; }
  /// Total number of attribute values covered (explicit + default).
  uint64_t num_values() const { return keys_.size() + num_default_values_; }
  /// Total explicit mass (== prefix_sums().back()).
  double explicit_mass_total() const {
    return prefix_.empty() ? 0.0 : prefix_.back();
  }
  /// Estimated total tuple count, matching CatalogHistogram::EstimatedTotal.
  double EstimatedTotal() const;

  /// The source histogram's default-bucket refinement tree, or nullptr —
  /// the learned intra-bucket density the range estimator uses in place of
  /// the uniform-spread assumption (histogram/tuning.h). Shared with the
  /// CatalogHistogram it was compiled from; immutable like everything else
  /// here.
  const BucketRefinementTree* refinement() const { return refinement_.get(); }

 private:
  std::vector<int64_t> keys_;   // sorted
  std::vector<double> freqs_;   // aligned with keys_
  std::vector<double> prefix_;  // size keys_.size() + 1; prefix_[0] == 0
  double default_frequency_ = 0.0;
  uint64_t num_default_values_ = 0;
  bool prefix_exact_ = false;
  std::shared_ptr<const BucketRefinementTree> refinement_;
};

}  // namespace hops
