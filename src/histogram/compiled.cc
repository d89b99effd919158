#include "histogram/compiled.h"

#include <algorithm>
#include <cmath>

#include "histogram/serialization.h"
#include "util/math.h"

namespace hops {

namespace {

// Largest total under which every partial sum of nonnegative integer
// frequencies is an exactly-representable integer (2^53). At or below this
// bound double addition is error-free, so the Kahan compensation term stays
// exactly zero and prefix differences reproduce a fresh Kahan scan
// bit-for-bit (see the header's determinism contract).
constexpr double kMaxExactMass = 9007199254740992.0;  // 2^53

}  // namespace

CompiledHistogram CompiledHistogram::Compile(const CatalogHistogram& histogram) {
  CompiledHistogram out;
  const auto& entries = histogram.explicit_entries();
  out.keys_.reserve(entries.size());
  out.freqs_.reserve(entries.size());
  out.prefix_.reserve(entries.size() + 1);
  out.prefix_.push_back(0.0);
  KahanSum running;
  bool exact = true;
  for (const auto& [value, freq] : entries) {
    out.keys_.push_back(value);
    out.freqs_.push_back(freq);
    // Frequencies are validated finite and >= 0 by CatalogHistogram::Make;
    // exactness additionally needs them integral and small enough.
    exact = exact && freq <= kMaxExactMass && std::floor(freq) == freq;
    running.Add(freq);
    out.prefix_.push_back(running.Value());
  }
  // Frequencies are nonnegative, so the total bounds every partial sum.
  exact = exact && running.Value() <= kMaxExactMass;
  out.prefix_exact_ = exact;
  out.default_frequency_ = histogram.default_frequency();
  out.num_default_values_ = histogram.num_default_values();
  out.refinement_ = histogram.refinement();
  return out;
}

size_t CompiledHistogram::LowerBound(int64_t value) const {
  // Branchy binary search over the dense key array. A conditional-move
  // ("branch-free") loop was tried here first and *lost* to the legacy
  // decoded path on large histograms: the cmov makes every iteration's load
  // data-dependent on the previous one, so the CPU cannot speculate ahead
  // and overlap the cache misses — serialized memory latency outweighs the
  // branch-misprediction win, even with both next-midpoint prefetches
  // issued per step. The branchy loop lets the core run several levels
  // ahead speculatively (a mispredicted level costs a flush, a serialized
  // level always costs a full memory round-trip), and the dense 8-byte
  // key stride touches half the cache lines of the legacy
  // std::lower_bound over 16-byte (value, frequency) pairs — which is what
  // makes the compiled path strictly faster than the decoded one on
  // point lookups (bench_estimation's point_heavy workload). An
  // interleaved multi-probe search over an Eytzinger copy of the keys was
  // also tried for batches and deleted (DESIGN.md §12): request-sized
  // batches rarely carry enough same-column probes to fill its lanes.
  return static_cast<size_t>(
      std::lower_bound(keys_.begin(), keys_.end(), value) - keys_.begin());
}

size_t CompiledHistogram::UpperBound(int64_t value) const {
  return static_cast<size_t>(
      std::upper_bound(keys_.begin(), keys_.end(), value) - keys_.begin());
}

std::pair<size_t, size_t> CompiledHistogram::ExplicitRange(int64_t lo,
                                                           int64_t hi) const {
  if (lo > hi) return {0, 0};
  const size_t begin = LowerBound(lo);
  const size_t end = UpperBound(hi);
  return {begin, end < begin ? begin : end};
}

double CompiledHistogram::ExplicitMass(size_t begin, size_t end) const {
  if (end <= begin) return 0.0;
  if (prefix_exact_) return prefix_[end] - prefix_[begin];
  KahanSum sum;
  for (size_t i = begin; i < end; ++i) sum.Add(freqs_[i]);
  return sum.Value();
}

double CompiledHistogram::LookupFrequency(int64_t value,
                                          bool* is_explicit) const {
  const size_t index = LowerBound(value);
  if (index < keys_.size() && keys_[index] == value) {
    if (is_explicit != nullptr) *is_explicit = true;
    return freqs_[index];
  }
  if (is_explicit != nullptr) *is_explicit = false;
  return default_frequency_;
}

double CompiledHistogram::EstimatedTotal() const {
  // Same association as CatalogHistogram::EstimatedTotal: default mass
  // first, then the explicit frequencies in ascending value order, plain
  // (non-compensated) addition.
  double total = default_frequency_ * static_cast<double>(num_default_values_);
  for (double freq : freqs_) total += freq;
  return total;
}

}  // namespace hops
