#include "estimator/serving.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "engine/catalog.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/math.h"

namespace hops {

double EstimateEqualitySelection(const CompiledColumnStats& stats,
                                 const Value& value) {
  return stats.histogram->LookupFrequency(CatalogKeyFor(value));
}

double EstimateNotEqualsSelection(const CompiledColumnStats& stats,
                                  const Value& value) {
  double eq = EstimateEqualitySelection(stats, value);
  return std::max(0.0, stats.num_tuples - eq);
}

size_t UniqueCatalogKeysFirstOccurrence(std::span<const Value> values,
                                        int64_t* out) {
  // Sort-unique over (key, position) pairs: sort once, keep the smallest
  // position of every key run, then restore first-occurrence order by
  // sorting the survivors on position. Two sorts of a small span beat a
  // heap-allocating hash set on every optimizer probe; spans up to kInline
  // never touch the heap.
  constexpr size_t kInline = 64;
  using KeyAt = std::pair<int64_t, uint32_t>;
  KeyAt inline_buffer[kInline];
  std::vector<KeyAt> heap_buffer;
  KeyAt* keyed = inline_buffer;
  if (values.size() > kInline) {
    heap_buffer.resize(values.size());
    keyed = heap_buffer.data();
  }
  for (size_t i = 0; i < values.size(); ++i) {
    keyed[i] = {CatalogKeyFor(values[i]), static_cast<uint32_t>(i)};
  }
  std::sort(keyed, keyed + values.size());
  // Equal keys sort by ascending position, so the first element of every
  // run is the key's first occurrence.
  size_t unique = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i == 0 || keyed[i].first != keyed[i - 1].first) {
      keyed[unique++] = keyed[i];
    }
  }
  std::sort(keyed, keyed + unique,
            [](const KeyAt& a, const KeyAt& b) { return a.second < b.second; });
  for (size_t i = 0; i < unique; ++i) out[i] = keyed[i].first;
  return unique;
}

double EstimateDisjunctiveSelection(const CompiledColumnStats& stats,
                                    std::span<const Value> values) {
  constexpr size_t kInline = 64;
  int64_t inline_keys[kInline];
  std::vector<int64_t> heap_keys;
  int64_t* keys = inline_keys;
  if (values.size() > kInline) {
    heap_keys.resize(values.size());
    keys = heap_keys.data();
  }
  const size_t unique = UniqueCatalogKeysFirstOccurrence(values, keys);
  KahanSum total;
  for (size_t i = 0; i < unique; ++i) {
    total.Add(stats.histogram->LookupFrequency(keys[i]));
  }
  return total.Value();
}

Result<double> EstimateRangeSelection(const CompiledColumnStats& stats,
                                      const RangeBounds& bounds) {
  // Normalize to a closed interval [lo, hi].
  int64_t lo = bounds.low + (bounds.include_low ? 0 : 1);
  int64_t hi = bounds.high - (bounds.include_high ? 0 : 1);
  if (lo > hi) return 0.0;

  const CompiledHistogram& h = *stats.histogram;
  const auto [begin, end] = h.ExplicitRange(lo, hi);
  KahanSum total;
  if (h.prefix_exact()) {
    // Exact-integer regime: the prefix difference is the same bits as a
    // fresh Kahan scan of the subrange, and adding it to a fresh KahanSum
    // leaves the accumulator in the same (sum, compensation) state the
    // linear oracle's scan reaches. O(log n) total.
    if (end > begin) total.Add(h.ExplicitMass(begin, end));
  } else {
    // Fallback: element-wise Kahan over just the in-range entries, same
    // ascending order and accumulator as the linear reference. O(log n + k).
    const std::span<const double> freqs = h.frequencies();
    for (size_t i = begin; i < end; ++i) total.Add(freqs[i]);
  }
  return internal::FinishRangeEstimate(
      stats.num_tuples, stats.min_value, stats.max_value,
      h.default_frequency(), h.num_default_values(), lo, hi,
      static_cast<int64_t>(end - begin), total, h.refinement());
}

double EstimateEquiJoinSize(const CompiledColumnStats& left,
                            const CompiledColumnStats& right) {
  const CompiledHistogram& hl = *left.histogram;
  const CompiledHistogram& hr = *right.histogram;
  KahanSum total;
  // Merge the two sorted key streams — operation for operation the same as
  // the ColumnStatistics oracle, over the denser struct-of-arrays layout.
  const std::span<const int64_t> kl = hl.keys();
  const std::span<const int64_t> kr = hr.keys();
  const std::span<const double> fl = hl.frequencies();
  const std::span<const double> fr = hr.frequencies();
  size_t i = 0, j = 0;
  size_t matched_explicit = 0;
  while (i < kl.size() && j < kr.size()) {
    if (kl[i] < kr[j]) {
      total.Add(fl[i] * hr.default_frequency());
      ++i;
    } else if (kr[j] < kl[i]) {
      total.Add(fr[j] * hl.default_frequency());
      ++j;
    } else {
      total.Add(fl[i] * fr[j]);
      ++matched_explicit;
      ++i;
      ++j;
    }
  }
  for (; i < kl.size(); ++i) total.Add(fl[i] * hr.default_frequency());
  for (; j < kr.size(); ++j) total.Add(fr[j] * hl.default_frequency());

  const double universe =
      static_cast<double>(std::max(hl.num_values(), hr.num_values()));
  const double consumed =
      static_cast<double>(kl.size() + kr.size() - matched_explicit);
  const double default_common = std::max(0.0, universe - consumed);
  total.Add(default_common * hl.default_frequency() * hr.default_frequency());
  return total.Value();
}

EstimateSpec EstimateSpec::Equality(ColumnId column, Value literal) {
  EstimateSpec spec;
  spec.kind = EstimateKind::kEquality;
  spec.column = column;
  spec.literal = std::move(literal);
  return spec;
}

EstimateSpec EstimateSpec::NotEquals(ColumnId column, Value literal) {
  EstimateSpec spec;
  spec.kind = EstimateKind::kNotEquals;
  spec.column = column;
  spec.literal = std::move(literal);
  return spec;
}

EstimateSpec EstimateSpec::In(ColumnId column, std::vector<Value> in_list) {
  EstimateSpec spec;
  spec.kind = EstimateKind::kDisjunctive;
  spec.column = column;
  spec.in_list = std::move(in_list);
  return spec;
}

EstimateSpec EstimateSpec::Range(ColumnId column, RangeBounds bounds) {
  EstimateSpec spec;
  spec.kind = EstimateKind::kRange;
  spec.column = column;
  spec.bounds = bounds;
  return spec;
}

EstimateSpec EstimateSpec::Join(ColumnId left, ColumnId right) {
  EstimateSpec spec;
  spec.kind = EstimateKind::kJoin;
  spec.join_left = left;
  spec.join_right = right;
  return spec;
}

EstimateSpec EstimateSpec::Chain(std::vector<SnapshotChainStep> steps) {
  EstimateSpec spec;
  spec.kind = EstimateKind::kChain;
  spec.chain = std::move(steps);
  return spec;
}

namespace {

Status CheckColumn(const CatalogSnapshot& snapshot, ColumnId id,
                   const char* role) {
  if (id >= snapshot.num_columns()) {
    return Status::InvalidArgument(
        std::string(role) + " column id " + std::to_string(id) +
        " is outside the snapshot (" +
        std::to_string(snapshot.num_columns()) + " columns)");
  }
  return Status::OK();
}

// Specs per pool task. A request-sized batch (8-32 specs per /estimate
// request in hopsbench's traffic) fits one chunk and runs inline on the
// caller's thread: waking pool helpers for it costs more than the estimates
// themselves (DESIGN.md §6 "Grain-size tuning").
constexpr size_t kSpecsPerTask = 64;

}  // namespace

Result<double> EstimateOne(const CatalogSnapshot& snapshot,
                           const EstimateSpec& spec) {
  switch (spec.kind) {
    case EstimateKind::kEquality:
      HOPS_RETURN_NOT_OK(CheckColumn(snapshot, spec.column, "equality"));
      return EstimateEqualitySelection(snapshot.stats(spec.column),
                                       spec.literal);
    case EstimateKind::kNotEquals:
      HOPS_RETURN_NOT_OK(CheckColumn(snapshot, spec.column, "not-equals"));
      return EstimateNotEqualsSelection(snapshot.stats(spec.column),
                                        spec.literal);
    case EstimateKind::kDisjunctive:
      HOPS_RETURN_NOT_OK(CheckColumn(snapshot, spec.column, "disjunctive"));
      return EstimateDisjunctiveSelection(snapshot.stats(spec.column),
                                          spec.in_list);
    case EstimateKind::kRange:
      HOPS_RETURN_NOT_OK(CheckColumn(snapshot, spec.column, "range"));
      return EstimateRangeSelection(snapshot.stats(spec.column), spec.bounds);
    case EstimateKind::kJoin:
      HOPS_RETURN_NOT_OK(CheckColumn(snapshot, spec.join_left, "join left"));
      HOPS_RETURN_NOT_OK(CheckColumn(snapshot, spec.join_right, "join right"));
      return EstimateEquiJoinSize(snapshot.stats(spec.join_left),
                                  snapshot.stats(spec.join_right));
    case EstimateKind::kChain:
      return EstimateChainJoinSize(snapshot, spec.chain);
  }
  return Status::InvalidArgument("unknown estimate kind");
}

std::vector<Result<double>> EstimateBatch(const CatalogSnapshot& snapshot,
                                          std::span<const EstimateSpec> specs,
                                          ThreadPool* pool) {
  std::vector<Result<double>> results(
      specs.size(), Result<double>(Status::Internal("not estimated")));
  if (specs.empty()) return results;
  // Telemetry (DESIGN.md §9): one span + one sharded counter add per
  // *batch*, never per spec — the per-estimate fast path stays untouched,
  // keeping instrumented overhead within the ≤2% contract measured by
  // bench_estimation's telemetry_overhead block.
  static telemetry::SpanSite& span_site =
      telemetry::GetSpanSite("Serving.EstimateBatch");
  telemetry::TraceSpan span(span_site);
  if (span.recording()) {
    static telemetry::Counter* estimates_total =
        telemetry::MetricRegistry::Global().GetCounter(
            "hops_estimates_total",
            "Estimate specs served through EstimateBatch.");
    static telemetry::Counter* batches_total =
        telemetry::MetricRegistry::Global().GetCounter(
            "hops_estimate_batches_total",
            "EstimateBatch invocations against a catalog snapshot.");
    estimates_total->Increment(specs.size());
    batches_total->Increment();
  }
  if (span.emitting()) {
    span.SetDetail("specs=" + std::to_string(specs.size()));
  }
  // Chunks install the batch span's child context so their spans, opened on
  // pool threads, join this request's trace tree (DESIGN.md §14). When the
  // batch is not being traced this is a cheap invalid context and the chunk
  // spans skip event emission entirely.
  const telemetry::TraceContext chunk_context = span.ChildContext();
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::Global();
  // Each spec writes only its own result slot and chunk boundaries depend
  // only on the batch size, so pool size never changes the bits.
  p.ParallelFor(0, specs.size(), kSpecsPerTask, [&](size_t begin, size_t end) {
    telemetry::TraceContextScope chunk_scope(chunk_context);
    static telemetry::SpanSite& chunk_site =
        telemetry::GetSpanSite("Serving.EstimateChunk");
    telemetry::TraceSpan chunk_span(chunk_site);
    if (chunk_span.emitting()) {
      chunk_span.SetDetail("specs=" + std::to_string(end - begin));
    }
    for (size_t i = begin; i < end; ++i) {
      results[i] = EstimateOne(snapshot, specs[i]);
    }
  });
  return results;
}

Status ReportEstimateOutcome(const CatalogSnapshot& snapshot,
                             const EstimateSpec& spec, double estimated,
                             double actual, EstimationFeedbackSink* sink) {
  if (sink == nullptr) {
    return Status::InvalidArgument("feedback sink must not be null");
  }
  // Validate the magnitudes at the boundary: a single NaN or infinity
  // forwarded into a sink's EWMA sticks there forever (alpha*x + (1-a)*inf
  // stays inf), and a negative "actual" is a caller bug, not a result size.
  if (!std::isfinite(estimated) || estimated < 0) {
    return Status::InvalidArgument(
        "estimated result size must be finite and >= 0");
  }
  if (!std::isfinite(actual) || actual < 0) {
    return Status::InvalidArgument(
        "actual result size must be finite and >= 0");
  }
  static telemetry::SpanSite& span_site =
      telemetry::GetSpanSite("Serving.ReportOutcome");
  telemetry::TraceSpan span(span_site);
  // Collect the distinct columns the spec consulted (tiny spans: a chain of
  // j joins touches 2j ids).
  ColumnId inline_ids[8];
  std::vector<ColumnId> heap_ids;
  ColumnId* ids = inline_ids;
  size_t count = 0;
  switch (spec.kind) {
    case EstimateKind::kEquality:
    case EstimateKind::kNotEquals:
    case EstimateKind::kDisjunctive:
    case EstimateKind::kRange:
      ids[count++] = spec.column;
      break;
    case EstimateKind::kJoin:
      ids[count++] = spec.join_left;
      ids[count++] = spec.join_right;
      break;
    case EstimateKind::kChain: {
      if (2 * spec.chain.size() > 8) {
        heap_ids.resize(2 * spec.chain.size());
        ids = heap_ids.data();
      }
      for (const SnapshotChainStep& step : spec.chain) {
        ids[count++] = step.left;
        ids[count++] = step.right;
      }
      break;
    }
  }
  std::sort(ids, ids + count);
  count = static_cast<size_t>(std::unique(ids, ids + count) - ids);
  for (size_t i = 0; i < count; ++i) {
    HOPS_RETURN_NOT_OK(CheckColumn(snapshot, ids[i], "feedback"));
  }
  // Predicate shape for the self-tuning layer: point and range specs pin a
  // closed interval on their (single) column; everything else reports only
  // the magnitudes.
  PredicateOutcome outcome;
  outcome.kind = spec.kind;
  outcome.estimated = estimated;
  outcome.actual = actual;
  switch (spec.kind) {
    case EstimateKind::kEquality:
    case EstimateKind::kNotEquals:
      outcome.lo = outcome.hi = CatalogKeyFor(spec.literal);
      outcome.has_range = spec.kind == EstimateKind::kEquality;
      break;
    case EstimateKind::kRange: {
      const int64_t lo = spec.bounds.low + (spec.bounds.include_low ? 0 : 1);
      const int64_t hi = spec.bounds.high - (spec.bounds.include_high ? 0 : 1);
      if (lo <= hi) {
        outcome.lo = lo;
        outcome.hi = hi;
        outcome.has_range = true;
      }
      break;
    }
    default:
      break;
  }
  for (size_t i = 0; i < count; ++i) {
    const CompiledColumnStats& stats = snapshot.stats(ids[i]);
    sink->ReportPredicateOutcome(stats.table, stats.column, outcome);
  }
  return Status::OK();
}

}  // namespace hops
