#include "refresh/self_tuner.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string_view>

#include "histogram/serialization.h"
#include "telemetry/accuracy.h"
#include "util/status.h"

namespace hops {

namespace {

bool EnvTruthy(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return false;
  const std::string_view v(raw);
  return v == "1" || v == "on" || v == "ON" || v == "true" || v == "TRUE" ||
         v == "On" || v == "True";
}

}  // namespace

SelfTuneOptions SelfTuneOptions::FromEnv() {
  SelfTuneOptions options;
  options.enabled = EnvTruthy("HOPS_SELFTUNE");
  return options;
}

bool SelfTuner::Observe(SelfTuneColumnState* state,
                        const PredicateOutcome& outcome) const {
  if (!options_.enabled || state == nullptr) return false;
  // Only outcomes that pin down a value interval are actionable: the update
  // rule needs to know *where* the error happened.
  if (!outcome.has_range || outcome.lo > outcome.hi) return false;
  if (!std::isfinite(outcome.estimated) || outcome.estimated < 0 ||
      !std::isfinite(outcome.actual) || outcome.actual < 0) {
    return false;
  }
  if (telemetry::QError(outcome.estimated, outcome.actual) <
      options_.min_qerror) {
    return false;
  }
  if (state->pending.size() >= options_.max_pending) {
    ++state->dropped;
    return false;
  }
  TuningObservation obs;
  obs.kind = outcome.kind;
  obs.lo = outcome.lo;
  obs.hi = outcome.hi;
  obs.estimated = outcome.estimated;
  obs.actual = outcome.actual;
  state->pending.push_back(obs);
  ++state->observations;
  return true;
}

Result<SelfTuneReport> SelfTuner::TuneColumn(SelfTuneColumnState* state,
                                             CatalogHistogram* histogram,
                                             int64_t min_value,
                                             int64_t max_value) const {
  SelfTuneReport report;
  if (state == nullptr || histogram == nullptr) {
    return Status::InvalidArgument("TuneColumn requires state and histogram");
  }
  if (!options_.enabled || state->pending.empty()) {
    state->pending.clear();
    return report;
  }

  size_t promotions_this_tick = 0;
  for (const TuningObservation& obs : state->pending) {
    TuningDelta delta;
    if (obs.lo == obs.hi) {
      // Point feedback: the observed actual is (approximately) the true
      // frequency of one value. Fold a damped fraction of the discrepancy
      // into wherever the histogram keeps that value's mass.
      const int64_t value = obs.lo;
      bool is_explicit = false;
      const double stored = histogram->LookupFrequency(value, &is_explicit);
      const double error = obs.actual - stored;
      if (error == 0.0) continue;
      if (is_explicit) {
        TuningDelta::ExplicitAdjust adjust;
        adjust.value = value;
        adjust.delta = options_.damping * error;
        delta.explicit_adjustments.push_back(adjust);
      } else if (histogram->num_default_values() > 0) {
        const double default_freq = histogram->default_frequency();
        const bool hot =
            obs.actual >= options_.promotion_ratio * std::max(default_freq, 1.0);
        if (hot && promotions_this_tick < options_.max_promotions_per_tick) {
          // Bounded boundary shift: the value leaves the implicit largest
          // bucket and becomes a singleton, seeded with the damped blend of
          // the bucket average and the observation.
          TuningDelta::Promotion promotion;
          promotion.value = value;
          promotion.frequency =
              default_freq + options_.damping * (obs.actual - default_freq);
          delta.promotions.push_back(promotion);
          ++promotions_this_tick;
        } else {
          // Spread the damped correction over the whole default bucket: one
          // observation only says the *average* is off by error / count.
          const double count =
              std::max(1.0, static_cast<double>(histogram->num_default_values()));
          const double nudged =
              default_freq + options_.damping * error / count;
          if (nudged != default_freq) {
            delta.default_frequency = std::max(0.0, nudged);
          }
        }
      }
    } else {
      // Range feedback: the ST-histogram redistribution rule. Scale the
      // mass over the feedback interval toward the observed actual; the
      // refinement tree conserves total default mass, so scaling a range up
      // implicitly scales everything else down.
      const double current = std::max(obs.estimated, 1.0);
      double factor =
          1.0 + options_.damping * (obs.actual - current) / current;
      factor = std::clamp(factor, 1.0 / options_.max_scale, options_.max_scale);
      if (factor == 1.0) continue;
      if (histogram->refinement() == nullptr &&
          histogram->num_default_values() > 0 && min_value <= max_value) {
        // First range observation on this column: install the uniform prior
        // so the scale below has a density to refine. A still-uniform tree
        // estimates bit-identically to no tree.
        auto tree = BucketRefinementTree::MakeUniform(min_value, max_value,
                                                      options_.tree_leaves);
        if (tree.ok()) {
          histogram->SetRefinement(std::make_shared<const BucketRefinementTree>(
              std::move(tree).ValueOrDie()));
        }
      }
      TuningDelta::RangeScale scale;
      scale.lo = obs.lo;
      scale.hi = obs.hi;
      scale.factor = factor;
      delta.range_scales.push_back(scale);
    }

    if (delta.empty()) continue;
    HOPS_ASSIGN_OR_RETURN(const TuningApplyReport applied,
                          ApplyTuningDelta(histogram, delta));
    report.adjustments += applied.adjustments;
    report.promotions += applied.promotions;
  }

  state->pending.clear();
  state->adjustments += report.adjustments;
  state->promotions += report.promotions;
  if (report.changed()) state->recency = 1.0;
  return report;
}

void SelfTuner::DecayRecency(SelfTuneColumnState* state) const {
  if (state == nullptr || state->recency == 0.0) return;
  state->recency *= options_.recency_decay;
  if (state->recency < 1e-3) state->recency = 0.0;
}

}  // namespace hops
