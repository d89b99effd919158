// Per-layer instrumentation for the traced run.
//
// The benchmark never edits the library: each wrapper implements one of the
// library's public seams and forwards to the real object, timing the call.
//   TimedHandler        the HttpHandler given to HttpServer
//                       (EstimateService::Handle)
//   TimedRefreshSource  the RefreshSource given to RefreshDaemon
//   TimedFeedbackSink   the EstimationFeedbackSink given to EstimateService
//   TimedDurabilityHook the DurabilityHook installed with AttachDurability
// The untraced run passes the plain objects, so its end-to-end figures carry
// none of this cost. Spans stay in memory (SpanLog) and are written out as
// Chrome trace-event JSON when the run ends, in the document shape
// /debug/tracez serves, so in-program spans can be merged with them.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "estimator/serving.h"
#include "net/estimate_service.h"
#include "net/server.h"
#include "refresh/durability.h"
#include "refresh/refresh_manager.h"
#include "refresh/refresh_source.h"
#include "telemetry/trace_recorder.h"

namespace hopsbench {

/// Span ids derived from the request id, so the client, handler and nested
/// spans of one request link up without any lookup: the client span is the
/// root, everything the server does for the request is its child.
inline uint64_t ClientSpanId(uint64_t rid) { return rid * 4 + 1; }
inline uint64_t HandlerSpanId(uint64_t rid) { return rid * 4 + 2; }

/// In-memory span store. A span's trace id is the generator's request id
/// (0 for background work such as refresh ticks).
class SpanLog {
 public:
  explicit SpanLog(size_t capacity = 400000) : capacity_(capacity) {}

  /// Spans are kept only while enabled (RunPass enables the timed
  /// open-loop phases, so the log's size does not follow throughput).
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// span_id 0 takes a fresh id from a range disjoint from the
  /// request-derived ones.
  void Add(std::string_view name, uint64_t rid, uint64_t span_id,
           uint64_t parent, int64_t start_ns, int64_t end_ns,
           std::string_view detail = {});

  uint64_t dropped() const;
  std::string RenderChromeTrace() const;

 private:
  mutable std::mutex mutex_;
  std::vector<hops::telemetry::TraceEvent> events_;  // guarded by mutex_
  uint64_t next_span_ = uint64_t{1} << 62;           // guarded by mutex_
  uint64_t dropped_ = 0;                             // guarded by mutex_
  const size_t capacity_;
  std::atomic<bool> enabled_{false};
};

class TimedHandler {
 public:
  TimedHandler(hops::net::EstimateService* service, SpanLog* spans);

  TimedHandler(const TimedHandler&) = delete;
  TimedHandler& operator=(const TimedHandler&) = delete;

  hops::net::HttpHandler AsHandler();

  /// Handler nanoseconds per request id (requests without the id header
  /// are not recorded).
  std::unordered_map<uint64_t, int64_t> TakeTimes();

 private:
  hops::net::HttpResponse Handle(const hops::net::HttpRequest& request);

  hops::net::EstimateService* const service_;
  SpanLog* const spans_;
  std::mutex mutex_;
  std::unordered_map<uint64_t, int64_t> times_;  // guarded by mutex_
};

class TimedRefreshSource final : public hops::RefreshSource {
 public:
  TimedRefreshSource(hops::RefreshManager* manager, SpanLog* spans)
      : manager_(manager), spans_(spans) {}

  hops::Result<hops::RefreshTickReport> Tick() override;
  size_t pending_update_records() const override {
    return manager_->pending_update_records();
  }

  struct Totals {
    std::vector<double> tick_ms;
    uint64_t ticks = 0;
    uint64_t deltas_applied = 0;
    uint64_t rebuilds = 0;
    uint64_t republishes = 0;
  };
  /// Counts since the last call.
  Totals Take();

 private:
  hops::RefreshManager* const manager_;
  SpanLog* const spans_;
  std::mutex mutex_;
  Totals totals_;  // guarded by mutex_
};

class TimedFeedbackSink final : public hops::EstimationFeedbackSink {
 public:
  TimedFeedbackSink(hops::EstimationFeedbackSink* next, SpanLog* spans)
      : next_(next), spans_(spans) {}

  void ReportEstimationError(std::string_view table, std::string_view column,
                             double estimated, double actual) override;
  void ReportPredicateOutcome(std::string_view table, std::string_view column,
                              const hops::PredicateOutcome& outcome) override;

  std::vector<double> TakeMicros();

 private:
  void Record(int64_t start_ns, int64_t end_ns);

  hops::EstimationFeedbackSink* const next_;
  SpanLog* const spans_;
  std::mutex mutex_;
  std::vector<double> micros_;  // guarded by mutex_
};

class TimedDurabilityHook final : public hops::DurabilityHook {
 public:
  TimedDurabilityHook(hops::DurabilityHook* next, SpanLog* spans)
      : next_(next), spans_(spans) {}

  hops::Status PersistDeltas(std::span<hops::UpdateRecord> records) override;
  hops::Status PersistRegistration(hops::RefreshColumnId id,
                                   const std::string& table,
                                   const std::string& column,
                                   std::span<const int64_t> value_ids,
                                   std::span<const double> frequencies,
                                   uint64_t* lsn_out) override;

  std::vector<double> TakeMicros();

 private:
  hops::DurabilityHook* const next_;
  SpanLog* const spans_;
  std::mutex mutex_;
  std::vector<double> micros_;  // PersistDeltas only; guarded by mutex_
};

/// Request id carried by the generator's header, or 0.
uint64_t RequestIdOf(const hops::net::HttpRequest& request);

}  // namespace hopsbench
