#include "layers.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "loadgen.h"

namespace hopsbench {

namespace {

// The request id of the request this server thread is handling (0 outside
// one), so nested wrappers can parent their spans under the handler span.
thread_local uint64_t t_request_id = 0;

uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t tag = next.fetch_add(1);
  return tag;
}

// Nested spans (persist, feedback) parented under the current handler.
void AddNested(SpanLog* spans, std::string_view name, int64_t start,
               int64_t end, std::string_view detail = {}) {
  const uint64_t rid = t_request_id;
  spans->Add(name, rid, 0, rid == 0 ? 0 : HandlerSpanId(rid), start, end,
             detail);
}

}  // namespace

uint64_t RequestIdOf(const hops::net::HttpRequest& request) {
  const std::string* header = request.FindHeader(kRequestIdHeader);
  return header == nullptr ? 0 : std::strtoull(header->c_str(), nullptr, 10);
}

void SpanLog::Add(std::string_view name, uint64_t rid, uint64_t span_id,
                  uint64_t parent, int64_t start_ns, int64_t end_ns,
                  std::string_view detail) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  hops::telemetry::TraceEvent event;
  event.trace_lo = rid;
  event.parent_span_id = parent;
  event.start_nanos = start_ns;
  event.end_nanos = end_ns;
  event.thread_id = ThreadTag();
  std::memcpy(event.name, name.data(),
              std::min(name.size(), sizeof(event.name) - 1));
  std::memcpy(event.detail, detail.data(),
              std::min(detail.size(), sizeof(event.detail) - 1));
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  event.span_id = span_id != 0 ? span_id : next_span_++;
  events_.push_back(event);
}

uint64_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::string SpanLog::RenderChromeTrace() const {
  std::vector<hops::telemetry::TraceEvent> copy;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    copy = events_;
  }
  return hops::telemetry::RenderChromeTrace(std::move(copy));
}

TimedHandler::TimedHandler(hops::net::EstimateService* service, SpanLog* spans)
    : service_(service), spans_(spans) {}

hops::net::HttpHandler TimedHandler::AsHandler() {
  return [this](const hops::net::HttpRequest& request) {
    return Handle(request);
  };
}

hops::net::HttpResponse TimedHandler::Handle(
    const hops::net::HttpRequest& request) {
  const uint64_t rid = RequestIdOf(request);
  t_request_id = rid;
  const int64_t start = NowNanos();
  hops::net::HttpResponse response = service_->Handle(request);
  const int64_t end = NowNanos();
  t_request_id = 0;
  if (rid != 0) {
    spans_->Add("bench.handler", rid, HandlerSpanId(rid), ClientSpanId(rid),
                start, end, request.target);
    std::lock_guard<std::mutex> lock(mutex_);
    times_[rid] = end - start;
  }
  return response;
}

std::unordered_map<uint64_t, int64_t> TimedHandler::TakeTimes() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(times_, {});
}

hops::Result<hops::RefreshTickReport> TimedRefreshSource::Tick() {
  const int64_t start = NowNanos();
  hops::Result<hops::RefreshTickReport> report = manager_->Tick();
  const int64_t end = NowNanos();
  std::lock_guard<std::mutex> lock(mutex_);
  totals_.tick_ms.push_back(static_cast<double>(end - start) * 1e-6);
  totals_.ticks += 1;
  if (report.ok()) {
    const hops::RefreshTickReport& r = *report;
    totals_.deltas_applied += r.deltas_applied;
    totals_.rebuilds += r.columns_rebuilt;
    totals_.republishes += r.republished ? 1 : 0;
    if (r.changed) {
      spans_->Add("bench.refresh_tick", 0, 0, 0, start, end,
                  "deltas=" + std::to_string(r.deltas_applied) +
                      " rebuilt=" + std::to_string(r.columns_rebuilt));
    }
  }
  return report;
}

TimedRefreshSource::Totals TimedRefreshSource::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(totals_, {});
}

void TimedFeedbackSink::Record(int64_t start_ns, int64_t end_ns) {
  AddNested(spans_, "bench.feedback_sink", start_ns, end_ns);
  std::lock_guard<std::mutex> lock(mutex_);
  micros_.push_back(static_cast<double>(end_ns - start_ns) * 1e-3);
}

void TimedFeedbackSink::ReportEstimationError(std::string_view table,
                                              std::string_view column,
                                              double estimated, double actual) {
  const int64_t start = NowNanos();
  next_->ReportEstimationError(table, column, estimated, actual);
  Record(start, NowNanos());
}

void TimedFeedbackSink::ReportPredicateOutcome(
    std::string_view table, std::string_view column,
    const hops::PredicateOutcome& outcome) {
  const int64_t start = NowNanos();
  next_->ReportPredicateOutcome(table, column, outcome);
  Record(start, NowNanos());
}

std::vector<double> TimedFeedbackSink::TakeMicros() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(micros_, {});
}

hops::Status TimedDurabilityHook::PersistDeltas(
    std::span<hops::UpdateRecord> records) {
  const int64_t start = NowNanos();
  hops::Status status = next_->PersistDeltas(records);
  const int64_t end = NowNanos();
  AddNested(spans_, "bench.persist_deltas", start, end,
            "records=" + std::to_string(records.size()));
  std::lock_guard<std::mutex> lock(mutex_);
  micros_.push_back(static_cast<double>(end - start) * 1e-3);
  return status;
}

hops::Status TimedDurabilityHook::PersistRegistration(
    hops::RefreshColumnId id, const std::string& table,
    const std::string& column, std::span<const int64_t> value_ids,
    std::span<const double> frequencies, uint64_t* lsn_out) {
  return next_->PersistRegistration(id, table, column, value_ids, frequencies,
                                    lsn_out);
}

std::vector<double> TimedDurabilityHook::TakeMicros() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(micros_, {});
}

}  // namespace hopsbench
