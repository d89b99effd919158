// hopsbench: drives the hops serving stack end to end and reports the
// metrics listed in BENCHMARK.json (see README.md in this directory).
//
//   hopsbench --workload estimate_cold --seed 1 --seconds 10 --trace 0
//             [--out-dir DIR] [--source-rev REV]
//
// The stack is wired in-process through public API only, the way
// examples/serve_estimates.cpp wires it: HttpServer + EstimateService +
// RefreshManager/RefreshDaemon (10 ms tick) + AccuracyTracker (+
// RecoveryManager on ingest_refresh) with a TraceRecorder installed. A
// single-threaded load generator drives it over loopback sockets.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is made twice (plain, then with the layer wrappers installed) and the
// metrics are the per-layer ones. A full report (every timing as n, median,
// p05, p95, p99, stddev; machine identity; per-phase op counts) is written
// to DIR/reports/ and spans of the traced pass to DIR/traces/.

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/catalog.h"
#include "engine/catalog_snapshot.h"
#include "estimator/serving.h"
#include "histogram/parallel_build.h"
#include "layers.h"
#include "loadgen.h"
#include "net/estimate_service.h"
#include "net/http.h"
#include "net/server.h"
#include "net/serving_stack.h"
#include "net/wire_format.h"
#include "refresh/refresh_daemon.h"
#include "refresh/refresh_manager.h"
#include "stats.h"
#include "stats/frequency_set.h"
#include "storage/recovery.h"
#include "telemetry/accuracy.h"
#include "telemetry/log.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_recorder.h"
#include "truth.h"
#include "util/json.h"
#include "workload.h"

namespace hopsbench {
namespace {

namespace fs = std::filesystem;
using hops::Result;
using hops::Status;

// ------------------------------------------------------------------ config

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build";
  std::string source_rev = "unknown";
};

/// Shares of --seconds given to each phase. The warm-up lets lazy set-up
/// finish and caches fill; it is not timed.
constexpr double kWarmupShare = 0.1;
constexpr double kOpenShare = 0.55;
constexpr double kSaturationShare = 0.35;

/// The generator's connections (the host has 4 CPUs).
constexpr size_t kConnections = 4;

/// Stream indices every workload registers in this order.
constexpr size_t kEstimateStream = 0;
constexpr size_t kUpdateStream = 1;

/// One HTTP event-loop worker: the kernel hashes each connection's ports to
/// a SO_REUSEPORT listener, so with several workers a run's throughput
/// depended on how its random ports happened to spread over them (README).
constexpr size_t kServerWorkers = 1;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;

/// Requests of the timed open-loop phase replayed layer by layer.
constexpr size_t kReplayRequests = 2000;

/// Largest median open-loop send lag, as a share of the median estimate
/// latency, with which a run is valid. Normal runs measured 1-7% (lag
/// includes building the request body).
constexpr double kMaxLagShare = 0.25;

struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one pass of a workload produced.
struct Outcome {
  std::vector<std::string> failures;  // correctness gate violations
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  hops::JsonWriter report;  // opened object; workload fields appended
  std::string trace_json;   // Chrome trace of the traced pass

  void Fail(std::string why) {
    if (failures.size() < 20) failures.push_back(std::move(why));
  }
};

void ReportStats(hops::JsonWriter& w, const std::string& key,
                 const std::vector<double>& samples, const char* unit) {
  const SampleStats s = Summarize(samples);
  w.Key(key);
  w.BeginObject();
  w.Key("unit");
  w.String(unit);
  w.Key("n");
  w.UInt(s.n);
  w.Key("median");
  w.Double(s.median);
  w.Key("p05");
  w.Double(s.p05);
  w.Key("p95");
  w.Double(s.p95);
  w.Key("p99");
  w.Double(s.p99);
  w.Key("stddev");
  w.Double(s.stddev);
  w.EndObject();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

uint64_t Fnv1a(uint64_t hash, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    hash ^= (bits >> (8 * i)) & 0xFF;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

uint64_t CounterTotal(const hops::telemetry::MetricsSnapshot& snapshot,
                      const std::string& name,
                      const std::string& label_key = {},
                      const std::string& label_value = {}) {
  double total = 0;
  for (const hops::telemetry::MetricSnapshot& m : snapshot.metrics) {
    if (m.name != name) continue;
    bool match = label_key.empty();
    for (const auto& [k, v] : m.labels) {
      if (k == label_key && v == label_value) match = true;
    }
    if (match) total += m.value;
  }
  return static_cast<uint64_t>(total);
}

// ------------------------------------------------------------------- stack

struct StackOptions {
  size_t num_buckets = 64;
  bool selftune = false;
  std::string data_dir;  // empty = no durable storage
};

/// One serving process: the objects examples/serve_estimates.cpp creates,
/// plus the layer wrappers when traced.
struct Stack {
  hops::telemetry::MetricRegistry registry;
  hops::telemetry::TraceRecorder recorder;
  hops::Catalog catalog;
  hops::SnapshotStore store;
  std::unique_ptr<hops::RefreshManager> manager;
  std::unique_ptr<hops::storage::RecoveryManager> durable;
  std::unique_ptr<TimedDurabilityHook> timed_hook;
  std::unique_ptr<hops::telemetry::AccuracyTracker> tracker;
  std::unique_ptr<TimedFeedbackSink> timed_sink;
  std::unique_ptr<hops::net::EstimateService> service;
  std::unique_ptr<TimedHandler> timed_handler;
  std::unique_ptr<hops::net::HttpServer> server;
  std::unique_ptr<TimedRefreshSource> timed_source;
  std::unique_ptr<hops::RefreshDaemon> daemon;
  std::unique_ptr<hops::net::ServingStack> serving;
  std::vector<double> register_ms;
  bool stopped = false;

  Status Stop() {
    if (stopped) return Status::OK();
    stopped = true;
    Status status = serving != nullptr ? serving->ShutdownOrdered()
                                       : Status::OK();
    // Nothing may reach the wrapper hook once its owner starts to go.
    if (manager != nullptr && durable != nullptr) {
      manager->AttachDurability(durable.get());
    }
    return status;
  }

  ~Stack() {
    Stop().ok();
    if (hops::telemetry::TraceRecorder::Current() == &recorder) {
      hops::telemetry::TraceRecorder::Install(nullptr);
    }
  }
};

struct ColumnInput {
  std::vector<int64_t> values;
  std::vector<double> frequencies;
};

std::vector<ColumnInput> FrequencyInputs(const std::vector<ColumnDef>& catalog) {
  std::vector<ColumnInput> inputs;
  for (const ColumnDef& def : catalog) {
    ColumnInput input;
    for (int64_t v = 0; v < def.truth.domain(); ++v) {
      input.values.push_back(v);
      input.frequencies.push_back(static_cast<double>(def.truth.count(v)));
    }
    inputs.push_back(std::move(input));
  }
  return inputs;
}

hops::RefreshOptions MakeRefreshOptions(const StackOptions& options) {
  hops::RefreshOptions refresh;
  refresh.statistics.num_buckets = options.num_buckets;
  refresh.tuning.enabled = options.selftune;
  return refresh;
}

/// Builds and starts one stack. setup_s runs from handing the frequency
/// sets to RegisterColumn (after RecoverAndAttach when durable) until
/// /healthz answers 200.
Result<std::unique_ptr<Stack>> StartStack(const std::vector<ColumnDef>& catalog,
                                          const std::vector<ColumnInput>& inputs,
                                          const StackOptions& options,
                                          SpanLog* spans, double* setup_s) {
  auto stack = std::make_unique<Stack>();
  hops::telemetry::TraceRecorder::Install(&stack->recorder);
  stack->manager = std::make_unique<hops::RefreshManager>(
      &stack->catalog, &stack->store, MakeRefreshOptions(options));
  if (!options.data_dir.empty()) {
    hops::storage::StorageOptions storage;
    storage.data_dir = options.data_dir;
    storage.durability = hops::storage::WalFsync::kBatch;
    HOPS_ASSIGN_OR_RETURN(stack->durable,
                          hops::storage::RecoveryManager::Open(storage));
    HOPS_RETURN_NOT_OK(stack->durable->RecoverAndAttach(stack->manager.get()));
    if (spans != nullptr) {
      stack->timed_hook =
          std::make_unique<TimedDurabilityHook>(stack->durable.get(), spans);
      stack->manager->AttachDurability(stack->timed_hook.get());
    }
  }

  const int64_t start = NowNanos();
  for (size_t i = 0; i < catalog.size(); ++i) {
    const int64_t t0 = NowNanos();
    HOPS_RETURN_NOT_OK(stack->manager
                           ->RegisterColumn(catalog[i].table, catalog[i].column,
                                            inputs[i].values,
                                            inputs[i].frequencies)
                           .status());
    stack->register_ms.push_back(static_cast<double>(NowNanos() - t0) * 1e-6);
  }
  stack->tracker = std::make_unique<hops::telemetry::AccuracyTracker>(
      &stack->registry, stack->manager.get());
  hops::EstimationFeedbackSink* sink = stack->tracker.get();
  if (spans != nullptr) {
    stack->timed_sink = std::make_unique<TimedFeedbackSink>(sink, spans);
    sink = stack->timed_sink.get();
  }
  hops::net::EstimateServiceOptions service_options;
  service_options.store = &stack->store;
  service_options.feedback = sink;
  service_options.updates = stack->manager.get();
  service_options.registry = &stack->registry;
  service_options.accuracy = stack->tracker.get();
  service_options.recorder = &stack->recorder;
  stack->service = std::make_unique<hops::net::EstimateService>(service_options);

  hops::net::HttpHandler handler = stack->service->AsHandler();
  if (spans != nullptr) {
    stack->timed_handler =
        std::make_unique<TimedHandler>(stack->service.get(), spans);
    handler = stack->timed_handler->AsHandler();
  }
  hops::net::HttpServerOptions server_options;
  server_options.port = 0;
  server_options.num_workers = kServerWorkers;
  server_options.registry = &stack->registry;
  stack->server =
      std::make_unique<hops::net::HttpServer>(std::move(handler), server_options);

  hops::RefreshSource* source = stack->manager.get();
  if (spans != nullptr) {
    stack->timed_source =
        std::make_unique<TimedRefreshSource>(stack->manager.get(), spans);
    source = stack->timed_source.get();
  }
  hops::RefreshDaemonOptions daemon_options;
  daemon_options.tick_interval_micros = 10000;
  stack->daemon = std::make_unique<hops::RefreshDaemon>(source, daemon_options);
  stack->serving = std::make_unique<hops::net::ServingStack>(
      stack->server.get(), stack->daemon.get(), nullptr);
  HOPS_RETURN_NOT_OK(stack->serving->Start());

  const int64_t deadline = NowNanos() + 30'000'000'000;
  while (HttpGetStatus(stack->server->port(), "/healthz") != 200) {
    if (NowNanos() > deadline) {
      return Status::Internal("/healthz never answered 200");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  *setup_s = Seconds(start, NowNanos());
  return stack;
}

/// Waits until the update log is empty and two more daemon ticks ran, so
/// every acknowledged delta is applied and published.
Status WaitForDrain(Stack& stack) {
  const int64_t deadline = NowNanos() + 60'000'000'000;
  while (stack.manager->pending_update_records() > 0) {
    if (NowNanos() > deadline) return Status::Internal("update log not drained");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t ticks = stack.daemon->ticks();
  while (stack.daemon->ticks() < ticks + 2) {
    if (NowNanos() > deadline) return Status::Internal("daemon stopped ticking");
    stack.daemon->RequestTick();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::OK();
}

// ---------------------------------------------------------------- workload

/// What a workload plugs into RunPass.
struct WorkloadPlan {
  CatalogShape shape;
  StackOptions stack;
  bool binary_estimates = false;
  // Streams are registered on the generator by Attach(), estimates first
  // (kEstimateStream), then updates (kUpdateStream); phases reference them
  // by index.
  std::vector<PhaseOp> open_ops;        // warm-up and timed open loop
  std::vector<PhaseOp> saturation_ops;  // closed-loop estimates (+ writes)
};

/// Per-request record the traced pass replays after the timed window.
struct SentEstimate {
  std::string body;
  std::vector<Spec> specs;
  std::string response;
};

/// State shared by a workload's streams and its post-run checks.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual WorkloadPlan Plan() const = 0;
  /// Builds everything derived from the seed before any stack exists.
  virtual Status Prepare(Rng& rng) = 0;
  /// Computes expected outputs against the first published snapshot
  /// (before timing).
  virtual Status Precompute(Stack& stack) = 0;
  /// Registers the op streams on the generator.
  virtual void Attach(LoadGenerator& gen, Stack& stack, Outcome& out) = 0;
  /// After the timed phases: drains, gates, accuracy and restart metrics.
  virtual Status Finish(Stack& stack, Outcome& out) = 0;

  const std::vector<ColumnDef>& catalog() const { return catalog_; }
  /// The fixed probe set the q-error metrics are taken over.
  const std::vector<Spec>& probes() const { return probes_; }

  /// Recording of estimate requests for the layer replay (traced pass).
  bool record = false;
  std::unordered_map<uint64_t, SentEstimate> sent;

 protected:
  void Remember(uint64_t rid, std::string_view body, std::vector<Spec> specs) {
    if (!record || sent.size() >= 4 * kReplayRequests) return;
    SentEstimate& entry = sent[rid];
    entry.body.assign(body);
    entry.specs = std::move(specs);
  }
  void RememberResponse(uint64_t rid, std::string_view body) {
    if (!record) return;
    auto it = sent.find(rid);
    if (it != sent.end()) it->second.response.assign(body);
  }

  std::vector<ColumnDef> catalog_;
  std::vector<Spec> probes_;
};

/// EstimateOne over the probe set, with each answer's q-error against the
/// benchmark's own truth. A probe the library cannot answer is a failure.
void ProbeQError(const std::vector<Spec>& probes,
                 const std::vector<ColumnDef>& catalog,
                 const hops::CatalogSnapshot& snapshot, Outcome& out,
                 std::vector<double>* estimates, std::vector<double>* qerrors) {
  estimates->clear();
  qerrors->clear();
  for (const Spec& spec : probes) {
    Result<hops::EstimateSpec> resolved = ToEstimateSpec(spec, catalog, snapshot);
    Result<double> value =
        resolved.ok() ? hops::EstimateOne(snapshot, *resolved) : resolved.status();
    if (!value.ok() || !std::isfinite(*value)) {
      out.Fail("probe not answered: " +
               (value.ok() ? std::string("non-finite estimate")
                           : std::string(value.status().message())));
      out.failed += 1;
      estimates->push_back(std::nan(""));
      continue;
    }
    estimates->push_back(*value);
    qerrors->push_back(QError(*value, static_cast<double>(TruthOf(spec, catalog))));
  }
}

/// q-error of the probe set after the drain, for the report.
void ReportDrainedQError(const std::vector<double>& qerrors, Outcome& out) {
  ReportStats(out.report, "qerror_after_drain", qerrors, "ratio");
}

// ----------------------------------------------------------- estimate_cold

/// Read-only JSON batches of 32 fresh predicates over a static catalog
/// whose compiled explicit keys are several times one core's L2.
class EstimateCold final : public Workload {
 public:
  WorkloadPlan Plan() const override {
    WorkloadPlan plan;
    plan.shape = CatalogShape{6, 4, 40000, 2'000'000, 1.0, 1.2};
    plan.stack.num_buckets = 4096;
    plan.open_ops = {PhaseOp{0, kRate, false}};
    plan.saturation_ops = {PhaseOp{0, 0, true}};
    return plan;
  }

  Status Prepare(Rng& rng) override {
    catalog_ = MakeCatalog(Plan().shape, rng);
    Rng spec_rng(rng.Next());
    const SpecMix mix{12, 6, 4, 9, 1, 4, 0.05};
    requests_.resize(kPoolSize);
    for (std::vector<Spec>& request : requests_) {
      for (size_t i = 0; i < kBatch; ++i) {
        request.push_back(DrawSpec(mix, catalog_, spec_rng));
      }
    }
    const SpecMix probe_mix{4, 1, 1, 3, 1, 4, 0.05};
    for (size_t i = 0; i < 4096; ++i) {
      probes_.push_back(DrawSpec(probe_mix, catalog_, spec_rng));
    }
    bodies_.reserve(requests_.size());
    for (const std::vector<Spec>& request : requests_) {
      bodies_.push_back(EstimateRequestJson(request, catalog_));
    }
    return Status::OK();
  }

  Status Precompute(Stack& stack) override {
    const std::shared_ptr<const hops::CatalogSnapshot> snapshot =
        stack.store.Current();
    expected_.clear();
    fingerprint_ = 0xCBF29CE484222325ull;
    for (const std::vector<Spec>& request : requests_) {
      std::vector<double> values;
      for (const Spec& spec : request) {
        HOPS_ASSIGN_OR_RETURN(hops::EstimateSpec resolved,
                              ToEstimateSpec(spec, catalog_, *snapshot));
        HOPS_ASSIGN_OR_RETURN(double value,
                              hops::EstimateOne(*snapshot, resolved));
        values.push_back(value);
        fingerprint_ = Fnv1a(fingerprint_, value);
      }
      expected_.push_back(std::move(values));
    }
    return Status::OK();
  }

  void Attach(LoadGenerator& gen, Stack&, Outcome& out) override {
    OpStream estimates;
    estimates.name = "estimate";
    estimates.target = "/estimate";
    estimates.content_type = "application/json";
    estimates.connections = {0, 1, 2, 3};
    estimates.next_body = [this](uint64_t rid) -> std::string_view {
      const size_t index = NextIndex();
      in_flight_[rid] = index;
      if (record) Remember(rid, bodies_[index], requests_[index]);
      return bodies_[index];
    };
    estimates.check = [this, &out](uint64_t rid, int, std::string_view body) {
      RememberResponse(rid, body);
      const auto it = in_flight_.find(rid);
      if (it == in_flight_.end()) return false;
      const std::vector<double>& expected = expected_[it->second];
      in_flight_.erase(it);
      if (!ParseEstimateResults(body, &parsed_) ||
          parsed_.size() != expected.size()) {
        out.Fail("estimate_cold: response not slot-aligned");
        return false;
      }
      for (size_t i = 0; i < expected.size(); ++i) {
        if (!SameBits(parsed_[i], expected[i])) {
          out.Fail("estimate_cold: value differs from EstimateOne");
          return false;
        }
      }
      return true;
    };
    gen.AddStream(std::move(estimates));
  }

  Status Finish(Stack&, Outcome& out) override {
    out.report.Key("output_fingerprint");
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fingerprint_));
    out.report.String(hex);
    out.report.Key("distinct_requests");
    out.report.UInt(requests_.size());
    out.report.Key("requests_sent");
    out.report.UInt(cursor_);
    out.report.Key("pool_wraps");
    out.report.UInt(wraps_);
    return Status::OK();
  }

 private:
  static constexpr size_t kBatch = 32;
  static constexpr double kRate = 1000;  // requests/s in the open loop
  // Distinct requests: 384k predicates, 12x the cache's admission cap.
  // Past the end the stream wraps (NextIndex), re-sending predicates the
  // cache never admitted, so wrapping cannot create hits either.
  static constexpr size_t kPoolSize = 12000;

  size_t NextIndex() {
    // Past the end, wrap to a point beyond the first 64k predicates: the
    // cache admits first-come up to its cap, so only those could ever hit.
    const size_t skip = std::min(requests_.size() / 2, 65536 / kBatch);
    size_t index = cursor_++;
    if (index >= requests_.size()) {
      const size_t span = requests_.size() - skip;
      if ((index - requests_.size()) % span == 0) ++wraps_;
      index = skip + (index - requests_.size()) % span;
    }
    return index;
  }

  std::vector<std::vector<Spec>> requests_;
  std::vector<std::string> bodies_;
  std::vector<std::vector<double>> expected_;
  std::unordered_map<uint64_t, size_t> in_flight_;
  std::vector<double> parsed_;
  uint64_t fingerprint_ = 0;
  size_t cursor_ = 0;
  size_t wraps_ = 0;
};

// ------------------------------------------------------ shared write path

/// Generates deltas that drift each column away from its starting Zipf
/// arrangement: inserts follow a new, steeper Zipf over a fresh random
/// arrangement, deletes remove a uniformly chosen value that is present.
class Drift {
 public:
  Drift(std::vector<ColumnDef>* catalog, double skew, Rng& rng)
      : catalog_(catalog),
        rng_(rng.Next()),
        sampler_(static_cast<size_t>((*catalog)[0].truth.domain()), skew) {
    const size_t domain = static_cast<size_t>((*catalog)[0].truth.domain());
    for (size_t c = 0; c < catalog->size(); ++c) {
      std::vector<int64_t> arrangement(domain);
      for (size_t v = 0; v < domain; ++v) arrangement[v] = static_cast<int64_t>(v);
      for (size_t i = domain; i > 1; --i) {
        std::swap(arrangement[i - 1], arrangement[rng_.Below(i)]);
      }
      arrangements_.push_back(std::move(arrangement));
    }
  }

  /// A hot value of the drifted distribution (what new queries ask about).
  int64_t HotValue(uint32_t column) {
    return arrangements_[column][sampler_.Draw(rng_)];
  }

  /// Next `n` deltas, applied to the benchmark's truth as they are made.
  std::vector<Delta> Next(size_t n, double insert_share) {
    std::vector<Delta> deltas;
    while (deltas.size() < n) {
      Delta delta;
      delta.column = static_cast<uint32_t>(rng_.Below(catalog_->size()));
      ColumnTruth& truth = (*catalog_)[delta.column].truth;
      if (rng_.Unit() < insert_share) {
        delta.value = HotValue(delta.column);
        delta.weight = 1;
      } else {
        delta.value =
            static_cast<int64_t>(rng_.Below(static_cast<uint64_t>(truth.domain())));
        delta.weight = -1;
        if (truth.count(delta.value) == 0) continue;
      }
      truth.Apply(delta.value, delta.weight);
      deltas.push_back(delta);
    }
    return deltas;
  }

 private:
  std::vector<ColumnDef>* catalog_;
  Rng rng_;
  ZipfSampler sampler_;
  std::vector<std::vector<int64_t>> arrangements_;
};

OpStream UpdateStream(std::vector<size_t> connections, Drift* drift,
                      const std::vector<ColumnDef>* catalog, size_t batch,
                      double insert_share, std::string* scratch) {
  OpStream updates;
  updates.name = "update";
  updates.target = "/update";
  updates.content_type = "application/json";
  updates.connections = std::move(connections);
  updates.next_body = [=](uint64_t) -> std::string_view {
    *scratch = UpdateRequestJson(drift->Next(batch, insert_share), *catalog);
    return *scratch;
  };
  const std::string want = "\"accepted\": " + std::to_string(batch);
  updates.check = [want](uint64_t, int, std::string_view body) {
    return body.find(want) != std::string_view::npos;
  };
  return updates;
}

// ------------------------------------------------------ estimate_hot_churn

/// Binary batches of 8 predicates repeating with Zipf(1) popularity over a
/// hot set that fits the estimate cache, while a low rate of /update writes
/// makes the daemon republish (and so retire the cache) every few ticks.
class EstimateHotChurn final : public Workload {
 public:
  WorkloadPlan Plan() const override {
    WorkloadPlan plan;
    plan.shape = CatalogShape{2, 4, 10000, 500'000, 1.0, 1.2};
    plan.stack.num_buckets = 256;
    plan.binary_estimates = true;
    plan.open_ops = {PhaseOp{0, kRate, false}, PhaseOp{1, kUpdateRate, false}};
    plan.saturation_ops = {PhaseOp{0, 0, true}, PhaseOp{1, kUpdateRate, false}};
    return plan;
  }

  Status Prepare(Rng& rng) override {
    catalog_ = MakeCatalog(Plan().shape, rng);
    drift_ = std::make_unique<Drift>(&catalog_, 1.2, rng);
    Rng spec_rng(rng.Next());
    const SpecMix mix{5, 1, 0, 3, 0.25, 0, 0.05};
    while (hot_.size() < kHotSet) {
      Spec spec = DrawSpec(mix, catalog_, spec_rng);
      if (std::find(hot_.begin(), hot_.end(), spec) == hot_.end()) {
        hot_.push_back(std::move(spec));
      }
    }
    // Pre-encoded batches, so the single generator thread spends its time
    // on sockets rather than encoding; the stream cycles through them.
    const ZipfSampler popularity(kHotSet, 1.0);
    Rng draw_rng(rng.Next());
    std::vector<hops::net::WireSpec> wire;
    for (const Spec& spec : hot_) wire.push_back(ToWireSpec(spec, catalog_));
    batches_.resize(kBatchPool);
    bodies_.resize(kBatchPool);
    for (size_t b = 0; b < kBatchPool; ++b) {
      std::vector<hops::net::WireSpec> batch;
      for (size_t i = 0; i < kBatch; ++i) {
        const size_t pick = popularity.Draw(draw_rng);
        batches_[b].push_back(hot_[pick]);
        batch.push_back(wire[pick]);
      }
      bodies_[b] = hops::net::EncodeBatchRequest(batch);
    }
    // Probe set after the drain: the hot set plus fresh predicates.
    probes_ = hot_;
    for (size_t i = 0; i < 512; ++i) {
      probes_.push_back(DrawSpec(mix, catalog_, spec_rng));
    }
    return Status::OK();
  }

  Status Precompute(Stack&) override { return Status::OK(); }

  void Attach(LoadGenerator& gen, Stack&, Outcome& out) override {
    OpStream estimates;
    estimates.name = "estimate";
    estimates.target = "/estimate";
    estimates.content_type = std::string(hops::net::kBatchContentType);
    estimates.connections = {0, 1, 2};
    estimates.next_body = [this](uint64_t rid) -> std::string_view {
      const size_t b = cursor_++ % kBatchPool;
      if (record) Remember(rid, bodies_[b], batches_[b]);
      return bodies_[b];
    };
    estimates.check = [this, &out](uint64_t rid, int, std::string_view body) {
      RememberResponse(rid, body);
      Result<hops::net::WireResponse> response =
          hops::net::DecodeBatchResponse(body);
      if (!response.ok() || response->results.size() != kBatch) {
        out.Fail("estimate_hot_churn: response not slot-aligned");
        return false;
      }
      for (const hops::net::WireResult& r : response->results) {
        if (r.status != hops::net::WireStatus::kOk || !std::isfinite(r.estimate)) {
          out.Fail("estimate_hot_churn: per-spec error in response");
          return false;
        }
      }
      return true;
    };
    gen.AddStream(std::move(estimates));
    gen.AddStream(UpdateStream({3}, drift_.get(), &catalog_, kUpdateBatch, 0.5,
                               &update_body_));
  }

  Status Finish(Stack& stack, Outcome& out) override {
    HOPS_RETURN_NOT_OK(WaitForDrain(stack));
    // Gate: the probe set, sent over the wire after the drain, must equal
    // EstimateOne on the final snapshot bit for bit.
    const std::shared_ptr<const hops::CatalogSnapshot> snapshot =
        stack.store.Current();
    std::vector<double> estimates, qerrors;
    ProbeQError(probes_, catalog_, *snapshot, out, &estimates, &qerrors);
    size_t mismatches = 0;
    for (size_t begin = 0; begin < probes_.size(); begin += 64) {
      const size_t end = std::min(probes_.size(), begin + 64);
      std::vector<hops::net::WireSpec> batch;
      for (size_t i = begin; i < end; ++i) {
        batch.push_back(ToWireSpec(probes_[i], catalog_));
      }
      std::string body;
      const int status = HttpPost(stack.server->port(), "/estimate",
                                  hops::net::kBatchContentType,
                                  hops::net::EncodeBatchRequest(batch), &body);
      Result<hops::net::WireResponse> response =
          hops::net::DecodeBatchResponse(body);
      out.attempted += 1;
      if (status != 200 || !response.ok() ||
          response->results.size() != end - begin) {
        out.failed += 1;
        mismatches += end - begin;
        continue;
      }
      for (size_t i = begin; i < end; ++i) {
        const hops::net::WireResult& r = response->results[i - begin];
        if (r.status != hops::net::WireStatus::kOk ||
            !SameBits(r.estimate, estimates[i])) {
          ++mismatches;
        }
      }
    }
    if (mismatches > 0) {
      out.Fail("estimate_hot_churn: probe set differs from EstimateOne on the "
               "final snapshot in " + std::to_string(mismatches) + " slots");
    }
    ReportDrainedQError(qerrors, out);
    return Status::OK();
  }

 private:
  static constexpr size_t kBatch = 8;
  static constexpr size_t kHotSet = 512;
  static constexpr size_t kBatchPool = 8192;
  static constexpr double kRate = 2500;
  static constexpr double kUpdateRate = 12;
  static constexpr size_t kUpdateBatch = 8;

  std::unique_ptr<Drift> drift_;
  std::vector<Spec> hot_;
  std::vector<std::vector<Spec>> batches_;
  std::vector<std::string> bodies_;
  size_t cursor_ = 0;
  std::string update_body_;
};

// ---------------------------------------------------------- ingest_refresh

/// The write path: /update batches of 64 drifting deltas at a fixed rate
/// into a WAL, /feedback with true result sizes and self-tuning on, a light
/// JSON /estimate share, then a restart from the data directory without a
/// shutdown snapshot so recovery replays the run's WAL.
class IngestRefresh final : public Workload {
 public:
  WorkloadPlan Plan() const override {
    WorkloadPlan plan;
    plan.shape = CatalogShape{2, 4, 20000, 1'000'000, 1.0, 1.2};
    plan.stack.num_buckets = 128;
    plan.stack.selftune = true;
    plan.open_ops = {PhaseOp{0, kEstimateRate, false},
                     PhaseOp{1, kUpdateRate, false},
                     PhaseOp{2, kFeedbackRate, false}};
    // No saturation phase: closed-loop reads would make this write
    // workload a read-heavy one for that share of the window.
    return plan;
  }

  Status Prepare(Rng& rng) override {
    catalog_ = MakeCatalog(Plan().shape, rng);
    drift_ = std::make_unique<Drift>(&catalog_, 1.3, rng);
    spec_rng_ = std::make_unique<Rng>(rng.Next());
    Rng probe_rng(rng.Next());
    // No joins: with 8 columns there are only 28 join pairs, and the few
    // distinct join answers made the q-error tail jump between seeds.
    const SpecMix mix{4, 1, 1, 3, 0, 4, 0.05};
    for (size_t i = 0; i < 4096; ++i) {
      Spec spec = DrawSpec(mix, catalog_, probe_rng);
      // Half the point probes ask about values the drift made hot.
      if (spec.kind == Spec::Kind::kEquality && probe_rng.Unit() < 0.5) {
        spec.a = drift_->HotValue(spec.column);
      }
      probes_.push_back(std::move(spec));
    }
    return Status::OK();
  }

  Status Precompute(Stack&) override { return Status::OK(); }

  void Attach(LoadGenerator& gen, Stack& stack, Outcome& out) override {
    OpStream estimates;
    estimates.name = "estimate";
    estimates.target = "/estimate";
    estimates.content_type = "application/json";
    estimates.connections = {0, 1};
    estimates.next_body = [this](uint64_t rid) -> std::string_view {
      const SpecMix mix{4, 1, 1, 3, 0, 4, 0.05};
      std::vector<Spec> specs;
      for (size_t i = 0; i < kEstimateBatch; ++i) {
        specs.push_back(DrawSpec(mix, catalog_, *spec_rng_));
      }
      estimate_body_ = EstimateRequestJson(specs, catalog_);
      if (record) Remember(rid, estimate_body_, std::move(specs));
      return estimate_body_;
    };
    estimates.check = [this, &out](uint64_t rid, int, std::string_view body) {
      RememberResponse(rid, body);
      if (!ParseEstimateResults(body, &parsed_) ||
          parsed_.size() != kEstimateBatch) {
        out.Fail("ingest_refresh: response not slot-aligned");
        return false;
      }
      for (double v : parsed_) {
        if (!std::isfinite(v)) {
          out.Fail("ingest_refresh: per-spec error in response");
          return false;
        }
      }
      return true;
    };
    gen.AddStream(std::move(estimates));
    gen.AddStream(UpdateStream({2}, drift_.get(), &catalog_, kUpdateBatch, 0.6,
                               &update_body_));

    OpStream feedback;
    feedback.name = "feedback";
    feedback.target = "/feedback";
    feedback.content_type = "application/json";
    feedback.connections = {3};
    feedback.next_body = [this, &stack](uint64_t) -> std::string_view {
      // The optimizer's estimate (what the live snapshot answers) and the
      // true size right now, from the benchmark's own counts.
      const std::shared_ptr<const hops::CatalogSnapshot> snapshot =
          stack.store.Current();
      const SpecMix mix{6, 0, 0, 4, 0, 0, 0.05};
      std::vector<Spec> specs;
      std::vector<double> estimated, actual;
      while (specs.size() < kFeedbackBatch) {
        Spec spec = DrawSpec(mix, catalog_, *spec_rng_);
        if (spec.kind == Spec::Kind::kEquality && spec_rng_->Unit() < 0.5) {
          spec.a = drift_->HotValue(spec.column);
        }
        Result<hops::EstimateSpec> resolved =
            ToEstimateSpec(spec, catalog_, *snapshot);
        if (!resolved.ok()) continue;
        Result<double> estimate = hops::EstimateOne(*snapshot, *resolved);
        if (!estimate.ok()) continue;
        estimated.push_back(*estimate);
        actual.push_back(static_cast<double>(TruthOf(spec, catalog_)));
        specs.push_back(std::move(spec));
      }
      feedback_body_ = FeedbackRequestJson(specs, estimated, actual, catalog_);
      return feedback_body_;
    };
    const std::string want = "\"accepted\": " + std::to_string(kFeedbackBatch);
    feedback.check = [want](uint64_t, int, std::string_view body) {
      return body.find(want) != std::string_view::npos;
    };
    gen.AddStream(std::move(feedback));
  }

  Status Finish(Stack& stack, Outcome& out) override {
    HOPS_RETURN_NOT_OK(WaitForDrain(stack));
    std::vector<double> before, qerrors;
    ProbeQError(probes_, catalog_, *stack.store.Current(), out, &before, &qerrors);
    ReportDrainedQError(qerrors, out);
    const hops::storage::WalWriterStats wal = stack.durable->wal_stats();
    out.per_layer["storage.bytes_per_record"] = {
        wal.records_appended == 0
            ? 0.0
            : static_cast<double>(wal.bytes_appended) /
                  static_cast<double>(wal.records_appended),
        "B"};
    out.per_layer["storage.fsyncs"] = {static_cast<double>(wal.fsyncs), "count"};
    out.per_layer["storage.writeback_kicks"] = {
        static_cast<double>(wal.writeback_kicks), "count"};

    // Stop serving without a shutdown snapshot: the restart must replay
    // the WAL. The stack's objects stay alive until the caller drops them,
    // but nothing writes to the data directory after this point.
    HOPS_RETURN_NOT_OK(stack.Stop());
    stack.durable.reset();

    hops::Catalog catalog;
    hops::SnapshotStore store;
    hops::RefreshManager manager(&catalog, &store,
                                 MakeRefreshOptions(Plan().stack));
    const int64_t start = NowNanos();
    hops::storage::StorageOptions storage;
    storage.data_dir = data_dir;
    storage.durability = hops::storage::WalFsync::kBatch;
    HOPS_ASSIGN_OR_RETURN(std::unique_ptr<hops::storage::RecoveryManager> durable,
                          hops::storage::RecoveryManager::Open(storage));
    HOPS_RETURN_NOT_OK(durable->RecoverAndAttach(&manager));
    hops::RefreshDaemonOptions daemon_options;
    daemon_options.tick_interval_micros = 10000;
    hops::RefreshDaemon daemon(&manager, daemon_options);
    HOPS_RETURN_NOT_OK(daemon.Start());
    daemon.RequestTick();
    const int64_t deadline = NowNanos() + 60'000'000'000;
    while (store.publish_count() == 0) {
      if (NowNanos() > deadline) return Status::Internal("no publish after recovery");
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    const double recovery_s = Seconds(start, NowNanos());
    HOPS_RETURN_NOT_OK(daemon.DrainAndStop());
    std::vector<double> after, unused;
    ProbeQError(probes_, catalog_, *store.Current(), out, &after, &unused);
    size_t mismatches = 0;
    for (size_t i = 0; i < before.size(); ++i) {
      if (!SameBits(before[i], after[i])) ++mismatches;
    }
    restart_mismatch_frac_ =
        static_cast<double>(mismatches) / static_cast<double>(before.size());
    recovery_s_ = recovery_s;
    replayed_records_ = durable->report().wal_delta_records;
    return Status::OK();
  }

  std::string data_dir;  // set by RunPass before the set-ups
  double recovery_s_ = 0;
  double restart_mismatch_frac_ = 0;
  uint64_t replayed_records_ = 0;

 private:
  static constexpr size_t kEstimateBatch = 8;
  static constexpr double kEstimateRate = 100;
  static constexpr double kUpdateRate = 50;
  static constexpr size_t kUpdateBatch = 64;
  static constexpr double kFeedbackRate = 10;
  static constexpr size_t kFeedbackBatch = 8;

  std::unique_ptr<Drift> drift_;
  std::unique_ptr<Rng> spec_rng_;
  std::vector<double> parsed_;
  std::string estimate_body_;
  std::string update_body_;
  std::string feedback_body_;
};

// ---------------------------------------------------------------- run loop

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "estimate_cold") return std::make_unique<EstimateCold>();
  if (args.workload == "estimate_hot_churn") {
    return std::make_unique<EstimateHotChurn>();
  }
  if (args.workload == "ingest_refresh") {
    return std::make_unique<IngestRefresh>();
  }
  return nullptr;
}

std::vector<double> LatenciesUs(const PhaseResult& phase, size_t stream) {
  std::vector<double> out;
  for (const Completion& c : phase.completions) {
    if (c.stream == stream) out.push_back(static_cast<double>(c.done_ns - c.due_ns) * 1e-3);
  }
  return out;
}

void ReportPhase(hops::JsonWriter& w, const PhaseResult& phase,
                 const std::vector<std::string>& stream_names) {
  w.BeginObject();
  w.Key("name");
  w.String(phase.name);
  w.Key("seconds");
  w.Double(phase.seconds);
  w.Key("max_backlog");
  w.UInt(phase.max_backlog);
  for (size_t s = 0; s < phase.counts.size(); ++s) {
    if (phase.counts[s].sent == 0) continue;
    w.Key(stream_names[s]);
    w.BeginObject();
    w.Key("sent");
    w.UInt(phase.counts[s].sent);
    w.Key("succeeded");
    w.UInt(phase.counts[s].succeeded);
    w.Key("failed");
    w.UInt(phase.counts[s].failed);
    w.EndObject();
    const std::vector<double> latencies = LatenciesUs(phase, s);
    if (!latencies.empty()) {
      ReportStats(w, stream_names[s] + "_latency_us", latencies, "us");
    }
  }
  if (!phase.lag_us.empty()) {
    ReportStats(w, "lag_us", {phase.lag_us.begin(), phase.lag_us.end()}, "us");
  }
  w.EndObject();
}

void Append(const PhaseResult& from, PhaseResult* into) {
  into->seconds += from.seconds;
  into->completions.insert(into->completions.end(), from.completions.begin(),
                           from.completions.end());
  into->lag_us.insert(into->lag_us.end(), from.lag_us.begin(), from.lag_us.end());
  into->counts.resize(std::max(into->counts.size(), from.counts.size()));
  for (size_t s = 0; s < from.counts.size(); ++s) {
    into->counts[s].sent += from.counts[s].sent;
    into->counts[s].succeeded += from.counts[s].succeeded;
    into->counts[s].failed += from.counts[s].failed;
  }
  into->max_backlog = std::max(into->max_backlog, from.max_backlog);
}

struct Counters {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t publishes = 0;
  hops::RefreshStats refresh;
};

Counters ReadCounters(Stack& stack) {
  const hops::telemetry::MetricsSnapshot global =
      hops::telemetry::MetricRegistry::Global().Collect();
  Counters c;
  c.cache_hits = CounterTotal(global, "hops_estimate_cache_hits_total");
  c.cache_misses = CounterTotal(global, "hops_estimate_cache_misses_total");
  c.publishes = stack.store.publish_count();
  c.refresh = stack.manager->stats();
  return c;
}

/// The traced pass's layer replay: each recorded /estimate request of the
/// timed open loop goes through the same public functions the server ran,
/// one at a time, after the window. Live handler and client times come
/// from the wrappers and the generator, joined by request id.
void ReplayLayers(Workload& workload, Stack& stack, const PhaseResult& open,
                  bool binary, Outcome& out) {
  std::unordered_map<uint64_t, const Completion*> completions;
  for (const Completion& c : open.completions) {
    if (c.stream == kEstimateStream) completions[c.rid] = &c;
  }
  const std::unordered_map<uint64_t, int64_t> handler_ns =
      stack.timed_handler->TakeTimes();
  Result<std::shared_ptr<const hops::CatalogSnapshot>> compiled =
      hops::CatalogSnapshot::Compile(stack.catalog);
  if (!compiled.ok()) {
    out.Fail("replay: snapshot compile failed");
    return;
  }
  const hops::CatalogSnapshot& replay = **compiled;

  std::vector<uint64_t> rids;
  for (const auto& [rid, entry] : workload.sent) {
    if (!entry.response.empty() && completions.count(rid) &&
        handler_ns.count(rid)) {
      rids.push_back(rid);
    }
  }
  std::sort(rids.begin(), rids.end());
  if (rids.size() > kReplayRequests) rids.resize(kReplayRequests);

  std::vector<double> handler_us, client_us, transport_us, parse_us, render_us,
      decode_us, acquire_ns, resolve_ns, batch_us, ns_per_spec, residual_us;
  const std::string content_type =
      binary ? std::string(hops::net::kBatchContentType) : "application/json";
  size_t negative_transport = 0;
  for (uint64_t rid : rids) {
    const SentEstimate& entry = workload.sent.at(rid);
    const Completion& done = *completions.at(rid);
    const std::string bytes =
        RenderRequest("/estimate", content_type, rid, entry.body);

    int64_t t0 = NowNanos();
    hops::net::HttpParser parser;
    parser.Feed(bytes);
    hops::net::HttpRequest request;
    const bool parsed =
        parser.Next(&request) == hops::net::HttpParser::Event::kRequest;
    int64_t t1 = NowNanos();
    if (!parsed) {
      out.Fail("replay: recorded request does not parse");
      return;
    }
    parse_us.push_back(static_cast<double>(t1 - t0) * 1e-3);

    t0 = NowNanos();
    bool decoded = false;
    if (binary) {
      decoded = hops::net::DecodeBatchRequest(request.body).ok();
    } else {
      decoded = hops::ParseJson(request.body).ok();
    }
    t1 = NowNanos();
    if (!decoded) {
      out.Fail("replay: recorded body does not decode");
      return;
    }
    const double decode = static_cast<double>(t1 - t0) * 1e-3;
    decode_us.push_back(decode);

    t0 = NowNanos();
    const std::shared_ptr<const hops::CatalogSnapshot> current =
        stack.store.Current();
    t1 = NowNanos();
    acquire_ns.push_back(static_cast<double>(t1 - t0));

    std::vector<hops::EstimateSpec> specs;
    for (const Spec& spec : entry.specs) {
      const ColumnDef& def = workload.catalog()[spec.column];
      t0 = NowNanos();
      const bool resolved = current->Resolve(def.table, def.column).ok();
      t1 = NowNanos();
      resolve_ns.push_back(static_cast<double>(t1 - t0));
      Result<hops::EstimateSpec> estimate_spec =
          ToEstimateSpec(spec, workload.catalog(), replay);
      if (!resolved || !estimate_spec.ok()) {
        out.Fail("replay: spec does not resolve");
        return;
      }
      specs.push_back(std::move(*estimate_spec));
    }
    t0 = NowNanos();
    const std::vector<Result<double>> results = hops::EstimateBatch(replay, specs);
    t1 = NowNanos();
    const double batch = static_cast<double>(t1 - t0) * 1e-3;
    batch_us.push_back(batch);
    ns_per_spec.push_back(static_cast<double>(t1 - t0) /
                          static_cast<double>(std::max<size_t>(1, specs.size())));

    hops::net::HttpResponse response;
    response.content_type = content_type;
    response.body = entry.response;
    response.extra_headers.emplace_back("x-hops-trace-id",
                                        std::string(32, '0'));
    t0 = NowNanos();
    const std::string rendered = hops::net::RenderHttpResponse(response, true);
    t1 = NowNanos();
    render_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    if (rendered.empty()) out.Fail("replay: empty render");

    const double handler = static_cast<double>(handler_ns.at(rid)) * 1e-3;
    const double client = static_cast<double>(done.done_ns - done.sent_ns) * 1e-3;
    handler_us.push_back(handler);
    client_us.push_back(client);
    transport_us.push_back(client - handler);
    if (client < handler) ++negative_transport;
    residual_us.push_back(handler - decode - acquire_ns.back() * 1e-3 - batch);
  }
  if (rids.empty()) {
    out.Fail("replay: no recorded requests");
    return;
  }

  const auto median = [](const std::vector<double>& v) { return Quantile(v, 0.5); };
  auto& layer = out.per_layer;
  layer["net.handler_us"] = {median(handler_us), "us"};
  layer["net.transport_us"] = {median(transport_us), "us"};
  layer["net.http_parse_us"] = {median(parse_us), "us"};
  layer["net.http_render_us"] = {median(render_us), "us"};
  layer["net.wire_decode_us"] = {binary ? median(decode_us) : 0.0, "us"};
  layer["util.json_decode_us"] = {binary ? 0.0 : median(decode_us), "us"};
  layer["engine.snapshot_acquire_ns"] = {median(acquire_ns), "ns"};
  layer["engine.resolve_ns"] = {median(resolve_ns), "ns"};
  layer["estimator.batch_us"] = {median(batch_us), "us"};
  layer["estimator.ns_per_spec"] = {median(ns_per_spec), "ns"};
  layer["net.service_residual_us"] = {median(residual_us), "us"};

  // Reconciliation. The handler is decode + acquire + batch + a residual
  // (spec resolution, response rendering, the service's own metrics and
  // tracing). Replayed parts run warm and alone, so the residual also
  // absorbs their live cache misses; the check is that the parts never
  // explain more than the handler did (residual >= -kTolerance x handler)
  // and that client time covers handler time (transport >= 0) for all but
  // kTolerance of requests.
  constexpr double kTolerance = 0.10;
  const double residual_share = median(residual_us) / median(handler_us);
  const double negative_share =
      static_cast<double>(negative_transport) / static_cast<double>(rids.size());
  layer["layers.residual_share"] = {residual_share, "ratio"};
  layer["layers.transport_negative_share"] = {negative_share, "ratio"};
  const bool reconciled = residual_share >= -kTolerance && negative_share <= kTolerance;
  layer["layers.reconciled"] = {reconciled ? 1.0 : 0.0, "bool"};

  hops::JsonWriter& w = out.report;
  w.Key("layers");
  w.BeginObject();
  w.Key("requests_replayed");
  w.UInt(rids.size());
  w.Key("tolerance");
  w.Double(kTolerance);
  w.Key("reconciled");
  w.Bool(reconciled);
  ReportStats(w, "client_us", client_us, "us");
  ReportStats(w, "handler_us", handler_us, "us");
  ReportStats(w, "transport_us", transport_us, "us");
  ReportStats(w, "http_parse_us", parse_us, "us");
  ReportStats(w, "http_render_us", render_us, "us");
  ReportStats(w, binary ? "wire_decode_us" : "json_decode_us", decode_us, "us");
  ReportStats(w, "snapshot_acquire_ns", acquire_ns, "ns");
  ReportStats(w, "resolve_ns", resolve_ns, "ns");
  ReportStats(w, "batch_us", batch_us, "us");
  ReportStats(w, "ns_per_spec", ns_per_spec, "ns");
  ReportStats(w, "service_residual_us", residual_us, "us");
  w.EndObject();
}

/// Removes a directory tree when it goes out of scope.
struct RemoveOnExit {
  std::string path;
  RemoveOnExit() = default;
  RemoveOnExit(const RemoveOnExit&) = delete;
  RemoveOnExit& operator=(const RemoveOnExit&) = delete;
  ~RemoveOnExit() {
    std::error_code ignored;
    if (!path.empty()) fs::remove_all(path, ignored);
  }
};

/// One pass of a workload: set-ups, timed phases, gates, metrics.
Outcome RunPass(const Args& args, bool traced) {
  Outcome out;
  out.report.BeginObject();
  const auto abort_with = [&out](const Status& status) {
    out.Fail(std::string(status.message()));
    out.failed += 1;
    out.attempted += 1;
    return std::move(out);
  };
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  Rng rng(args.seed);
  const WorkloadPlan plan = workload->Plan();
  if (Status prepared = workload->Prepare(rng); !prepared.ok()) {
    return abort_with(prepared);
  }
  const std::vector<ColumnInput> inputs = FrequencyInputs(workload->catalog());
  std::unique_ptr<SpanLog> spans;
  if (traced) spans = std::make_unique<SpanLog>();
  auto* ingest = dynamic_cast<IngestRefresh*>(workload.get());

  // Set up several times; the last stack serves the run. Each set-up of
  // ingest_refresh starts from an empty data directory, removed at the end
  // (after the stack: the guard is declared first, so destroyed last).
  std::vector<double> setup_s;
  RemoveOnExit data_dir;
  if (ingest != nullptr) {
    data_dir.path = args.out_dir + "/data/" + std::to_string(getpid()) +
                    (traced ? "-traced" : "-plain");
    ingest->data_dir = data_dir.path;
  }
  std::unique_ptr<Stack> stack;
  for (int k = 0; k < kSetups; ++k) {
    stack.reset();
    StackOptions options = plan.stack;
    if (ingest != nullptr) {
      options.data_dir = data_dir.path;
      std::error_code ignored;
      fs::remove_all(options.data_dir, ignored);
      fs::create_directories(options.data_dir, ignored);
    }
    double seconds = 0;
    Result<std::unique_ptr<Stack>> started =
        StartStack(workload->catalog(), inputs, options, spans.get(), &seconds);
    if (!started.ok()) return abort_with(started.status());
    stack = std::move(*started);
    setup_s.push_back(seconds);
  }
  if (Status pre = workload->Precompute(*stack); !pre.ok()) return abort_with(pre);

  LoadGenerator gen(stack->server->port(), kConnections);
  if (Status connected = gen.Connect(); !connected.ok()) return abort_with(connected);
  workload->Attach(gen, *stack, out);
  std::vector<std::string> stream_names;
  for (size_t s = 0; s < gen.num_streams(); ++s) {
    stream_names.push_back(gen.stream_name(s));
  }

  // Timed phases alternate: open loop, then saturation (where the workload
  // has one), `cycles` times, so slow drifts in the machine's load hit both
  // alike. Latencies are pooled over every open-loop cycle, throughput over
  // every saturation cycle; q-error is sampled after each open-loop cycle.
  const int cycles = std::max(3, static_cast<int>(std::lround(args.seconds / 2)));
  const bool saturate = !plan.saturation_ops.empty();
  const double open_share = saturate ? kOpenShare : kOpenShare + kSaturationShare;
  std::vector<PhaseResult> phases;
  PhaseResult timed_open;  // every open-loop cycle, merged
  uint64_t saturation_ok = 0;
  double saturation_s = 0;
  std::vector<double> cycle_q50, cycle_q95;
  // Open-loop phases run with the CPUs kept awake (IdleSpinners, README);
  // saturation phases do not: there the CPUs never idle anyway, and the
  // spinners would only stop the kernel from pulling queued threads onto a
  // CPU as it goes idle.
  const auto run_open = [&gen](const PhaseSpec& phase) {
    const IdleSpinners awake;
    return gen.Run(phase);
  };
  Result<PhaseResult> warm =
      run_open(PhaseSpec{"warmup", args.seconds * kWarmupShare, plan.open_ops});
  if (!warm.ok()) return abort_with(warm.status());
  phases.push_back(std::move(*warm));
  const Counters before = ReadCounters(*stack);
  if (stack->timed_source) stack->timed_source->Take();
  if (stack->timed_sink) stack->timed_sink->TakeMicros();
  if (stack->timed_hook) stack->timed_hook->TakeMicros();
  if (stack->timed_handler) stack->timed_handler->TakeTimes();
  for (int c = 0; c < cycles; ++c) {
    workload->record = traced;
    if (spans) spans->set_enabled(true);
    Result<PhaseResult> open = run_open(
        PhaseSpec{"open_loop", args.seconds * open_share / cycles, plan.open_ops});
    workload->record = false;
    if (spans) spans->set_enabled(false);
    if (!open.ok()) return abort_with(open.status());
    Append(*open, &timed_open);
    phases.push_back(std::move(*open));
    // Accuracy as served right now: the probe set on the live snapshot
    // against the truth carried through every delta sent so far (at most
    // one daemon tick of them not applied yet).
    std::vector<double> estimates, qerrors;
    ProbeQError(workload->probes(), workload->catalog(), *stack->store.Current(),
                out, &estimates, &qerrors);
    cycle_q50.push_back(Quantile(qerrors, 0.5));
    cycle_q95.push_back(Quantile(qerrors, 0.95));

    if (!saturate) continue;
    Result<PhaseResult> saturation = gen.Run(
        PhaseSpec{"saturation", args.seconds * kSaturationShare / cycles,
                  plan.saturation_ops, /*record_completions=*/false});
    if (!saturation.ok()) return abort_with(saturation.status());
    saturation_ok += saturation->counts[kEstimateStream].succeeded;
    saturation_s += saturation->seconds;
    phases.push_back(std::move(*saturation));
  }
  const Counters after = ReadCounters(*stack);

  // Gates and accuracy; ingest_refresh also restarts here, and fills in
  // the storage figures (zero where nothing is durable).
  auto& layer = out.per_layer;
  layer["storage.bytes_per_record"] = {0.0, "B"};
  layer["storage.fsyncs"] = {0.0, "count"};
  layer["storage.writeback_kicks"] = {0.0, "count"};
  const hops::telemetry::MetricsSnapshot http = stack->registry.Collect();
  if (Status finished = workload->Finish(*stack, out); !finished.ok()) {
    return abort_with(finished);
  }
  for (const PhaseResult& phase : phases) {
    for (const OpCounts& counts : phase.counts) {
      out.attempted += counts.sent;
      out.failed += counts.failed;
    }
  }

  // ---- end-to-end metrics
  const std::vector<double> estimate_us = LatenciesUs(timed_open, kEstimateStream);
  auto& e2e = out.end_to_end;
  e2e["setup_s"] = {Quantile(setup_s, 0.5), "s"};
  e2e["estimate_p50_us"] = {Quantile(estimate_us, 0.5), "us"};
  e2e["qerror_p50"] = {Quantile(cycle_q50, 0.5), "ratio"};
  e2e["qerror_p95"] = {Quantile(cycle_q95, 0.5), "ratio"};
  e2e["rss_mb"] = {PeakRssMb(), "MB"};

  // ---- per-layer metrics (every pass computes the cheap ones); the
  // workload-specific end-to-end figures are here because BENCHMARK.json
  // gates only metrics every workload reports (README).
  const std::vector<double> update_us = LatenciesUs(timed_open, kUpdateStream);
  layer["estimate_p99_us"] = {Quantile(estimate_us, 0.99), "us"};
  layer["estimate_rps"] = {
      saturate ? static_cast<double>(saturation_ok) / std::max(1e-9, saturation_s)
               : 0.0,
      "1/s"};
  layer["update_ack_p50_us"] = {Quantile(update_us, 0.5), "us"};
  layer["update_ack_p99_us"] = {Quantile(update_us, 0.99), "us"};
  layer["recovery_s"] = {ingest ? ingest->recovery_s_ : 0.0, "s"};
  layer["restart_mismatch_frac"] = {ingest ? ingest->restart_mismatch_frac_ : 0.0,
                                    "ratio"};
  layer["storage.replayed_records"] = {
      ingest ? static_cast<double>(ingest->replayed_records_) : 0.0, "count"};
  layer["error_rate"] = {static_cast<double>(out.failed) /
                             static_cast<double>(std::max<uint64_t>(1, out.attempted)),
                         "ratio"};
  layer["loadgen.lag_p99_us"] = {
      Quantile({timed_open.lag_us.begin(), timed_open.lag_us.end()}, 0.99), "us"};
  const uint64_t lookups = (after.cache_hits - before.cache_hits) +
                           (after.cache_misses - before.cache_misses);
  layer["engine.cache_hit_ratio"] = {
      lookups == 0 ? 0.0
                   : static_cast<double>(after.cache_hits - before.cache_hits) /
                         static_cast<double>(lookups),
      "ratio"};
  layer["engine.publishes"] = {static_cast<double>(after.publishes - before.publishes),
                               "count"};
  layer["refresh.ticks_skipped"] = {
      static_cast<double>(after.refresh.ticks_skipped - before.refresh.ticks_skipped),
      "count"};
  layer["refresh.producer_waits"] = {
      static_cast<double>(after.refresh.log.producer_waits -
                          before.refresh.log.producer_waits),
      "count"};
  layer["refresh.tuning_adjustments"] = {
      static_cast<double>(stack->manager->stats().tuning_adjustments), "count"};
  layer["net.requests_estimate"] = {
      static_cast<double>(CounterTotal(http, "hops_http_requests_total", "endpoint", "/estimate")),
      "count"};
  layer["net.requests_update"] = {
      static_cast<double>(CounterTotal(http, "hops_http_requests_total", "endpoint", "/update")),
      "count"};
  layer["net.requests_feedback"] = {
      static_cast<double>(CounterTotal(http, "hops_http_requests_total", "endpoint", "/feedback")),
      "count"};
  uint64_t explicit_keys = 0;
  {
    const std::shared_ptr<const hops::CatalogSnapshot> snapshot = stack->store.Current();
    for (size_t c = 0; c < snapshot->num_columns(); ++c) {
      explicit_keys += snapshot->stats(static_cast<hops::ColumnId>(c)).histogram->num_explicit();
    }
  }
  layer["histogram.explicit_keys"] = {static_cast<double>(explicit_keys), "count"};
  layer["histogram.register_ms"] = {Quantile(stack->register_ms, 0.5), "ms"};

  if (traced) {
    const TimedRefreshSource::Totals ticks = stack->timed_source->Take();
    layer["refresh.tick_ms_p50"] = {Quantile(ticks.tick_ms, 0.5), "ms"};
    layer["refresh.tick_ms_p95"] = {Quantile(ticks.tick_ms, 0.95), "ms"};
    layer["refresh.deltas_applied"] = {static_cast<double>(ticks.deltas_applied), "count"};
    layer["refresh.rebuilds"] = {static_cast<double>(ticks.rebuilds), "count"};
    layer["refresh.republishes"] = {static_cast<double>(ticks.republishes), "count"};
    const std::vector<double> feedback_us = stack->timed_sink->TakeMicros();
    layer["refresh.feedback_us"] = {Quantile(feedback_us, 0.5), "us"};
    std::vector<double> persist_us;
    if (stack->timed_hook) persist_us = stack->timed_hook->TakeMicros();
    layer["storage.persist_us_p50"] = {Quantile(persist_us, 0.5), "us"};
    layer["storage.persist_us_p99"] = {Quantile(persist_us, 0.99), "us"};
    ReportStats(out.report, "refresh_tick_ms", ticks.tick_ms, "ms");
    ReportStats(out.report, "feedback_sink_us", feedback_us, "us");
    ReportStats(out.report, "persist_us", persist_us, "us");

    ReplayLayers(*workload, *stack, timed_open, plan.binary_estimates, out);

    // Snapshot compile and histogram build, replayed on the final catalog
    // and the generated frequency sets.
    std::vector<double> compile_ms;
    for (int i = 0; i < 5; ++i) {
      const int64_t t0 = NowNanos();
      const bool ok = hops::CatalogSnapshot::Compile(stack->catalog).ok();
      compile_ms.push_back(static_cast<double>(NowNanos() - t0) * 1e-6);
      if (!ok) out.Fail("replay: snapshot compile failed");
    }
    layer["engine.snapshot_compile_ms"] = {Quantile(compile_ms, 0.5), "ms"};
    ReportStats(out.report, "snapshot_compile_ms", compile_ms, "ms");
    std::vector<double> build_ms;
    for (int i = 0; i < 3; ++i) {
      std::vector<hops::HistogramBuildRequest> requests;
      for (const ColumnInput& input : inputs) {
        hops::HistogramBuildRequest request;
        request.set = hops::FrequencySet::Make(input.frequencies).ValueOrDie();
        request.num_buckets = plan.stack.num_buckets;
        request.kind = hops::HistogramBuilderKind::kVOptEndBiased;
        requests.push_back(std::move(request));
      }
      const int64_t t0 = NowNanos();
      const auto built = hops::BuildHistogramBatch(std::move(requests));
      build_ms.push_back(static_cast<double>(NowNanos() - t0) * 1e-6);
      for (const auto& histogram : built) {
        if (!histogram.ok()) out.Fail("replay: histogram build failed");
      }
    }
    layer["histogram.build_ms"] = {Quantile(build_ms, 0.5), "ms"};
    ReportStats(out.report, "histogram_build_ms", build_ms, "ms");

    spans->set_enabled(true);
    for (const Completion& c : timed_open.completions) {
      spans->Add("bench.request", c.rid, ClientSpanId(c.rid), 0, c.due_ns,
                 c.done_ns, stream_names[c.stream]);
    }
    out.trace_json = spans->RenderChromeTrace();
    out.report.Key("spans_dropped");
    out.report.UInt(spans->dropped());
  }

  // ---- validity: the generator must keep its schedule. Single late
  // sends (a descheduled vCPU) show in lag_p99; a median lag that is a
  // material share of the median latency means the generator, not the
  // server, set the latencies of the run, which is then not valid.
  const double lag_p50 =
      Quantile({timed_open.lag_us.begin(), timed_open.lag_us.end()}, 0.5);
  const bool valid = lag_p50 <= kMaxLagShare * Quantile(estimate_us, 0.5);
  layer["loadgen.valid"] = {valid ? 1.0 : 0.0, "bool"};
  out.report.Key("loadgen_valid");
  out.report.Bool(valid);
  if (!valid) {
    out.Fail("run invalid: the load generator fell behind its schedule "
             "(median send lag " + std::to_string(lag_p50) + " us)");
  }

  hops::JsonWriter& w = out.report;
  ReportStats(w, "setup_s", setup_s, "s");
  ReportStats(w, "register_ms", stack->register_ms, "ms");
  ReportStats(w, "estimate_latency_us", estimate_us, "us");
  ReportStats(w, "update_ack_us", update_us, "us");
  ReportStats(w, "cycle_qerror_p50", cycle_q50, "ratio");
  ReportStats(w, "cycle_qerror_p95", cycle_q95, "ratio");
  w.Key("phases");
  w.BeginArray();
  for (const PhaseResult& phase : phases) ReportPhase(w, phase, stream_names);
  w.EndArray();
  return out;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

void WriteMetrics(std::ostringstream& line, const std::map<std::string, Metric>& metrics) {
  line << "\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    line << (first ? "" : ",") << "\"" << name << "\":{\"value\":" << value
         << ",\"unit\":\"" << metric.unit << "\"}";
    first = false;
  }
  line << "}";
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--source-rev") {
      args.source_rev = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (MakeWorkload(args) == nullptr || args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: hopsbench --workload estimate_cold|estimate_hot_churn|"
                 "ingest_refresh --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  hops::telemetry::SetLogStderr(false);
  // Before any library thread exists (the global pool starts lazily), so
  // they all inherit the server's share of the CPUs.
  ReserveGeneratorCpu();

  Outcome plain = RunPass(args, /*traced=*/false);
  Outcome traced;
  if (args.trace) {
    traced = RunPass(args, /*traced=*/true);
    const double base = plain.end_to_end["estimate_p50_us"].value;
    traced.per_layer["trace.overhead_pct"] = {
        base > 0 ? 100.0 * (traced.end_to_end["estimate_p50_us"].value - base) / base
                 : 0.0,
        "%"};
  }

  utsname uts{};
  uname(&uts);
  const std::string stem = args.workload + "-seed" + std::to_string(args.seed) +
                           (args.trace ? "-trace" : "");
  std::error_code ignored;
  fs::create_directories(args.out_dir + "/reports", ignored);
  for (Outcome* pass : {&plain, &traced}) {
    if (pass == &traced && !args.trace) continue;
    hops::JsonWriter& w = pass->report;
    w.Key("failures");
    w.BeginArray();
    for (const std::string& f : pass->failures) w.String(f);
    w.EndArray();
    w.EndObject();
  }
  {
    hops::JsonWriter doc;
    doc.BeginObject();
    doc.Key("workload");
    doc.String(args.workload);
    doc.Key("seed");
    doc.UInt(args.seed);
    doc.Key("seconds");
    doc.Double(args.seconds);
    doc.Key("machine");
    doc.BeginObject();
    doc.Key("cpu_model");
    doc.String(CpuModel());
    doc.Key("nproc");
    doc.UInt(std::thread::hardware_concurrency());
    doc.Key("kernel");
    doc.String(std::string(uts.sysname) + " " + uts.release);
    doc.EndObject();
    doc.Key("source_rev");
    doc.String(args.source_rev);
#ifdef HOPSBENCH_BUILD_TYPE
    doc.Key("build_type");
    doc.String(HOPSBENCH_BUILD_TYPE);
#endif
    doc.Key("plain");
    doc.Raw(plain.report.str());
    if (args.trace) {
      doc.Key("traced");
      doc.Raw(traced.report.str());
    }
    doc.EndObject();
    std::ofstream(args.out_dir + "/reports/" + stem + ".json") << doc.str() << "\n";
  }
  if (args.trace && !traced.trace_json.empty()) {
    fs::create_directories(args.out_dir + "/traces", ignored);
    std::ofstream(args.out_dir + "/traces/" + stem + ".json") << traced.trace_json;
  }

  // Human-readable summary, then the result line.
  for (const Outcome* pass : {&plain, &traced}) {
    if (pass == &traced && !args.trace) continue;
    for (const auto& [name, metric] : pass->end_to_end) {
      std::printf("%-10s %-32s %14.6g %s\n", pass == &plain ? "plain" : "traced",
                  name.c_str(), metric.value, metric.unit.c_str());
    }
    for (const auto& [name, metric] : pass->per_layer) {
      std::printf("%-10s %-32s %14.6g %s\n", pass == &plain ? "plain" : "traced",
                  name.c_str(), metric.value, metric.unit.c_str());
    }
    for (const std::string& f : pass->failures) {
      std::printf("FAILED (%s): %s\n", pass == &plain ? "plain" : "traced", f.c_str());
    }
  }
  std::printf("report: %s/reports/%s.json\n", args.out_dir.c_str(), stem.c_str());

  const bool correct = plain.failures.empty() && plain.failed == 0 &&
                       (!args.trace || (traced.failures.empty() && traced.failed == 0));
  std::ostringstream line;
  line << "{\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << plain.attempted + traced.attempted
       << ",\"failed\":" << plain.failed + traced.failed << ",";
  WriteMetrics(line, args.trace ? traced.per_layer : plain.end_to_end);
  line << "}";
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace hopsbench

int main(int argc, char** argv) { return hopsbench::Main(argc, argv); }
