// RefreshDaemon: lifecycle, tick driving, drain semantics — and the
// subsystem's concurrency soak: writer threads recording deltas, reader
// threads serving EstimateBatch from published snapshots, and the daemon
// applying/rebuilding/republishing, all at once. Run under
// -DHOPS_SANITIZE=thread in CI (scripts/check.sh --tsan); the assertions
// below additionally prove readers never observe a torn snapshot.
//
// This suite is its own binary so the sanitizer job can run exactly the
// concurrency-sensitive tests (see tests/CMakeLists.txt).

#include "refresh/refresh_daemon.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "estimator/serving.h"
#include "refresh/refresh_manager.h"

namespace hops {
namespace {

using namespace std::chrono_literals;

struct Fixture {
  Catalog catalog;
  SnapshotStore store;
};

Result<RefreshColumnId> RegisterSkewed(RefreshManager* manager,
                                       const std::string& table,
                                       const std::string& column) {
  std::vector<int64_t> values;
  std::vector<double> freqs;
  for (int64_t v = 1; v <= 20; ++v) {
    values.push_back(v);
    freqs.push_back(v == 1 ? 400.0 : v == 2 ? 200.0 : 10.0);
  }
  return manager->RegisterColumn(table, column, values, freqs);
}

// Polls \p done every millisecond for up to \p budget. Returns whether the
// predicate turned true (tests assert on it — no raw sleeps).
template <typename Predicate>
bool WaitFor(Predicate done, std::chrono::milliseconds budget = 10'000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(RefreshDaemonTest, StartStopLifecycle) {
  Fixture f;
  RefreshManager manager(&f.catalog, &f.store);
  RefreshDaemon daemon(&manager);
  EXPECT_FALSE(daemon.running());
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_TRUE(daemon.running());
  ASSERT_TRUE(daemon.Stop().ok());
  EXPECT_FALSE(daemon.running());
  // Stop is idempotent; restart works.
  ASSERT_TRUE(daemon.Stop().ok());
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_TRUE(daemon.running());
  ASSERT_TRUE(daemon.Stop().ok());
}

TEST(RefreshDaemonTest, DoubleStartIsAlreadyExists) {
  Fixture f;
  RefreshManager manager(&f.catalog, &f.store);
  RefreshDaemon daemon(&manager);
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_TRUE(daemon.Start().IsAlreadyExists());
  ASSERT_TRUE(daemon.Stop().ok());
}

TEST(RefreshDaemonTest, NullManagerIsRejected) {
  RefreshDaemon daemon(nullptr);
  EXPECT_TRUE(daemon.Start().IsInvalidArgument());
  EXPECT_FALSE(daemon.running());
}

TEST(RefreshDaemonTest, PeriodicTicksRunWithoutWork) {
  Fixture f;
  RefreshManager manager(&f.catalog, &f.store);
  RefreshDaemonOptions options;
  options.tick_interval_micros = 200;
  RefreshDaemon daemon(&manager, options);
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_TRUE(WaitFor([&] { return daemon.ticks() >= 3; }));
  ASSERT_TRUE(daemon.Stop().ok());
  EXPECT_TRUE(daemon.last_tick_status().ok());
  EXPECT_EQ(manager.stats().ticks, daemon.ticks());
}

TEST(RefreshDaemonTest, RequestTickAppliesQueuedDeltas) {
  Fixture f;
  RefreshManager manager(&f.catalog, &f.store);
  auto id = RegisterSkewed(&manager, "orders", "customer_id");
  ASSERT_TRUE(id.ok());

  RefreshDaemonOptions options;
  options.tick_interval_micros = 60'000'000;  // periodic path effectively off
  RefreshDaemon daemon(&manager, options);
  ASSERT_TRUE(daemon.Start().ok());

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(manager.RecordInsert(*id, 1).ok());
  }
  daemon.RequestTick();
  EXPECT_TRUE(WaitFor([&] { return manager.stats().deltas_applied >= 10; }));
  ASSERT_TRUE(daemon.Stop().ok());

  auto stats = f.catalog.GetColumnStatistics("orders", "customer_id");
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->histogram.LookupFrequency(1), 410.0);
}

TEST(RefreshDaemonTest, DrainAndStopAppliesEverythingEnqueued) {
  Fixture f;
  RefreshManager manager(&f.catalog, &f.store);
  auto id = RegisterSkewed(&manager, "orders", "customer_id");
  ASSERT_TRUE(id.ok());

  RefreshDaemonOptions options;
  options.tick_interval_micros = 60'000'000;
  RefreshDaemon daemon(&manager, options);
  ASSERT_TRUE(daemon.Start().ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(manager.RecordInsert(*id, 2).ok());
  }
  ASSERT_TRUE(daemon.DrainAndStop().ok());
  EXPECT_FALSE(daemon.running());
  EXPECT_EQ(manager.update_log().depth(), 0u);
  EXPECT_EQ(manager.stats().deltas_applied, 200u);
  auto stats = f.catalog.GetColumnStatistics("orders", "customer_id");
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->histogram.LookupFrequency(2), 400.0);
}

// The headline concurrency soak: writers push deltas (single records and
// atomic batches) through the bounded log, readers serve batched estimates
// from whatever snapshot is published, the daemon ticks fast enough to
// apply, rebuild, and republish continuously. Invariants checked from the
// reader side:
//   1. source_version is monotone (RCU publication never goes backwards);
//   2. every snapshot is internally consistent — each column's scalar
//      num_tuples matches its compiled histogram's total mass (a torn
//      publish or a mid-mutation compile would break this);
//   3. estimates are finite and nonnegative.
// And after the drain: exact mass reconciliation — no delta lost or
// double-applied anywhere in the pipeline.
TEST(RefreshDaemonTest, SoakWritersReadersDaemon) {
  Fixture f;
  RefreshOptions options;
  options.queue_capacity = 1024;  // exercise backpressure
  options.maintenance.rebuild_drift_fraction = 0.02;  // rebuild often
  RefreshManager manager(&f.catalog, &f.store, options);
  auto left = RegisterSkewed(&manager, "fact", "key");
  auto right = RegisterSkewed(&manager, "dim", "key");
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());

  RefreshDaemonOptions daemon_options;
  daemon_options.tick_interval_micros = 200;
  RefreshDaemon daemon(&manager, daemon_options);
  ASSERT_TRUE(daemon.Start().ok());

  constexpr int kWriters = 3;
  constexpr int kOpsPerWriter = 2000;
  std::atomic<bool> writers_done{false};
  std::atomic<int> reader_failures{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const RefreshColumnId column = (w % 2 == 0) ? *left : *right;
      const int64_t owned = 100 + w;  // each writer owns a fresh value
      int net = 0;
      for (int i = 0; i < kOpsPerWriter; ++i) {
        // Two inserts then a delete: net growth, never below zero for the
        // owned value, so maintained mass tracks ideal mass exactly.
        if (i % 3 == 2 && net > 0) {
          ASSERT_TRUE(manager.RecordDelete(column, owned).ok());
          --net;
        } else {
          ASSERT_TRUE(manager.RecordInsert(column, owned).ok());
          ++net;
        }
      }
    });
  }

  // One more writer issues atomic RecordBatch chunks (insert, insert,
  // delete of its own value, applied in order: net +1 per chunk, never
  // below zero), so the batch accept path races the daemon's drain too.
  constexpr int kBatches = 500;
  constexpr int64_t kBatchOwned = 100 + kWriters;
  const RefreshColumnId batch_column = *right;
  writers.emplace_back([&] {
    const std::vector<UpdateRecord> chunk = {
        UpdateRecord{batch_column, kBatchOwned, +1.0},
        UpdateRecord{batch_column, kBatchOwned, +1.0},
        UpdateRecord{batch_column, kBatchOwned, -1.0}};
    for (int i = 0; i < kBatches; ++i) {
      ASSERT_TRUE(manager.RecordBatch(chunk).ok());
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      uint64_t last_version = 0;
      while (!writers_done.load(std::memory_order_acquire)) {
        std::shared_ptr<const CatalogSnapshot> snapshot = f.store.Current();
        // (1) Monotone publication.
        if (snapshot->source_version() < last_version) {
          ++reader_failures;
          return;
        }
        last_version = snapshot->source_version();
        // (2) Internal consistency of every column.
        for (ColumnId id = 0; id < snapshot->num_columns(); ++id) {
          const CompiledColumnStats& stats = snapshot->stats(id);
          if (stats.histogram == nullptr) {
            ++reader_failures;
            return;
          }
          const double mass = stats.histogram->EstimatedTotal();
          if (std::fabs(mass - stats.num_tuples) >
              1e-6 * (1.0 + stats.num_tuples)) {
            ++reader_failures;
            return;
          }
        }
        // (3) Batched estimates over the snapshot stay well-formed.
        auto fact = snapshot->Resolve("fact", "key");
        auto dim = snapshot->Resolve("dim", "key");
        if (!fact.ok() || !dim.ok()) {
          ++reader_failures;
          return;
        }
        std::vector<EstimateSpec> specs;
        specs.push_back(EstimateSpec::Equality(*fact, Value(int64_t{1})));
        specs.push_back(EstimateSpec::Equality(*fact, Value(int64_t{100})));
        specs.push_back(EstimateSpec::Equality(*dim, Value(int64_t{101})));
        specs.push_back(EstimateSpec::Join(*fact, *dim));
        std::vector<Result<double>> estimates =
            EstimateBatch(*snapshot, specs);
        for (const Result<double>& estimate : estimates) {
          if (!estimate.ok() || !std::isfinite(*estimate) || *estimate < 0) {
            ++reader_failures;
            return;
          }
        }
      }
    });
  }

  for (auto& thread : writers) thread.join();
  writers_done.store(true, std::memory_order_release);
  for (auto& thread : readers) thread.join();

  ASSERT_TRUE(daemon.DrainAndStop().ok());
  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_EQ(manager.update_log().depth(), 0u);

  RefreshStats stats = manager.stats();
  const uint64_t expected_records =
      static_cast<uint64_t>(kWriters * kOpsPerWriter + 3 * kBatches);
  EXPECT_EQ(stats.deltas_applied, expected_records);
  EXPECT_EQ(stats.log.enqueued, expected_records);
  EXPECT_EQ(stats.log.drained, expected_records);
  EXPECT_EQ(stats.unknown_column_records, 0u);
  EXPECT_GE(stats.republish_count, 1u);
  EXPECT_GT(stats.ticks, 0u);

  // Final catalog mass equals initial mass plus the writers' net growth —
  // no delta was lost or double-applied anywhere in the pipeline.
  const double initial_mass = 400.0 + 200.0 + 18 * 10.0;
  double expected_left = initial_mass;
  double expected_right = initial_mass;
  for (int w = 0; w < kWriters; ++w) {
    int net = 0;
    for (int i = 0; i < kOpsPerWriter; ++i) {
      if (i % 3 == 2 && net > 0) {
        --net;
      } else {
        ++net;
      }
    }
    (w % 2 == 0 ? expected_left : expected_right) += net;
  }
  expected_right += kBatches;  // the batch writer's net growth
  auto fact_stats = f.catalog.GetColumnStatistics("fact", "key");
  auto dim_stats = f.catalog.GetColumnStatistics("dim", "key");
  ASSERT_TRUE(fact_stats.ok());
  ASSERT_TRUE(dim_stats.ok());
  EXPECT_NEAR(fact_stats->num_tuples, expected_left, 1e-6 * expected_left);
  EXPECT_NEAR(dim_stats->num_tuples, expected_right, 1e-6 * expected_right);

  // The drift policy must have fired at least once under this much churn.
  EXPECT_GE(stats.rebuilds_total, 1u);
}

}  // namespace
}  // namespace hops
