// UpdateLog: bounded MPSC delta queue — ordering, backpressure, shutdown,
// batch atomicity (all-or-nothing chunks), and the blocked-interval
// accounting contract of producer_waits / UpdateLog.BackpressureWait.

#include "refresh/update_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/metrics.h"

namespace hops {
namespace {

// Current value of hops_span_total{span="UpdateLog.BackpressureWait"} in the
// global registry; 0 before the site's first use.
double BackpressureSpanCount() {
  const telemetry::MetricsSnapshot snapshot =
      telemetry::MetricRegistry::Global().Collect();
  const telemetry::MetricSnapshot* metric = snapshot.Find(
      "hops_span_total",
      telemetry::LabelSet{{"span", "UpdateLog.BackpressureWait"}});
  return metric == nullptr ? 0.0 : metric->value;
}

TEST(UpdateLogTest, RecordsDrainInFifoOrder) {
  UpdateLog log(16);
  ASSERT_TRUE(log.RecordInsert(3, 10).ok());
  ASSERT_TRUE(log.RecordDelete(3, 10).ok());
  ASSERT_TRUE(log.RecordInsert(7, -5).ok());
  EXPECT_EQ(log.depth(), 3u);

  std::vector<UpdateRecord> out;
  EXPECT_EQ(log.Drain(&out), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].column, 3u);
  EXPECT_EQ(out[0].value, 10);
  EXPECT_DOUBLE_EQ(out[0].weight, +1.0);
  EXPECT_DOUBLE_EQ(out[1].weight, -1.0);
  EXPECT_EQ(out[2].column, 7u);
  EXPECT_EQ(out[2].value, -5);
  EXPECT_EQ(log.depth(), 0u);
}

TEST(UpdateLogTest, DrainAppendsAndHonorsMax) {
  UpdateLog log(16);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(log.RecordInsert(0, i).ok());
  std::vector<UpdateRecord> out;
  out.push_back(UpdateRecord{99, 99, +1.0});  // pre-existing content survives
  EXPECT_EQ(log.Drain(&out, 4), 4u);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].column, 99u);
  EXPECT_EQ(out[1].value, 0);
  EXPECT_EQ(out[4].value, 3);
  EXPECT_EQ(log.depth(), 2u);
  EXPECT_EQ(log.Drain(&out), 2u);
  EXPECT_EQ(log.depth(), 0u);
}

TEST(UpdateLogTest, TryRecordRefusesWhenFull) {
  UpdateLog log(2);
  EXPECT_TRUE(log.TryRecord(UpdateRecord{0, 1, +1.0}));
  EXPECT_TRUE(log.TryRecord(UpdateRecord{0, 2, +1.0}));
  EXPECT_FALSE(log.TryRecord(UpdateRecord{0, 3, +1.0}));
  UpdateLogStats stats = log.stats();
  EXPECT_EQ(stats.enqueued, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.depth, 2u);
  EXPECT_EQ(stats.high_water, 2u);
  EXPECT_EQ(stats.capacity, 2u);
}

TEST(UpdateLogTest, CapacityClampedToAtLeastOne) {
  UpdateLog log(0);
  EXPECT_EQ(log.stats().capacity, 1u);
  EXPECT_TRUE(log.TryRecord(UpdateRecord{0, 1, +1.0}));
  EXPECT_FALSE(log.TryRecord(UpdateRecord{0, 2, +1.0}));
}

TEST(UpdateLogTest, ProducerBlocksUntilConsumerDrains) {
  UpdateLog log(1);
  ASSERT_TRUE(log.RecordInsert(0, 0).ok());  // fill the log

  std::atomic<bool> enqueued{false};
  std::thread producer([&] {
    ASSERT_TRUE(log.RecordInsert(0, 1).ok());  // must block until drain
    enqueued.store(true);
  });

  // The producer cannot finish while the log is full. (A sleep would be
  // flaky the other way; instead we just verify the unblock path.)
  std::vector<UpdateRecord> out;
  while (log.stats().producer_waits == 0 && !enqueued.load()) {
    std::this_thread::yield();
  }
  log.Drain(&out);
  producer.join();
  EXPECT_TRUE(enqueued.load());
  log.Drain(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].value, 1);
  EXPECT_GE(log.stats().producer_waits, 1u);
}

TEST(UpdateLogTest, RecordBatchLargerThanCapacityCompletesWithDrains) {
  UpdateLog log(2);
  std::vector<UpdateRecord> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(UpdateRecord{0, i, +1.0});

  std::thread producer([&] { ASSERT_TRUE(log.RecordBatch(batch).ok()); });

  std::vector<UpdateRecord> out;
  while (out.size() < batch.size()) {
    log.Drain(&out);
    std::this_thread::yield();
  }
  producer.join();
  ASSERT_EQ(out.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i].value, i);
  EXPECT_EQ(log.stats().enqueued, 8u);
  EXPECT_EQ(log.stats().drained, 8u);
}

TEST(UpdateLogTest, CloseFailsFurtherRecordsButKeepsQueued) {
  UpdateLog log(4);
  ASSERT_TRUE(log.RecordInsert(1, 1).ok());
  log.Close();
  EXPECT_TRUE(log.closed());
  Status status = log.RecordInsert(1, 2);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(log.TryRecord(UpdateRecord{1, 3, +1.0}));
  std::vector<UpdateRecord> out;
  EXPECT_EQ(log.Drain(&out), 1u);  // queued records remain drainable
  EXPECT_EQ(out[0].value, 1);
}

TEST(UpdateLogTest, CloseWakesBlockedProducer) {
  UpdateLog log(1);
  ASSERT_TRUE(log.RecordInsert(0, 0).ok());
  std::atomic<bool> failed{false};
  std::thread producer([&] {
    Status status = log.RecordInsert(0, 1);  // blocks on full log
    failed.store(!status.ok());
  });
  while (log.stats().producer_waits == 0) std::this_thread::yield();
  log.Close();
  producer.join();
  EXPECT_TRUE(failed.load());  // woken with a closed error, not a deadlock
}

TEST(UpdateLogTest, ManyProducersLoseNothing) {
  UpdateLog log(64);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(
            log.RecordInsert(static_cast<RefreshColumnId>(p), i).ok());
      }
    });
  }
  std::vector<UpdateRecord> out;
  while (out.size() < kProducers * kPerProducer) {
    log.Drain(&out);
    std::this_thread::yield();
  }
  for (auto& thread : producers) thread.join();
  EXPECT_EQ(out.size(), static_cast<size_t>(kProducers * kPerProducer));
  // Per-producer order is preserved even though the global interleaving is
  // arbitrary.
  std::vector<int> next(kProducers, 0);
  for (const UpdateRecord& record : out) {
    ASSERT_LT(record.column, static_cast<RefreshColumnId>(kProducers));
    EXPECT_EQ(record.value, next[record.column]);
    ++next[record.column];
  }
}

// ---------------------------------------------------------- batch atomicity

// A batch that fits the capacity is all-or-nothing: closing the log while
// the batch is blocked on backpressure must admit NONE of its records — no
// silent prefix that would skew the maintained statistics.
TEST(UpdateLogTest, RecordBatchAllOrNothingWhenClosedWhileBlocked) {
  UpdateLog log(4);
  ASSERT_TRUE(log.RecordInsert(9, 1).ok());  // prefill: 2 of 4 slots
  ASSERT_TRUE(log.RecordInsert(9, 2).ok());

  std::vector<UpdateRecord> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(UpdateRecord{0, i, +1.0});

  Status batch_status = Status::OK();
  std::thread producer([&] {
    // Needs 4 free slots but only 2 exist: blocks without committing.
    batch_status = log.RecordBatch(batch);
  });
  while (log.stats().producer_waits == 0) std::this_thread::yield();
  log.Close();
  producer.join();

  EXPECT_TRUE(batch_status.IsResourceExhausted());
  EXPECT_NE(batch_status.message().find("0 of 4"), std::string::npos)
      << batch_status.message();

  // Only the prefill is in the log; the blocked batch left nothing behind.
  std::vector<UpdateRecord> out;
  EXPECT_EQ(log.Drain(&out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].value, 1);
  EXPECT_EQ(out[1].value, 2);
  EXPECT_EQ(log.stats().enqueued, 2u);
}

// A batch larger than the capacity commits in capacity-sized atomic chunks;
// a close mid-batch reports exactly the committed whole chunks.
TEST(UpdateLogTest, OversizeBatchClosedMidwayReportsWholeChunks) {
  UpdateLog log(2);
  std::vector<UpdateRecord> batch;
  for (int i = 0; i < 5; ++i) batch.push_back(UpdateRecord{0, i, +1.0});

  Status batch_status = Status::OK();
  std::thread producer([&] { batch_status = log.RecordBatch(batch); });

  // Chunk 1 (2 records) commits immediately; the producer then blocks for
  // chunk 2. Drain chunk 1, let chunk 2 commit, then close while the
  // producer is blocked for chunk 3.
  std::vector<UpdateRecord> out;
  while (log.stats().producer_waits < 1) std::this_thread::yield();
  EXPECT_EQ(log.Drain(&out), 2u);
  while (log.stats().producer_waits < 2) std::this_thread::yield();
  log.Close();
  producer.join();

  EXPECT_TRUE(batch_status.IsResourceExhausted());
  EXPECT_NE(batch_status.message().find("4 of 5"), std::string::npos)
      << batch_status.message();
  EXPECT_EQ(log.Drain(&out), 2u);  // chunk 2 was fully committed
  ASSERT_EQ(out.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i].value, i);
  EXPECT_EQ(log.stats().enqueued, 4u);
}

// ------------------------------------------------- blocked-interval counting

TEST(UpdateLogTest, RecordWithFreeSpaceNeverCountsAWait) {
  UpdateLog log(4);
  ASSERT_TRUE(log.RecordInsert(0, 1).ok());
  ASSERT_TRUE(log.RecordInsert(0, 2).ok());
  std::vector<UpdateRecord> batch = {UpdateRecord{0, 3, +1.0},
                                     UpdateRecord{0, 4, +1.0}};
  ASSERT_TRUE(log.RecordBatch(batch).ok());  // exactly fills the log
  EXPECT_EQ(log.stats().producer_waits, 0u);
}

// The counting contract, pinned deterministically: producer_waits (and the
// BackpressureWait span) count blocked *intervals*, not records and not
// wake-ups. A 6-record batch through a capacity-2 log blocks exactly twice
// (chunks 2 and 3; chunk 1 finds the log empty), even though the consumer's
// one-record drains wake each wait several times before enough space opens.
TEST(UpdateLogTest, ProducerWaitsCountBlockedIntervalsExactly) {
  telemetry::SetEnabled(true);
  const double spans_before = BackpressureSpanCount();

  UpdateLog log(2);
  std::vector<UpdateRecord> batch;
  for (int i = 0; i < 6; ++i) batch.push_back(UpdateRecord{0, i, +1.0});
  std::thread producer([&] { ASSERT_TRUE(log.RecordBatch(batch).ok()); });

  // Drain one record at a time: each chunk wait spans two one-slot drains.
  std::vector<UpdateRecord> out;
  while (out.size() < batch.size()) {
    if (log.Drain(&out, 1) == 0) std::this_thread::yield();
  }
  producer.join();

  for (int i = 0; i < 6; ++i) EXPECT_EQ(out[i].value, i);
  EXPECT_EQ(log.stats().producer_waits, 2u);
  EXPECT_DOUBLE_EQ(BackpressureSpanCount() - spans_before, 2.0);
}

// ----------------------------------------------- multi-producer close storms

// Close() racing several blocked batch producers: every producer fails
// exactly once with zero records admitted — nothing lost, nothing duplicated,
// nothing torn (DESIGN.md §8 write-path correctness).
TEST(UpdateLogTest, CloseWhileManyBatchProducersBlockedAdmitsNone) {
  UpdateLog log(2);
  ASSERT_TRUE(log.RecordInsert(9, 1).ok());  // fill the log
  ASSERT_TRUE(log.RecordInsert(9, 2).ok());

  constexpr int kProducers = 4;
  std::vector<Status> statuses(kProducers, Status::OK());
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<UpdateRecord> batch = {
          UpdateRecord{static_cast<RefreshColumnId>(p), 0, +1.0},
          UpdateRecord{static_cast<RefreshColumnId>(p), 1, +1.0}};
      statuses[p] = log.RecordBatch(batch);
    });
  }
  while (log.stats().producer_waits <
         static_cast<uint64_t>(kProducers)) {
    std::this_thread::yield();
  }
  log.Close();
  for (auto& thread : producers) thread.join();

  for (int p = 0; p < kProducers; ++p) {
    EXPECT_TRUE(statuses[p].IsResourceExhausted()) << "producer " << p;
    EXPECT_NE(statuses[p].message().find("0 of 2"), std::string::npos)
        << statuses[p].message();
  }
  std::vector<UpdateRecord> out;
  EXPECT_EQ(log.Drain(&out), 2u);  // only the prefill survives
  EXPECT_EQ(log.stats().enqueued, 2u);
}

// Drain storm: many producers mixing singles and atomic batches against a
// tiny log while the consumer drains in small erratic chunks. Exact
// reconciliation — every record arrives once, per-producer FIFO holds, and
// enqueued == drained.
TEST(UpdateLogTest, DrainStormReconcilesExactly) {
  UpdateLog log(8);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 300;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const auto column = static_cast<RefreshColumnId>(p);
      if (p % 2 == 0) {
        for (int i = 0; i < kPerProducer; ++i) {
          ASSERT_TRUE(log.RecordInsert(column, i).ok());
        }
      } else {
        for (int i = 0; i < kPerProducer; i += 3) {
          std::vector<UpdateRecord> batch;
          for (int j = i; j < i + 3 && j < kPerProducer; ++j) {
            batch.push_back(UpdateRecord{column, j, +1.0});
          }
          ASSERT_TRUE(log.RecordBatch(batch).ok());
        }
      }
    });
  }

  std::vector<UpdateRecord> out;
  size_t chunk = 1;
  while (out.size() < kProducers * kPerProducer) {
    if (log.Drain(&out, chunk) == 0) std::this_thread::yield();
    chunk = chunk % 5 + 1;  // erratic 1..5 record drains
  }
  for (auto& thread : producers) thread.join();

  ASSERT_EQ(out.size(), static_cast<size_t>(kProducers * kPerProducer));
  std::vector<int> next(kProducers, 0);
  for (const UpdateRecord& record : out) {
    ASSERT_LT(record.column, static_cast<RefreshColumnId>(kProducers));
    EXPECT_EQ(record.value, next[record.column]);
    ++next[record.column];
  }
  UpdateLogStats stats = log.stats();
  EXPECT_EQ(stats.enqueued, static_cast<uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(stats.drained, stats.enqueued);
  EXPECT_EQ(stats.depth, 0u);
}

}  // namespace
}  // namespace hops
