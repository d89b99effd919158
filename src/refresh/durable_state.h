// Plain-data image of everything the refresh subsystem must carry across a
// restart (DESIGN.md §13). RefreshManager::ExportDurableState produces it,
// the storage layer's SnapshotWriter serializes it, and
// RefreshManager::RestoreDurableState rebuilds live state from it. It is a
// value type on purpose: the storage layer round-trips it through bytes
// without knowing anything about maintainers, moments, or catalogs.
//
// What is persisted vs recomputed:
//   * persisted exactly — the maintained CatalogHistogram (explicit
//     entries, default frequency, default-value count), the maintainer
//     counters, the ideal frequency tracker (sorted by value, zero-count
//     entries INCLUDED — they carry default-bucket membership for the
//     moment bookkeeping and make deletes of tracked-empty values replay
//     identically), and the min/max/distinct/feedback scalars. These make
//     the restored catalog statistics — and therefore every /estimate —
//     bit-identical to the pre-restart ones.
//   * recomputed on restore — the IdealColumnMoments (from the histogram
//     and the ideal set; equal up to floating-point re-association, which
//     only staleness *scoring* observes) and every compiled read view
//     (deterministic functions of the persisted histogram).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "histogram/maintenance.h"

namespace hops {

/// \brief One registered column's durable image, in the field order of
/// RefreshManager's ColumnState. Parallel arrays (values[i] ↔ counts[i])
/// keep the storage layout columnar.
struct ColumnDurableState {
  std::string table;
  std::string column;

  // Maintained histogram (compact catalog form), exact.
  std::vector<int64_t> explicit_values;
  std::vector<double> explicit_freqs;
  double default_frequency = 0;
  uint64_t num_default_values = 0;

  MaintainerDurableState maintainer;

  // Ideal tracker, sorted by value, zero counts included (see file comment).
  std::vector<int64_t> ideal_values;
  std::vector<double> ideal_counts;

  double tuples_at_build = 0;
  int64_t min_value = 0;
  int64_t max_value = 0;
  uint64_t distinct = 0;
  double feedback_ewma = 0;
  bool has_feedback = false;
  uint64_t deltas_since_rebuild = 0;
  uint64_t rebuilds = 0;
};

/// \brief Whole-manager durable image. `columns` is in dense
/// RefreshColumnId order (index == id), so restoring re-issues the same
/// ids. `high_water_lsn` is the largest LSN whose effects are inside this
/// image; recovery replays only WAL records beyond it.
struct RefreshDurableState {
  uint64_t high_water_lsn = 0;
  std::vector<ColumnDurableState> columns;
};

}  // namespace hops
