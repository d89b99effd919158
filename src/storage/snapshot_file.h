// Durable snapshot files for the refresh subsystem's catalog state
// (DESIGN.md §13). A snapshot is one self-describing, checksummed binary
// image of a RefreshDurableState (refresh/durable_state.h): everything
// needed to warm-restart the serving stack with bit-identical estimates.
//
// File `snapshot-<seq:016x>.hsnp`, all integers little-endian:
//
//   header (32 bytes)
//     u32 magic        "HSNP"
//     u32 version      1
//     u64 seq          monotonically increasing snapshot number
//     u64 high_water   largest LSN whose effects are inside this image
//     u32 num_sections
//     u32 header_crc   CRC32C of the 28 bytes above ++ the section table
//   section table (num_sections × 32 bytes)
//     u32 kind, u32 reserved, u64 offset, u64 length, u32 crc32c, u32 pad
//   section payloads (at their recorded offsets)
//
// Sections keep the column data in struct-of-arrays form: kColumns holds
// one fixed-width record per column with (offset, count) cursors into the
// kExplicitValues/kExplicitFreqs and kIdealValues/kIdealCounts arrays, and
// kNames holds the length-prefixed table/column strings. Fixed offsets and
// raw packed arrays make the payload mmap-friendly; the read path here
// simply loads and validates. Read views (sorted key arrays, prefix sums)
// are deliberately NOT persisted — they are deterministic functions of the
// histogram, rebuilt on load (histogram/compiled.h).
//
// Integrity: the header CRC covers the header and section table; every
// section carries its own CRC over its exact payload bytes. The reader
// rejects — with a Status, never a crash — any truncation, bit flip, bad
// magic/version, out-of-bounds section, or malformed cursor
// (tests/storage/corruption_matrix_test.cc walks every section and
// boundary). Writes are crash-atomic via temp file + fsync + rename
// (storage/io.h), so a torn write leaves the previous snapshot intact.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "refresh/durable_state.h"
#include "util/status.h"

namespace hops::storage {

inline constexpr uint32_t kSnapshotMagic = 0x504E5348u;  // file starts "HSNP"
inline constexpr uint32_t kSnapshotVersion = 1;

/// \brief Section kinds; values are stable on-disk identifiers.
enum class SnapshotSection : uint32_t {
  kMeta = 1,            ///< u64 num_columns
  kNames = 2,           ///< per column: u32 table_len, u32 column_len, bytes
  kColumns = 3,         ///< fixed-width per-column records (see .cc)
  kExplicitValues = 4,  ///< i64[] — all columns' explicit values, packed
  kExplicitFreqs = 5,   ///< f64[] — parallel to kExplicitValues
  kIdealValues = 6,     ///< i64[] — all columns' ideal-tracker values
  kIdealCounts = 7,     ///< f64[] — parallel to kIdealValues
};

/// \brief Identity of one snapshot file, readable from its header alone.
struct SnapshotFileInfo {
  std::string path;
  uint64_t seq = 0;
  uint64_t high_water_lsn = 0;
};

/// `snapshot-<seq:016x>.hsnp`.
std::string SnapshotFileName(uint64_t seq);

/// Parses a SnapshotFileName; false for anything else.
bool ParseSnapshotFileName(std::string_view name, uint64_t* seq);

/// \brief Serializes \p state into the format above (no I/O).
std::string EncodeSnapshot(uint64_t seq, const RefreshDurableState& state);

/// \brief Inverse of EncodeSnapshot with full validation; \p seq_out
/// (optional) receives the header's sequence number.
Result<RefreshDurableState> DecodeSnapshot(std::string_view bytes,
                                           uint64_t* seq_out = nullptr);

/// \brief Writes `snapshot-<seq>.hsnp` into \p dir crash-atomically.
/// Returns the final path.
Result<std::string> WriteSnapshotFile(const std::string& dir, uint64_t seq,
                                      const RefreshDurableState& state);

/// \brief Loads and validates one snapshot file.
Result<RefreshDurableState> ReadSnapshotFile(const std::string& path,
                                             uint64_t* seq_out = nullptr);

/// \brief Validates only the header + section table of \p path (cheap) and
/// returns its identity. Rejects corrupt headers with a Status.
Result<SnapshotFileInfo> ReadSnapshotInfo(const std::string& path);

/// \brief Snapshot files in \p dir by name, sorted by seq ascending.
/// Headers are NOT validated here (a corrupt latest snapshot must still be
/// listed so recovery can fall back past it); high_water_lsn is 0.
Result<std::vector<SnapshotFileInfo>> ListSnapshotFiles(const std::string& dir);

}  // namespace hops::storage
