// Binary wire framing for POST /estimate (DESIGN.md §11).
//
// The JSON estimate endpoint spends most of a small batch's budget on
// parsing and number formatting. Optimizer clients that hammer /estimate
// with thousands of point/range specs per plan search can send the same
// batch as a fixed little-endian frame instead, negotiated purely by
// Content-Type: a request whose Content-Type is application/x-hops-batch is
// decoded by this module; everything else takes the JSON path. The response
// mirrors the request framing (raw IEEE-754 doubles), so estimates are
// bit-identical to the in-process values by construction — no 17-digit
// round-trip involved.
//
// Request frame (all integers little-endian, no alignment padding):
//
//   offset  size  field
//   0       4     magic "HOPB"
//   4       2     version (currently 1)
//   6       2     reserved (0)
//   8       4     spec_count
//   12      ...   spec_count spec records, back to back
//
// Spec record: a 32-byte fixed prelude followed by the variable name/string
// bytes it declares, in declaration order:
//
//   offset  size  field
//   0       1     kind: 0 equality, 1 not_equals, 2 range, 3 join
//   1       1     flags: bit0 include_low, bit1 include_high,
//                        bit2 value_is_string
//   2       2     table_len
//   4       2     column_len
//   6       2     right_table_len   (join only; 0 otherwise)
//   8       2     right_column_len  (join only; 0 otherwise)
//   10      2     value_len         (string literal bytes; 0 otherwise)
//   12      4     reserved (0)
//   16      8     a: int64 literal (equality/not_equals) or range low
//   24      8     b: range high
//   32      ...   table bytes, column bytes, right_table bytes,
//                 right_column bytes, value bytes
//
// IN-lists and chain joins are variable-length shapes that don't fit a
// fixed record; they keep using the JSON framing (the decoder rejects their
// kind bytes, so a frame either decodes completely or fails as a unit).
//
// Response frame:
//
//   offset  size  field
//   0       4     magic "HOPR"
//   4       2     version (currently 1)
//   6       2     reserved (0)
//   8       4     result_count
//   12      8     snapshot_version
//   20      ...   result_count 16-byte result records:
//                   u32 status (WireStatus), u32 reserved,
//                   f64 estimate (raw IEEE-754 bits; 0.0 unless kOk)
//
// Results align with request specs slot for slot; per-spec failures never
// abort the batch (same contract as the JSON endpoint). Structural errors
// (bad magic, truncated frame, undeclared trailing bytes) reject the whole
// request with HTTP 400.
//
// Encoding helpers for both directions live here so tests and in-repo
// clients (bench_serving's binary_vs_json axis) share one codec with the
// service; byte order is fixed little-endian regardless of host.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace hops::net {

inline constexpr std::string_view kBatchContentType =
    "application/x-hops-batch";
inline constexpr uint16_t kBatchWireVersion = 1;

/// Per-result status in a binary response record.
enum class WireStatus : uint32_t {
  kOk = 0,
  kUnknownColumn = 1,  ///< table/column (or join side) not in the snapshot
  kEstimateFailed = 2, ///< the estimator rejected the resolved spec
};

/// One decoded (still name-based) spec from a binary frame.
struct WireSpec {
  enum class Kind : uint8_t {
    kEquality = 0,
    kNotEquals = 1,
    kRange = 2,
    kJoin = 3,
  };

  Kind kind = Kind::kEquality;
  std::string table;
  std::string column;
  std::string right_table;   // join
  std::string right_column;  // join
  bool value_is_string = false;
  std::string value_string;  // equality/not_equals when value_is_string
  int64_t a = 0;             // int64 literal, or range low
  int64_t b = 0;             // range high
  bool include_low = true;
  bool include_high = true;
};

/// One slot of a binary response.
struct WireResult {
  WireStatus status = WireStatus::kOk;
  double estimate = 0.0;
};

/// A decoded binary response (client side of the codec; tests and
/// bench_serving use it to verify bit-identity against JSON).
struct WireResponse {
  uint64_t snapshot_version = 0;
  std::vector<WireResult> results;
};

/// Serializes \p specs as one request frame.
std::string EncodeBatchRequest(std::span<const WireSpec> specs);

/// Parses a request frame. InvalidArgument on any structural violation —
/// a frame decodes completely or not at all.
Result<std::vector<WireSpec>> DecodeBatchRequest(std::string_view body);

/// Serializes one response frame.
std::string EncodeBatchResponse(uint64_t snapshot_version,
                                std::span<const WireResult> results);

/// Parses a response frame (the codec's client half).
Result<WireResponse> DecodeBatchResponse(std::string_view body);

}  // namespace hops::net
