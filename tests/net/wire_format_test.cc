// Codec tests for the §11 binary batch framing: encode→decode must be a
// lossless round trip for every spec shape the frame supports, raw double
// bits must survive the response path untouched, and every structural
// violation the format doc enumerates (bad magic, wrong version, truncated
// prelude, hostile counts, undeclared trailing bytes, illegal field
// combinations) must reject the whole frame with InvalidArgument.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "net/wire_format.h"

namespace hops::net {
namespace {

std::vector<WireSpec> AllShapes() {
  std::vector<WireSpec> specs;
  {
    WireSpec s;
    s.kind = WireSpec::Kind::kEquality;
    s.table = "orders";
    s.column = "customer_id";
    s.a = -42;
    specs.push_back(s);
  }
  {
    WireSpec s;
    s.kind = WireSpec::Kind::kEquality;
    s.table = "orders";
    s.column = "region";
    s.value_is_string = true;
    s.value_string = "EMEA \xc3\xa9";  // arbitrary bytes survive
    specs.push_back(s);
  }
  {
    WireSpec s;
    s.kind = WireSpec::Kind::kNotEquals;
    s.table = "t";
    s.column = "c";
    s.a = std::numeric_limits<int64_t>::min();
    specs.push_back(s);
  }
  {
    WireSpec s;
    s.kind = WireSpec::Kind::kRange;
    s.table = "orders";
    s.column = "item_id";
    s.a = -7;
    s.b = std::numeric_limits<int64_t>::max();
    s.include_low = false;
    s.include_high = true;
    specs.push_back(s);
  }
  {
    WireSpec s;
    s.kind = WireSpec::Kind::kJoin;
    s.table = "orders";
    s.column = "customer_id";
    s.right_table = "customers";
    s.right_column = "id";
    specs.push_back(s);
  }
  return specs;
}

TEST(WireFormatTest, RequestRoundTripsEverySpecShape) {
  const std::vector<WireSpec> specs = AllShapes();
  const std::string frame = EncodeBatchRequest(specs);
  const Result<std::vector<WireSpec>> decoded = DecodeBatchRequest(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  ASSERT_EQ(decoded->size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const WireSpec& want = specs[i];
    const WireSpec& got = (*decoded)[i];
    EXPECT_EQ(got.kind, want.kind) << i;
    EXPECT_EQ(got.table, want.table) << i;
    EXPECT_EQ(got.column, want.column) << i;
    EXPECT_EQ(got.right_table, want.right_table) << i;
    EXPECT_EQ(got.right_column, want.right_column) << i;
    EXPECT_EQ(got.value_is_string, want.value_is_string) << i;
    EXPECT_EQ(got.value_string, want.value_string) << i;
    EXPECT_EQ(got.a, want.a) << i;
    EXPECT_EQ(got.b, want.b) << i;
    EXPECT_EQ(got.include_low, want.include_low) << i;
    EXPECT_EQ(got.include_high, want.include_high) << i;
  }
}

TEST(WireFormatTest, EmptyBatchRoundTrips) {
  const std::string frame = EncodeBatchRequest({});
  const Result<std::vector<WireSpec>> decoded = DecodeBatchRequest(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(WireFormatTest, ResponsePreservesRawDoubleBits) {
  std::vector<WireResult> results;
  results.push_back({WireStatus::kOk, 0.1 + 0.2});  // != 0.3 in doubles
  results.push_back({WireStatus::kOk, -0.0});
  results.push_back({WireStatus::kOk, std::nextafter(1.0, 2.0)});
  results.push_back({WireStatus::kUnknownColumn, 0.0});
  results.push_back({WireStatus::kEstimateFailed, 0.0});
  const std::string frame = EncodeBatchResponse(77, results);
  const Result<WireResponse> decoded = DecodeBatchResponse(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->snapshot_version, 77u);
  ASSERT_EQ(decoded->results.size(), results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(decoded->results[i].status, results[i].status) << i;
    const double a = decoded->results[i].estimate;
    const double b = results[i].estimate;
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0) << i;
  }
  EXPECT_TRUE(std::signbit(decoded->results[1].estimate));
}

TEST(WireFormatTest, EncodingIsFixedLittleEndian) {
  // The frame layout is part of the public contract — pin the header bytes
  // so an accidental host-endian encode cannot slip through on any machine.
  WireSpec spec;
  spec.kind = WireSpec::Kind::kEquality;
  spec.table = "t";
  spec.column = "c";
  spec.a = 0x0102030405060708;
  const std::string frame = EncodeBatchRequest({&spec, 1});
  ASSERT_GE(frame.size(), size_t{12} + 32 + 2);
  EXPECT_EQ(frame.substr(0, 4), "HOPB");
  EXPECT_EQ(static_cast<uint8_t>(frame[4]), 1);  // version lo
  EXPECT_EQ(static_cast<uint8_t>(frame[5]), 0);  // version hi
  EXPECT_EQ(static_cast<uint8_t>(frame[8]), 1);  // spec_count lo
  // a at prelude offset 16, little-endian.
  EXPECT_EQ(static_cast<uint8_t>(frame[12 + 16]), 0x08);
  EXPECT_EQ(static_cast<uint8_t>(frame[12 + 23]), 0x01);
  EXPECT_EQ(frame.substr(frame.size() - 2), "tc");
}

// ------------------------------------------------------- structural errors

std::string ValidFrame() { return EncodeBatchRequest(AllShapes()); }

void ExpectRejected(std::string frame, const char* why) {
  const Result<std::vector<WireSpec>> decoded = DecodeBatchRequest(frame);
  EXPECT_FALSE(decoded.ok()) << why;
  if (!decoded.ok()) {
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << why;
  }
}

TEST(WireFormatTest, RejectsMalformedFrames) {
  ExpectRejected("", "empty body");
  ExpectRejected("HOPB", "truncated header");
  {
    std::string f = ValidFrame();
    f[0] = 'X';
    ExpectRejected(f, "bad magic");
  }
  {
    std::string f = ValidFrame();
    f[4] = 2;
    ExpectRejected(f, "unknown version");
  }
  {
    std::string f = ValidFrame();
    f.pop_back();
    ExpectRejected(f, "truncated name bytes");
  }
  {
    std::string f = ValidFrame();
    f.push_back('\0');
    ExpectRejected(f, "undeclared trailing byte");
  }
  {
    std::string f = ValidFrame();
    f.resize(12 + 16);
    ExpectRejected(f, "truncated prelude");
  }
  {
    // Hostile count: claims 2^32-1 specs with an empty payload. Must fail
    // fast without attempting a 4-billion-element reserve.
    std::string f = ValidFrame().substr(0, 12);
    f[8] = f[9] = f[10] = f[11] = '\xff';
    ExpectRejected(f, "hostile spec count");
  }
}

TEST(WireFormatTest, RejectsIllegalFieldCombinations) {
  {
    // Kind byte 4 (would be an IN-list or chain) is JSON-only.
    std::string f = ValidFrame();
    f[12] = 4;
    ExpectRejected(f, "unsupported kind");
  }
  {
    // A range spec declaring string-literal bytes.
    WireSpec s;
    s.kind = WireSpec::Kind::kRange;
    s.table = "t";
    s.column = "c";
    std::string f = EncodeBatchRequest({&s, 1});
    f[12 + 1] = static_cast<char>(f[12 + 1] | 4);  // value_is_string flag
    f[12 + 10] = 1;                                // value_len = 1
    f.push_back('x');
    ExpectRejected(f, "string literal on a range spec");
  }
  {
    // A non-join spec declaring right-side names.
    WireSpec s;
    s.kind = WireSpec::Kind::kEquality;
    s.table = "t";
    s.column = "c";
    std::string f = EncodeBatchRequest({&s, 1});
    f[12 + 6] = 1;  // right_table_len = 1
    f.push_back('r');
    ExpectRejected(f, "right-side name on a point spec");
  }
}

TEST(WireFormatTest, RejectsMalformedResponses) {
  const std::string ok = EncodeBatchResponse(1, {});
  EXPECT_TRUE(DecodeBatchResponse(ok).ok());
  {
    std::string f = EncodeBatchResponse(1, {});
    f[0] = 'X';
    EXPECT_FALSE(DecodeBatchResponse(f).ok());
  }
  {
    // Count that disagrees with the actual record bytes.
    std::vector<WireResult> one = {{WireStatus::kOk, 1.0}};
    std::string f = EncodeBatchResponse(1, one);
    f[8] = 2;
    EXPECT_FALSE(DecodeBatchResponse(f).ok());
  }
  {
    // Status outside the enum.
    std::vector<WireResult> one = {{WireStatus::kOk, 1.0}};
    std::string f = EncodeBatchResponse(1, one);
    f[20] = 9;
    EXPECT_FALSE(DecodeBatchResponse(f).ok());
  }
}

}  // namespace
}  // namespace hops::net
