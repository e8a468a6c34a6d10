#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/inline_function.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/zipf.h"

namespace massbft {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing entry");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing entry");
  EXPECT_EQ(s.ToString(), "NotFound: missing entry");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
}

Status FailsThrough() {
  MASSBFT_RETURN_IF_ERROR(Status::Aborted("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(FailsThrough().IsAborted());
}

// ---------------------------------------------------------------- Result

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

Result<int> Doubled(int v) {
  MASSBFT_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  ASSERT_TRUE(Doubled(21).ok());
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_FALSE(Doubled(0).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ---------------------------------------------------------------- Codec

TEST(CodecTest, RoundTripsFixedWidths) {
  BinaryWriter w;
  w.PutU8(0xAB);
  w.PutU16(0x1234);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x1122334455667788ULL);
  w.PutI64(-42);

  BinaryReader r(w.buffer());
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU16(&u16).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetI64(&i64).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(u64, 0x1122334455667788ULL);
  EXPECT_EQ(i64, -42);
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, VarintRoundTripBoundaries) {
  const uint64_t values[] = {0,    1,        127,        128,
                             300,  16383,    16384,      (1ULL << 32),
                             ~0ULL};
  BinaryWriter w;
  for (uint64_t v : values) w.PutVarint(v);
  BinaryReader r(w.buffer());
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(r.GetVarint(&got).ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, BytesAndStrings) {
  BinaryWriter w;
  w.PutBytes(ToBytes("hello"));
  w.PutString("world");
  w.PutBytes({});

  BinaryReader r(w.buffer());
  Bytes b;
  std::string s;
  Bytes empty;
  ASSERT_TRUE(r.GetBytes(&b).ok());
  ASSERT_TRUE(r.GetString(&s).ok());
  ASSERT_TRUE(r.GetBytes(&empty).ok());
  EXPECT_EQ(b, ToBytes("hello"));
  EXPECT_EQ(s, "world");
  EXPECT_TRUE(empty.empty());
}

TEST(CodecTest, TruncatedReadsReportCorruption) {
  BinaryWriter w;
  w.PutU32(5);
  BinaryReader r(w.buffer());
  uint64_t v;
  EXPECT_TRUE(r.GetU64(&v).IsCorruption());

  // Blob claiming more bytes than remain.
  BinaryWriter w2;
  w2.PutVarint(100);
  w2.PutU8(1);
  BinaryReader r2(w2.buffer());
  Bytes b;
  EXPECT_TRUE(r2.GetBytes(&b).IsCorruption());
}

TEST(CodecTest, MalformedVarintIsCorruption) {
  Bytes evil(11, 0xFF);  // 11 continuation bytes: > 64 bits.
  BinaryReader r(evil);
  uint64_t v;
  EXPECT_TRUE(r.GetVarint(&v).IsCorruption());
}

TEST(CodecTest, NonCanonicalVarintIsCorruption) {
  // One value, one encoding: padding with 0x80 continuation bytes, or
  // bits past the 64th in the tenth byte, is rejected.
  uint64_t v = 0;
  for (const Bytes& evil : {Bytes{0x81, 0x00}, Bytes{0x80, 0x00},
                            Bytes{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                  0xFF, 0xFF, 0x02}}) {
    BinaryReader r(evil);
    EXPECT_TRUE(r.GetVarint(&v).IsCorruption()) << ToHex(evil);
  }
  const Bytes max = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                     0x01};
  BinaryReader r(max);
  ASSERT_TRUE(r.GetVarint(&v).ok());
  EXPECT_EQ(v, ~0ULL);
}

// ---------------------------------------------------------------- Hex

TEST(BytesTest, ToHex) {
  Bytes b = {0x00, 0x0F, 0xA5, 0xFF};
  EXPECT_EQ(ToHex(b), "000fa5ff");
  EXPECT_EQ(ToHex(Bytes{}), "");
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.NextU64() == b.NextU64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBelow(10), 10u);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(11);
  Rng child = parent.Fork();
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

// ---------------------------------------------------------------- Zipf

TEST(ZipfTest, ValuesInSupport) {
  ZipfGenerator zipf(1000, 0.99);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Next(rng), 1000u);
}

TEST(ZipfTest, SkewConcentratesOnLowRanks) {
  ZipfGenerator zipf(1'000'000, 0.99);
  Rng rng(5);
  int in_top_100 = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i)
    if (zipf.Next(rng) < 100) ++in_top_100;
  // With theta=0.99 over 1M keys, the top-100 ranks receive a large
  // fraction of accesses (far beyond the uniform 0.01%).
  EXPECT_GT(in_top_100, kDraws / 5);
}

TEST(ZipfTest, ZeroThetaIsNearUniform) {
  ZipfGenerator zipf(100, 0.0001);
  Rng rng(13);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) counts[zipf.Next(rng)]++;
  // Every key should appear; max/min ratio bounded.
  EXPECT_EQ(counts.size(), 100u);
  int min_count = 1 << 30, max_count = 0;
  for (auto& [k, c] : counts) {
    min_count = std::min(min_count, c);
    max_count = std::max(max_count, c);
  }
  EXPECT_LT(max_count, min_count * 3);
}

// ---------------------------------------------------------------- Logging

/// Restores the process-wide log level on scope exit so these tests cannot
/// leak a lowered threshold into the rest of the suite.
class ScopedLogLevel {
 public:
  explicit ScopedLogLevel(LogLevel level) : saved_(GetLogLevel()) {
    SetLogLevel(level);
  }
  ~ScopedLogLevel() { SetLogLevel(saved_); }

 private:
  LogLevel saved_;
};

TEST(LoggingTest, BelowThresholdIsSuppressed) {
  ScopedLogLevel scoped(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  MASSBFT_LOG(kDebug) << "invisible debug";
  MASSBFT_LOG(kInfo) << "invisible info";
  std::string captured = testing::internal::GetCapturedStderr();
  EXPECT_EQ(captured, "");
}

TEST(LoggingTest, AtAndAboveThresholdIsEmitted) {
  ScopedLogLevel scoped(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  MASSBFT_LOG(kWarn) << "warn " << 42;
  MASSBFT_LOG(kError) << "error msg";
  std::string captured = testing::internal::GetCapturedStderr();
  EXPECT_NE(captured.find("[WARN]"), std::string::npos);
  EXPECT_NE(captured.find("warn 42"), std::string::npos);
  EXPECT_NE(captured.find("[ERROR]"), std::string::npos);
  EXPECT_NE(captured.find("error msg"), std::string::npos);
}

TEST(LoggingTest, SetLogLevelReGatesAtRuntime) {
  ScopedLogLevel scoped(LogLevel::kDebug);
  testing::internal::CaptureStderr();
  MASSBFT_LOG(kDebug) << "now visible";
  SetLogLevel(LogLevel::kOff);
  MASSBFT_LOG(kError) << "silenced error";
  std::string captured = testing::internal::GetCapturedStderr();
  EXPECT_NE(captured.find("now visible"), std::string::npos);
  EXPECT_EQ(captured.find("silenced error"), std::string::npos);
}

TEST(LoggingTest, MacroBindsCorrectlyInUnbracedIf) {
  // MASSBFT_LOG expands to an if/else; it must swallow the dangling-else
  // so this idiom logs only when the condition holds. The unbraced if is
  // the construct under test, hence the silenced compiler warning.
  ScopedLogLevel scoped(LogLevel::kInfo);
  testing::internal::CaptureStderr();
  bool flag = false;
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdangling-else"
  if (flag) MASSBFT_LOG(kError) << "must not appear";
#pragma GCC diagnostic pop
  std::string captured = testing::internal::GetCapturedStderr();
  EXPECT_EQ(captured.find("must not appear"), std::string::npos);
}

// ------------------------------------------------------- InlineFunction

TEST(InlineFunctionTest, InvokesAndReturnsValues) {
  InlineFunction<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_TRUE(static_cast<bool>(add));
  EXPECT_EQ(add(2, 3), 5);
}

TEST(InlineFunctionTest, DefaultConstructedIsEmpty) {
  InlineFunction<void()> fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFunctionTest, SmallCapturesStayInline) {
  int a = 1, b = 2, c = 3, d = 4;  // 4 ints + padding, well under 48 bytes.
  InlineFunction<int()> fn = [a, b, c, d] { return a + b + c + d; };
  EXPECT_TRUE(fn.is_inline());
  EXPECT_EQ(fn(), 10);
}

TEST(InlineFunctionTest, LargeCapturesFallBackToHeapAndStillWork) {
  std::array<uint64_t, 16> big{};  // 128 bytes, over the 48-byte buffer.
  big[0] = 7;
  big[15] = 35;
  InlineFunction<uint64_t()> fn = [big] { return big[0] + big[15]; };
  EXPECT_FALSE(fn.is_inline());
  EXPECT_EQ(fn(), 42u);
}

TEST(InlineFunctionTest, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  InlineFunction<void()> fn = [counter] { ++*counter; };
  EXPECT_TRUE(fn.is_inline());
  InlineFunction<void()> moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  moved();
  EXPECT_EQ(*counter, 1);
  InlineFunction<void()> assigned;
  assigned = std::move(moved);
  assigned();
  EXPECT_EQ(*counter, 2);
}

TEST(InlineFunctionTest, DestroysCaptureExactlyOnce) {
  auto tracker = std::make_shared<int>(0);
  EXPECT_EQ(tracker.use_count(), 1);
  {
    InlineFunction<void()> fn = [tracker] {};
    EXPECT_EQ(tracker.use_count(), 2);
    InlineFunction<void()> moved = std::move(fn);
    EXPECT_EQ(tracker.use_count(), 2);  // Moved, not copied.
  }
  EXPECT_EQ(tracker.use_count(), 1);  // Destroyed with the wrapper.
}

TEST(InlineFunctionTest, MoveOnlyCapturesSupported) {
  auto owned = std::make_unique<int>(99);
  InlineFunction<int()> fn = [owned = std::move(owned)] { return *owned; };
  EXPECT_EQ(fn(), 99);
}

TEST(InlineFunctionTest, HeapFallbackMoveAndDestroy) {
  auto tracker = std::make_shared<int>(0);
  std::array<uint64_t, 16> pad{};
  {
    InlineFunction<void()> fn = [tracker, pad] { (void)pad; };
    EXPECT_FALSE(fn.is_inline());
    EXPECT_EQ(tracker.use_count(), 2);
    InlineFunction<void()> moved = std::move(fn);
    EXPECT_EQ(tracker.use_count(), 2);
    moved();
  }
  EXPECT_EQ(tracker.use_count(), 1);
}

}  // namespace
}  // namespace massbft
