// Unit tests for the common layer: Status/Result, hex, serde, PRNG, timer,
// LRU map.

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/lru.h"
#include "common/rand.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/timer.h"

namespace vchain {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status st = Status::VerifyFailed("proof rejected");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kVerifyFailed);
  EXPECT_EQ(st.message(), "proof rejected");
  EXPECT_EQ(st.ToString(), "VERIFY_FAILED: proof rejected");
  EXPECT_EQ(Status::Corruption("x").code(), Status::Code::kCorruption);
  EXPECT_EQ(Status::NotFound("x").code(), Status::Code::kNotFound);
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(Status::NotSupported("x").code(), Status::Code::kNotSupported);
  EXPECT_EQ(Status::Internal("x").code(), Status::Code::kInternal);
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> bad(Status::NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), Status::Code::kNotFound);
}

TEST(ResultTest, TakeValueMoves) {
  Result<std::string> r(std::string("payload"));
  std::string s = r.TakeValue();
  EXPECT_EQ(s, "payload");
}

Status Fails() { return Status::Corruption("inner"); }
Status Propagates() {
  VCHAIN_RETURN_IF_ERROR(Fails());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  Status st = Propagates();
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
}

TEST(HexTest, RoundTrip) {
  Bytes data = {0x00, 0x01, 0xAB, 0xFF};
  std::string hex = ToHex(ByteSpan(data.data(), data.size()));
  EXPECT_EQ(hex, "0001abff");
  auto back = FromHex(hex);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
  auto upper = FromHex("0001ABFF");
  ASSERT_TRUE(upper.ok());
  EXPECT_EQ(upper.value(), data);
}

TEST(HexTest, RejectsBadInput) {
  EXPECT_FALSE(FromHex("abc").ok());   // odd length
  EXPECT_FALSE(FromHex("zz").ok());    // non-hex
}

TEST(SerdeTest, IntegerRoundTrips) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU16(0xBEEF);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutBool(true);
  w.PutBool(false);
  ByteReader r(ByteSpan(w.bytes().data(), w.bytes().size()));
  uint8_t a;
  uint16_t b;
  uint32_t c;
  uint64_t d;
  bool t, f;
  ASSERT_TRUE(r.GetU8(&a).ok());
  ASSERT_TRUE(r.GetU16(&b).ok());
  ASSERT_TRUE(r.GetU32(&c).ok());
  ASSERT_TRUE(r.GetU64(&d).ok());
  ASSERT_TRUE(r.GetBool(&t).ok());
  ASSERT_TRUE(r.GetBool(&f).ok());
  EXPECT_EQ(a, 0xAB);
  EXPECT_EQ(b, 0xBEEF);
  EXPECT_EQ(c, 0xDEADBEEFu);
  EXPECT_EQ(d, 0x0123456789ABCDEFULL);
  EXPECT_TRUE(t);
  EXPECT_FALSE(f);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, StringsAndBytes) {
  ByteWriter w;
  w.PutString("hello");
  w.PutBytes(Bytes{1, 2, 3});
  ByteReader r(ByteSpan(w.bytes().data(), w.bytes().size()));
  std::string s;
  Bytes b;
  ASSERT_TRUE(r.GetString(&s).ok());
  ASSERT_TRUE(r.GetBytes(&b).ok());
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(b, (Bytes{1, 2, 3}));
}

TEST(SerdeTest, TruncationDetected) {
  ByteWriter w;
  w.PutU64(7);
  Bytes buf = w.TakeBytes();
  buf.pop_back();
  ByteReader r(ByteSpan(buf.data(), buf.size()));
  uint64_t v;
  EXPECT_EQ(r.GetU64(&v).code(), Status::Code::kCorruption);
}

TEST(SerdeTest, HostileLengthPrefixRejected) {
  ByteWriter w;
  w.PutU32(0xFFFFFFFF);  // absurd length prefix with no payload
  ByteReader r(ByteSpan(w.bytes().data(), w.bytes().size()));
  Bytes out;
  EXPECT_FALSE(r.GetBytes(&out).ok());
}

TEST(SerdeTest, BoolByteValidated) {
  Bytes buf{2};
  ByteReader r(ByteSpan(buf.data(), buf.size()));
  bool b;
  EXPECT_FALSE(r.GetBool(&b).ok());
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(1), b(1), c(2);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, BelowIsInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
  EXPECT_EQ(rng.Below(0), 0u);
  EXPECT_EQ(rng.Below(1), 0u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.Range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= (v == 5);
    saw_hi |= (v == 8);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile uint64_t x = 0;
  for (int i = 0; i < 100000; ++i) x += static_cast<uint64_t>(i);
  EXPECT_GT(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds() * 1000 * 0.5);
  CostAccumulator acc;
  acc.Add(0.5);
  acc.AddTimer(t);
  EXPECT_GT(acc.seconds(), 0.5);
  acc.Reset();
  EXPECT_EQ(acc.seconds(), 0.0);
}

// Two threads racing on one proof-cache key both prove it and both Put: the
// second Put must refresh the entry, not grow the map or replace the value.
TEST(LruMapTest, RePutRefreshesWithoutGrowth) {
  LruMap<int, int> lru(/*capacity=*/2);
  lru.Put(1, 10);
  lru.Put(2, 20);
  EXPECT_EQ(*lru.Put(1, 11), 10);  // keeps the resident value
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.stats().evictions, 0u);
  lru.Put(3, 30);  // the re-Put made 1 most recent, so 2 is evicted
  EXPECT_EQ(lru.stats().evictions, 1u);
  EXPECT_EQ(lru.Get(2), nullptr);
  ASSERT_NE(lru.Get(1), nullptr);
  EXPECT_EQ(*lru.Get(1), 10);
}

}  // namespace
}  // namespace vchain
