// Wire-codec hardening (net/json.h, net/wire.h): exact round trips for the
// JSON query framing and the binary batch/header frames, then the same
// hostile-input sweeps the rest of the serde layer gets — every truncation
// of a binary frame is Corruption, every byte flip is handled without a
// crash or a hostile-length allocation, and malformed JSON never panics.

#include <gtest/gtest.h>

#include "net/json.h"
#include "net/wire.h"

namespace vchain::net {
namespace {

using core::Query;

Query SampleQuery() {
  Query q;
  q.time_start = 1000;
  q.time_end = 1090;
  q.ranges = {{0, 10, 120}, {1, 0, 255}};
  q.keyword_cnf = {{"Sedan"}, {"Benz", "BMW"}};
  return q;
}

bool SameQuery(const Query& a, const Query& b) {
  if (a.time_start != b.time_start || a.time_end != b.time_end) return false;
  if (a.ranges.size() != b.ranges.size()) return false;
  for (size_t i = 0; i < a.ranges.size(); ++i) {
    if (a.ranges[i].dim != b.ranges[i].dim || a.ranges[i].lo != b.ranges[i].lo ||
        a.ranges[i].hi != b.ranges[i].hi) {
      return false;
    }
  }
  return a.keyword_cnf == b.keyword_cnf;
}

// --- JSON layer ---------------------------------------------------------------

TEST(JsonTest, ParsesTheProtocolSubset) {
  auto v = ParseJson(R"({"a": [1, 2], "b": "x", "c": true, "d": null})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v.value().is_object());
  EXPECT_EQ(v.value().Find("a")->items().size(), 2u);
  EXPECT_EQ(v.value().Find("a")->items()[1].as_number(), 2u);
  EXPECT_EQ(v.value().Find("b")->as_string(), "x");
  EXPECT_TRUE(v.value().Find("c")->as_bool());
  EXPECT_TRUE(v.value().Find("d")->is_null());
}

TEST(JsonTest, FullU64RangeSurvives) {
  auto v = ParseJson("18446744073709551615");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().as_number(), UINT64_MAX);
  EXPECT_FALSE(ParseJson("18446744073709551616").ok());  // overflow
}

TEST(JsonTest, RejectsWhatTheProtocolDoesNotNeed) {
  for (const char* bad :
       {"-1", "1.5", "1e3", "+1", "01", "0x10",       // non-u64 numbers
        "\"unterminated", "[1,", "{\"a\":}", "",       // truncations
        "[1] garbage", "{\"a\":1,\"a\":2}",            // trailing / dup key
        "\"\\x41\"", "\"\\ud800\"", "\"raw\tctrl\"",   // bad strings
        "nul", "tru", "falsehood"}) {
    auto v = ParseJson(bad);
    EXPECT_FALSE(v.ok()) << "accepted: " << bad;
    EXPECT_TRUE(v.status().IsInvalidArgument()) << bad;
  }
}

TEST(JsonTest, DepthIsCapped) {
  std::string deep(kMaxJsonDepth + 2, '[');
  std::string closer(kMaxJsonDepth + 2, ']');
  EXPECT_FALSE(ParseJson(deep + closer).ok());
  std::string ok_depth(8, '[');
  std::string ok_close(8, ']');
  EXPECT_TRUE(ParseJson(ok_depth + ok_close).ok());
}

TEST(JsonTest, StringEscapesRoundTrip) {
  std::string nasty = "quote\" back\\slash \n\t\x01 uni\xE2\x82\xAC";
  std::string dumped = JsonValue::Str(nasty).Dump();
  auto back = ParseJson(dumped);
  ASSERT_TRUE(back.ok()) << dumped;
  EXPECT_EQ(back.value().as_string(), nasty);
  // \uXXXX escapes and surrogate pairs decode to UTF-8.
  auto uni = ParseJson("\"\\u20ac \\ud83d\\ude00\"");
  ASSERT_TRUE(uni.ok());
  EXPECT_EQ(uni.value().as_string(), "\xE2\x82\xAC \xF0\x9F\x98\x80");
}

// --- query framing ------------------------------------------------------------

TEST(WireQueryTest, RoundTripIsExact) {
  Query q = SampleQuery();
  auto back = QueryFromJson(QueryToJson(q));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(SameQuery(q, back.value()));
}

TEST(WireQueryTest, UnicodeKeywordsSurvive) {
  Query q;
  q.keyword_cnf = {{"\xE2\x82\xAC", "tag with \"quotes\" and \\slashes\\"}};
  auto back = QueryFromJson(QueryToJson(q));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().keyword_cnf, q.keyword_cnf);
}

TEST(WireQueryTest, DefaultWindowSpansEverything) {
  Query q;  // no window set: [0, u64max]
  auto back = QueryFromJson(QueryToJson(q));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().time_start, 0u);
  EXPECT_EQ(back.value().time_end, UINT64_MAX);
}

TEST(WireQueryTest, MalformedRequestsAreInvalidArgument) {
  for (const char* bad : {
           "",                                       // empty
           "not json",                               //
           "[]",                                     // wrong top-level type
           "{}",                                     // missing members
           R"({"window":[1],"ranges":[],"cnf":[]})",  // short window
           R"({"window":[1,2],"ranges":{},"cnf":[]})",  // ranges not array
           R"({"window":[1,2],"ranges":[],"cnf":[["a"],"b"]})",  // clause type
           R"({"window":[1,2],"ranges":[],"cnf":[[1]]})",        // kw type
           R"({"window":[1,2],"ranges":[{"dim":4294967296,"lo":0,"hi":1}],"cnf":[]})",
       }) {
    auto q = QueryFromJson(bad);
    EXPECT_FALSE(q.ok()) << "accepted: " << bad;
    EXPECT_TRUE(q.status().IsInvalidArgument()) << bad;
  }
}

TEST(WireQueryTest, SizeCapsAreEnforced) {
  {
    Query q;
    q.keyword_cnf.assign(kMaxWireClauses + 1, {"a"});
    EXPECT_FALSE(QueryFromJson(QueryToJson(q)).ok());
  }
  {
    Query q;
    q.keyword_cnf = {
        std::vector<std::string>(kMaxWireKeywordsPerClause + 1, "a")};
    EXPECT_FALSE(QueryFromJson(QueryToJson(q)).ok());
  }
  {
    Query q;
    q.ranges.assign(kMaxWireRanges + 1, {0, 0, 1});
    EXPECT_FALSE(QueryFromJson(QueryToJson(q)).ok());
  }
  {
    Query q;
    q.keyword_cnf = {{std::string(kMaxWireKeywordBytes + 1, 'k')}};
    EXPECT_FALSE(QueryFromJson(QueryToJson(q)).ok());
  }
}

TEST(WireBatchRequestTest, RoundTripAndCaps) {
  std::vector<Query> qs = {SampleQuery(), Query{}};
  auto back = BatchRequestFromJson(BatchRequestToJson(qs));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 2u);
  EXPECT_TRUE(SameQuery(back.value()[0], qs[0]));

  std::vector<Query> too_many(kMaxWireBatchQueries + 1);
  EXPECT_FALSE(BatchRequestFromJson(BatchRequestToJson(too_many)).ok());
}

// --- binary frames ------------------------------------------------------------

std::vector<WireBatchItem> SampleBatch() {
  std::vector<WireBatchItem> items(3);
  items[0].response_bytes = {0x01, 0x02, 0x03, 0xFF};
  items[1].status = Status::InvalidArgument("inverted range");
  items[2].response_bytes = {};  // empty-but-ok response
  return items;
}

TEST(WireBatchFrameTest, RoundTripIsExact) {
  auto items = SampleBatch();
  Bytes frame = EncodeBatchResponse(items);
  auto back = DecodeBatchResponse(ByteSpan(frame.data(), frame.size()));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().size(), 3u);
  EXPECT_TRUE(back.value()[0].status.ok());
  EXPECT_EQ(back.value()[0].response_bytes, items[0].response_bytes);
  EXPECT_TRUE(back.value()[1].status.IsInvalidArgument());
  EXPECT_EQ(back.value()[1].status.message(), "inverted range");
  EXPECT_TRUE(back.value()[2].status.ok());
  EXPECT_TRUE(back.value()[2].response_bytes.empty());
}

TEST(WireBatchFrameTest, EveryTruncationIsCorruption) {
  Bytes frame = EncodeBatchResponse(SampleBatch());
  for (size_t len = 0; len < frame.size(); ++len) {
    auto st = DecodeBatchResponse(ByteSpan(frame.data(), len));
    ASSERT_FALSE(st.ok()) << "prefix " << len << " decoded";
    ASSERT_TRUE(st.status().IsCorruption()) << st.status().ToString();
  }
}

TEST(WireBatchFrameTest, EveryByteFlipIsHandledGracefully) {
  Bytes frame = EncodeBatchResponse(SampleBatch());
  for (size_t i = 0; i < frame.size(); ++i) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0xFF}}) {
      frame[i] ^= mask;
      auto st = DecodeBatchResponse(ByteSpan(frame.data(), frame.size()));
      if (!st.ok()) {
        ASSERT_TRUE(st.status().IsCorruption()) << st.status().ToString();
      }
      frame[i] ^= mask;
    }
  }
}

TEST(WireBatchFrameTest, HostileCountCannotForceAllocation) {
  ByteWriter w;
  w.PutU32(0xFFFFFFFF);  // claims 4 billion items in a 4-byte body
  auto st = DecodeBatchResponse(ByteSpan(w.bytes().data(), w.bytes().size()));
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.status().IsCorruption());
}

TEST(WireBatchFrameTest, TrailingBytesAreCorruption) {
  Bytes frame = EncodeBatchResponse(SampleBatch());
  frame.push_back(0x00);
  auto st = DecodeBatchResponse(ByteSpan(frame.data(), frame.size()));
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.status().IsCorruption());
}

std::vector<chain::BlockHeader> SampleHeaders() {
  std::vector<chain::BlockHeader> headers(3);
  for (size_t i = 0; i < headers.size(); ++i) {
    headers[i].height = i;
    headers[i].timestamp = 1000 + 10 * i;
    headers[i].nonce = 7 * i;
    headers[i].prev_hash[0] = static_cast<uint8_t>(i);
    headers[i].object_root[1] = static_cast<uint8_t>(0xA0 + i);
    headers[i].skiplist_root[2] = static_cast<uint8_t>(0xB0 + i);
  }
  return headers;
}

TEST(WireHeaderPageTest, RoundTripIsExact) {
  auto headers = SampleHeaders();
  Bytes frame = EncodeHeaderPage(headers);
  auto back = DecodeHeaderPage(ByteSpan(frame.data(), frame.size()));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().size(), headers.size());
  for (size_t i = 0; i < headers.size(); ++i) {
    EXPECT_EQ(back.value()[i], headers[i]);
  }
}

TEST(WireHeaderPageTest, EveryTruncationIsCorruption) {
  Bytes frame = EncodeHeaderPage(SampleHeaders());
  for (size_t len = 0; len < frame.size(); ++len) {
    auto st = DecodeHeaderPage(ByteSpan(frame.data(), len));
    ASSERT_FALSE(st.ok()) << "prefix " << len << " decoded";
    ASSERT_TRUE(st.status().IsCorruption());
  }
}

TEST(WireHeaderPageTest, HostileCountAndTrailingBytesRejected) {
  {
    ByteWriter w;
    w.PutU32(0xFFFFFFFF);
    auto st = DecodeHeaderPage(ByteSpan(w.bytes().data(), w.bytes().size()));
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.status().IsCorruption());
  }
  {
    Bytes frame = EncodeHeaderPage(SampleHeaders());
    frame.push_back(0x42);
    auto st = DecodeHeaderPage(ByteSpan(frame.data(), frame.size()));
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.status().IsCorruption());
  }
}

// --- status taxonomy ----------------------------------------------------------

TEST(WireStatusTest, CodesRoundTripAndRejectUnknown) {
  for (Status::Code code :
       {Status::Code::kInvalidArgument, Status::Code::kNotFound,
        Status::Code::kCorruption, Status::Code::kVerifyFailed,
        Status::Code::kNotSupported, Status::Code::kInternal}) {
    auto back = StatusCodeFromWire(StatusCodeToWire(code));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), code);
  }
  EXPECT_FALSE(StatusCodeFromWire(0).ok());    // kOk never crosses as error
  EXPECT_FALSE(StatusCodeFromWire(200).ok());  // out of range
}

TEST(WireStatusTest, EngineNamesRoundTrip) {
  for (api::EngineKind kind :
       {api::EngineKind::kMockAcc1, api::EngineKind::kMockAcc2,
        api::EngineKind::kAcc1, api::EngineKind::kAcc2}) {
    api::EngineKind back;
    ASSERT_TRUE(api::EngineKindFromName(api::EngineKindName(kind), &back));
    EXPECT_EQ(back, kind);
  }
  api::EngineKind unused;
  EXPECT_FALSE(api::EngineKindFromName("acc3", &unused));
  EXPECT_FALSE(api::EngineKindFromName("", &unused));
}

}  // namespace
}  // namespace vchain::net
