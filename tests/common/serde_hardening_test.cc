// Hostile-input hardening sweeps over every wire format the SP or a light
// node consumes: query responses (BlockVO / SkipVO / WindowVO / objects) and
// persisted block records.
//
//   * truncation sweep — every strict prefix of a valid encoding must decode
//     to Status::Corruption (no field is optional, so no prefix is valid);
//   * byte-flip sweep — flipping any single byte must never crash or force
//     an allocation sized by the corrupted bytes; decoding either fails with
//     a non-OK status or yields a structurally valid object (a flip inside
//     e.g. digest bytes is indistinguishable from a different digest — the
//     *verifier*, not the decoder, rejects those).

#include <gtest/gtest.h>

#include "common/rand.h"
#include "core/vchain.h"

namespace vchain {
namespace {

using accum::AccParams;
using accum::KeyOracle;
using chain::NumericSchema;
using chain::Object;
using core::ChainBuilder;
using core::ChainConfig;
using core::IndexMode;
using core::Query;
using core::QueryProcessor;
using core::QueryResponse;

constexpr uint64_t kBaseTime = 1000;
constexpr uint64_t kTimeStep = 10;

template <typename Engine>
Engine MakeEngine() {
  AccParams params;
  params.universe_bits = 16;
  auto oracle = KeyOracle::Create(/*seed=*/2024, params);
  return Engine(oracle);
}

template <typename Engine>
struct Corpus {
  Corpus() : engine(MakeEngine<Engine>()) {
    config.mode = IndexMode::kBoth;
    config.schema = NumericSchema{2, 8};
    config.skiplist_size = 2;
    ChainBuilder<Engine> miner(engine, config);
    static const char* kMakes[] = {"Benz", "BMW", "Audi", "Toyota"};
    static const char* kTypes[] = {"Sedan", "Van", "SUV"};
    Rng rng(42);
    uint64_t id = 0;
    for (size_t b = 0; b < 10; ++b) {
      uint64_t ts = kBaseTime + b * kTimeStep;
      std::vector<Object> objs;
      for (size_t i = 0; i < 3; ++i) {
        Object o;
        o.id = id++;
        o.timestamp = ts;
        o.numeric = {rng.Below(config.schema.DomainSize()),
                     rng.Below(config.schema.DomainSize())};
        o.keywords = {kTypes[rng.Below(3)], kMakes[rng.Below(4)]};
        objs.push_back(std::move(o));
      }
      EXPECT_TRUE(miner.AppendBlock(std::move(objs), ts).ok());
    }

    // A response exercising matches, mismatch proofs, skips, aggregation.
    store::VectorBlockSource<Engine> source(&miner.blocks());
    QueryProcessor<Engine> sp(engine, config, &source);
    Query q;
    q.time_start = kBaseTime;
    q.time_end = kBaseTime + 9 * kTimeStep;
    q.ranges = {{0, 10, 120}};
    q.keyword_cnf = {{"Sedan"}, {"Benz", "BMW"}};
    auto resp = sp.TimeWindowQuery(q);
    EXPECT_TRUE(resp.ok());
    ByteWriter rw;
    SerializeResponse(engine, resp.value(), &rw);
    response_bytes = rw.bytes();

    // A persisted block record body (the densest block: tip, full skips).
    const core::Block<Engine>& tip = miner.blocks().back();
    ByteWriter bw;
    store::SerializeBlockBody(engine, tip, &bw);
    block_body = bw.bytes();
    block_header = tip.header;
  }

  Engine engine;
  ChainConfig config;
  Bytes response_bytes;
  Bytes block_body;
  chain::BlockHeader block_header;
};

template <typename Engine>
Status DecodeResponse(const Engine& engine, ByteSpan bytes) {
  ByteReader r(bytes);
  QueryResponse<Engine> out;
  return DeserializeResponse(engine, &r, &out);
}

template <typename Engine>
Status DecodeBlock(const Engine& engine, const chain::BlockHeader& header,
                   ByteSpan bytes) {
  ByteReader r(bytes);
  core::Block<Engine> out;
  return store::DeserializeBlockBody(engine, header, &r, &out);
}

template <typename Engine>
class SerdeHardeningTest : public ::testing::Test {};

// Mock engines keep the sweeps fast (thousands of decodes); Acc2 is covered
// by the spot-check test below so real point deserialization is exercised.
using SweepEngines =
    ::testing::Types<accum::MockAcc1Engine, accum::MockAcc2Engine>;
TYPED_TEST_SUITE(SerdeHardeningTest, SweepEngines);

TYPED_TEST(SerdeHardeningTest, ResponseRoundTripIsExact) {
  Corpus<TypeParam> corpus;
  ByteReader r(ByteSpan(corpus.response_bytes.data(),
                        corpus.response_bytes.size()));
  QueryResponse<TypeParam> back;
  ASSERT_TRUE(DeserializeResponse(corpus.engine, &r, &back).ok());
  EXPECT_TRUE(r.AtEnd());
  ByteWriter w;
  SerializeResponse(corpus.engine, back, &w);
  EXPECT_EQ(w.bytes(), corpus.response_bytes);
}

TYPED_TEST(SerdeHardeningTest, BlockRecordRoundTripIsExact) {
  Corpus<TypeParam> corpus;
  ByteReader r(ByteSpan(corpus.block_body.data(), corpus.block_body.size()));
  core::Block<TypeParam> back;
  ASSERT_TRUE(store::DeserializeBlockBody(corpus.engine, corpus.block_header,
                                          &r, &back)
                  .ok());
  ByteWriter w;
  store::SerializeBlockBody(corpus.engine, back, &w);
  EXPECT_EQ(w.bytes(), corpus.block_body);
}

TYPED_TEST(SerdeHardeningTest, EveryTruncationIsCorruption) {
  Corpus<TypeParam> corpus;
  ASSERT_GT(corpus.response_bytes.size(), 0u);
  for (size_t len = 0; len < corpus.response_bytes.size(); ++len) {
    Status st = DecodeResponse(corpus.engine,
                               ByteSpan(corpus.response_bytes.data(), len));
    ASSERT_FALSE(st.ok()) << "prefix " << len << " decoded successfully";
    ASSERT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
  }
  for (size_t len = 0; len < corpus.block_body.size(); ++len) {
    Status st = DecodeBlock(corpus.engine, corpus.block_header,
                            ByteSpan(corpus.block_body.data(), len));
    ASSERT_FALSE(st.ok()) << "prefix " << len << " decoded successfully";
    ASSERT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
  }
}

TYPED_TEST(SerdeHardeningTest, EveryByteFlipIsHandledGracefully) {
  Corpus<TypeParam> corpus;
  // Each flipped buffer must decode without crashing and without a
  // corrupted-length-sized allocation (the remaining-bytes guards); a
  // surviving decode must itself re-serialize without crashing.
  auto sweep = [&](Bytes bytes, auto decode) {
    for (size_t i = 0; i < bytes.size(); ++i) {
      for (uint8_t mask : {uint8_t{0x01}, uint8_t{0xFF}}) {
        bytes[i] ^= mask;
        Status st = decode(ByteSpan(bytes.data(), bytes.size()));
        if (!st.ok()) {
          ASSERT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
        }
        bytes[i] ^= mask;
      }
    }
  };
  sweep(corpus.response_bytes, [&](ByteSpan b) {
    return DecodeResponse(corpus.engine, b);
  });
  sweep(corpus.block_body, [&](ByteSpan b) {
    return DecodeBlock(corpus.engine, corpus.block_header, b);
  });
}

// A CRC can't vouch for a malicious writer: records whose intra-index tree
// shape would crash the query walk (childless internal nodes, self/forward
// references, leaves with children) must be rejected at decode time.
TYPED_TEST(SerdeHardeningTest, MalformedIndexTreeShapesAreRejected) {
  Corpus<TypeParam> corpus;
  ByteReader r0(ByteSpan(corpus.block_body.data(), corpus.block_body.size()));
  core::Block<TypeParam> block;
  ASSERT_TRUE(store::DeserializeBlockBody(corpus.engine, corpus.block_header,
                                          &r0, &block)
                  .ok());
  ASSERT_GT(block.nodes.size(), block.objects.size());  // has internal nodes
  auto expect_rejected = [&](const core::Block<TypeParam>& bad) {
    ByteWriter w;
    store::SerializeBlockBody(corpus.engine, bad, &w);
    ByteReader r(ByteSpan(w.bytes().data(), w.bytes().size()));
    core::Block<TypeParam> out;
    Status st = store::DeserializeBlockBody(corpus.engine, corpus.block_header,
                                            &r, &out);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
  };
  size_t internal = block.nodes.size() - 1;  // root (appended last)
  {
    auto bad = block;  // childless internal node -> walk would index [-1]
    bad.nodes[internal].left = -1;
    expect_rejected(bad);
  }
  {
    auto bad = block;  // self reference -> walk would recurse forever
    bad.nodes[internal].left = static_cast<int32_t>(internal);
    expect_rejected(bad);
  }
  {
    auto bad = block;  // leaf with a child
    bad.nodes[0].left = 0;
    expect_rejected(bad);
  }
  {
    auto bad = block;  // leaf pointing at a nonexistent object
    bad.nodes[0].object_index =
        static_cast<int32_t>(bad.objects.size());
    expect_rejected(bad);
  }
}

// Real-crypto spot check: Acc2's G1/G2 point decoding rejects off-curve
// flips instead of crashing, and truncation behaves like the mocks.
TEST(SerdeHardeningAcc2Test, TruncationAndFlipSpotChecks) {
  Corpus<accum::Acc2Engine> corpus;
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    size_t len = rng.Below(corpus.response_bytes.size());
    Status st = DecodeResponse(corpus.engine,
                               ByteSpan(corpus.response_bytes.data(), len));
    ASSERT_FALSE(st.ok());
    ASSERT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
  }
  Bytes bytes = corpus.response_bytes;
  for (int trial = 0; trial < 200; ++trial) {
    size_t i = rng.Below(bytes.size());
    bytes[i] ^= 0xFF;
    Status st = DecodeResponse(corpus.engine,
                               ByteSpan(bytes.data(), bytes.size()));
    if (!st.ok()) {
      EXPECT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
    }
    bytes[i] ^= 0xFF;
  }
}

}  // namespace
}  // namespace vchain
