// Micro-benchmarks for the cryptographic substrate and accumulator
// primitives (google-benchmark). These anchor the absolute-cost differences
// between this reproduction and the paper's MCL/Flint-based prototype when
// interpreting the figure-level benches.

#include <benchmark/benchmark.h>

#include "accum/acc1.h"
#include "accum/acc2.h"
#include "accum/polynomial.h"
#include "common/rand.h"
#include "crypto/pairing.h"
#include "crypto/sha256.h"

using namespace vchain;
using namespace vchain::crypto;
using namespace vchain::accum;

namespace {

std::shared_ptr<KeyOracle> Oracle() {
  static auto kOracle = KeyOracle::Create(/*seed=*/1, AccParams{16});
  return kOracle;
}

Multiset RandomMultiset(size_t n, uint64_t seed) {
  Rng rng(seed);
  Multiset m;
  for (size_t i = 0; i < n; ++i) m.Add(rng.Next() | 1);
  return m;
}

void BM_FpMul(benchmark::State& state) {
  Fp x = Fp::FromUint64(0x123456789abcdefULL);
  Fp y = Fp::FromUint64(0xfedcba987654321ULL);
  for (auto _ : state) {
    x = x * y;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FpMul);

void BM_FpInverse(benchmark::State& state) {
  Fp x = Fp::FromUint64(0x123456789abcdefULL);
  for (auto _ : state) {
    Fp inv = x.Inverse();
    benchmark::DoNotOptimize(inv);
    x = inv + Fp::One();
  }
}
BENCHMARK(BM_FpInverse);

void BM_Sha256_1KiB(benchmark::State& state) {
  std::vector<uint8_t> data(1024, 0xAB);
  for (auto _ : state) {
    Hash32 h = Sha256Digest(ByteSpan(data.data(), data.size()));
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_G1ScalarMul(benchmark::State& state) {
  G1 g = G1::FromAffine(G1Generator());
  U256 k = Fr::FromUint64(0xDEADBEEF12345ULL).Pow(U256(3)).ToCanonical();
  for (auto _ : state) {
    G1 r = g.ScalarMul(k);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_G1ScalarMul);

void BM_G2ScalarMul(benchmark::State& state) {
  G2 g = G2::FromAffine(G2Generator());
  U256 k = Fr::FromUint64(0xDEADBEEF12345ULL).Pow(U256(3)).ToCanonical();
  for (auto _ : state) {
    G2 r = g.ScalarMul(k);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_G2ScalarMul);

U256 RandScalar(Rng* rng) {
  U256 v(rng->Next(), rng->Next(), rng->Next(), rng->Next());
  v.limb[3] &= (1ULL << 62) - 1;
  return Fr::FromU256Reduce(v).ToCanonical();
}

/// Full-width scalars — the acc1 polynomial-commitment workload.
void BM_MultiScalarMulG1(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(42);
  std::vector<G1Affine> bases;
  std::vector<U256> scalars;
  for (size_t i = 0; i < n; ++i) {
    bases.push_back(G1Mul(Fr::FromUint64(rng.Next() | 1)).ToAffine());
    scalars.push_back(RandScalar(&rng));
  }
  for (auto _ : state) {
    G1 r = MultiScalarMul(bases, scalars);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_MultiScalarMulG1)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

/// Tiny scalars (multiplicity counts) — the acc2 digest workload.
void BM_MultiScalarMulG1SmallScalars(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(43);
  std::vector<G1Affine> bases;
  std::vector<U256> scalars;
  for (size_t i = 0; i < n; ++i) {
    bases.push_back(G1Mul(Fr::FromUint64(rng.Next() | 1)).ToAffine());
    scalars.push_back(U256((rng.Next() % 8) + 1));
  }
  for (auto _ : state) {
    G1 r = MultiScalarMul(bases, scalars);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_MultiScalarMulG1SmallScalars)->Arg(64)->Arg(256);

void BM_MultiScalarMulG2(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(44);
  std::vector<G2Affine> bases;
  std::vector<U256> scalars;
  for (size_t i = 0; i < n; ++i) {
    bases.push_back(G2Mul(Fr::FromUint64(rng.Next() | 1)).ToAffine());
    scalars.push_back(RandScalar(&rng));
  }
  for (auto _ : state) {
    G2 r = MultiScalarMul(bases, scalars);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_MultiScalarMulG2)->Arg(64);

void BM_MillerLoop(benchmark::State& state) {
  G1Affine p = G1Mul(Fr::FromUint64(7)).ToAffine();
  G2Affine q = G2Mul(Fr::FromUint64(9)).ToAffine();
  for (auto _ : state) {
    GT f = MillerLoop(p, q);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_MillerLoop);

void BM_FullPairing(benchmark::State& state) {
  G1Affine p = G1Mul(Fr::FromUint64(7)).ToAffine();
  G2Affine q = G2Mul(Fr::FromUint64(9)).ToAffine();
  for (auto _ : state) {
    GT f = Pairing(p, q);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_FullPairing);

void BM_PrepareG2(benchmark::State& state) {
  G2Affine q = G2Mul(Fr::FromUint64(9)).ToAffine();
  for (auto _ : state) {
    G2Prepared prepared = PrepareG2(q);
    benchmark::DoNotOptimize(prepared);
  }
}
BENCHMARK(BM_PrepareG2);

void BM_FinalExponentiation(benchmark::State& state) {
  GT f = MillerLoop(G1Mul(Fr::FromUint64(7)).ToAffine(),
                    G2Mul(Fr::FromUint64(9)).ToAffine());
  for (auto _ : state) {
    GT e = FinalExponentiation(f);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_FinalExponentiation);

/// The verifier's check shape: range(0) = 2 pairs is acc2 (one random G2
/// point and the generator), 3 pairs is acc1 (two random G2 points and the
/// generator). The G1 side of the generator pair is chosen so the product
/// is one, as it is for an honest proof.
void BM_PairingProductIsOne(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::pair<G1Affine, G2Affine>> pairs;
  Fr sum = Fr::Zero();
  for (size_t i = 0; i + 1 < n; ++i) {
    Fr a = Fr::FromUint64(11 + i);
    Fr b = Fr::FromUint64(101 + i);
    pairs.push_back({G1Mul(a).ToAffine(), G2Mul(b).ToAffine()});
    sum += a * b;
  }
  pairs.push_back({G1Mul(sum.Neg()).ToAffine(), G2Generator()});
  for (auto _ : state) {
    bool ok = PairingProductIsOne(pairs);
    if (!ok) state.SkipWithError("product is not one");
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_PairingProductIsOne)->Arg(2)->Arg(3);

void BM_PolyFromRoots(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<Fr> roots;
  Rng rng(5);
  for (size_t i = 0; i < n; ++i) roots.push_back(Fr::FromUint64(rng.Next()));
  for (auto _ : state) {
    Poly p = Poly::FromShiftedRoots(roots);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PolyFromRoots)->Arg(16)->Arg(64)->Arg(256);

void BM_PolyXgcdDisjoint(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<Fr> ra, rb;
  for (size_t i = 0; i < n; ++i) ra.push_back(Fr::FromUint64(1000 + i));
  for (size_t i = 0; i < 3; ++i) rb.push_back(Fr::FromUint64(10 + i));
  Poly a = Poly::FromShiftedRoots(ra);
  Poly b = Poly::FromShiftedRoots(rb);
  for (auto _ : state) {
    Poly u, v;
    Status st = PolyBezoutForCoprime(a, b, &u, &v);
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_PolyXgcdDisjoint)->Arg(16)->Arg(64)->Arg(256);

template <typename Engine>
void BM_Digest(benchmark::State& state) {
  Engine engine(Oracle());
  Multiset w = RandomMultiset(static_cast<size_t>(state.range(0)), 7);
  for (auto _ : state) {
    auto d = engine.Digest(w);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_Digest<Acc1Engine>)->Arg(16)->Arg(64);
BENCHMARK(BM_Digest<Acc2Engine>)->Arg(16)->Arg(64);

template <typename Engine>
void BM_ProveDisjoint(benchmark::State& state) {
  Engine engine(Oracle());
  Multiset w = RandomMultiset(static_cast<size_t>(state.range(0)), 8);
  Multiset clause{1, 2, 3};  // tiny ids cannot collide with Rng ids
  for (auto _ : state) {
    auto proof = engine.ProveDisjoint(w, clause);
    benchmark::DoNotOptimize(proof);
  }
}
// Real time: acc2 derives its key powers on the shared pool, so the main
// thread's CPU time undercounts the proof.
BENCHMARK(BM_ProveDisjoint<Acc1Engine>)->Arg(16)->Arg(64)->UseRealTime();
BENCHMARK(BM_ProveDisjoint<Acc2Engine>)->Arg(16)->Arg(64)->UseRealTime();

template <typename Engine>
void BM_VerifyDisjoint(benchmark::State& state) {
  Engine engine(Oracle());
  Multiset w = RandomMultiset(32, 9);
  Multiset clause{1, 2, 3};
  auto digest = engine.Digest(w);
  auto qd = engine.QueryDigestOf(clause);
  auto proof = engine.ProveDisjoint(w, clause);
  for (auto _ : state) {
    bool ok = engine.VerifyDisjoint(digest, qd, proof.value());
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_VerifyDisjoint<Acc1Engine>);
BENCHMARK(BM_VerifyDisjoint<Acc2Engine>);

// One answer's k disjointness checks in one VerifyDisjointAll call; checks
// alternate between two clauses, as a two-clause query's would. k = 1 is
// BM_VerifyDisjoint's check.
template <typename Engine>
void BM_VerifyDisjointAll(benchmark::State& state) {
  Engine engine(Oracle());
  const Multiset clauses[] = {Multiset{1, 2, 3}, Multiset{4, 5}};
  std::vector<DisjointCheck<Engine>> checks;
  for (int64_t i = 0; i < state.range(0); ++i) {
    Multiset w = RandomMultiset(32, 9 + static_cast<uint64_t>(i));
    const Multiset& clause = clauses[i % 2];
    checks.push_back({engine.Digest(w), engine.QueryDigestOf(clause),
                      engine.ProveDisjoint(w, clause).value()});
  }
  for (auto _ : state) {
    bool ok = engine.VerifyDisjointAll(checks);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_VerifyDisjointAll<Acc2Engine>)->DenseRange(1, 4);

}  // namespace

BENCHMARK_MAIN();
