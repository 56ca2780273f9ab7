#include "accum/acc2.h"

#include <cstring>

#include "crypto/sha256.h"

namespace vchain::accum {

Multiset Acc2Engine::MapMultiset(const Multiset& w) const {
  Multiset mapped;
  for (const Multiset::Entry& e : w.entries()) {
    mapped.Add(MapElement(e.element), e.count);
  }
  return mapped;
}

Acc2Engine::ObjectDigest Acc2Engine::Digest(const Multiset& w) const {
  Multiset mapped = MapMultiset(w);
  if (mapped.Empty()) return ObjectDigest{G1::Infinity().ToAffine()};
  if (mode_ == ProverMode::kTrustedFast) {
    Fr a = Fr::Zero();
    for (const Multiset::Entry& e : mapped.entries()) {
      a += Fr::FromUint64(e.count) * oracle_->SecretPow(e.element);
    }
    return ObjectDigest{oracle_->CommitG1(a).ToAffine()};
  }
  std::vector<G1Affine> bases;
  std::vector<U256> scalars;
  bases.reserve(mapped.DistinctSize());
  for (const Multiset::Entry& e : mapped.entries()) {
    bases.push_back(oracle_->G1PowerOf(e.element));
    scalars.push_back(U256(e.count));
  }
  return ObjectDigest{crypto::MultiScalarMul(bases, scalars).ToAffine()};
}

Acc2Engine::QueryDigest Acc2Engine::QueryDigestOf(const Multiset& clause) const {
  Multiset mapped = MapMultiset(clause);
  if (mapped.Empty()) return QueryDigest{G2::Infinity().ToAffine()};
  uint64_t q = oracle_->params().UniverseSize();
  std::vector<G2Affine> bases;
  std::vector<U256> scalars;
  for (const Multiset::Entry& e : mapped.entries()) {
    bases.push_back(oracle_->G2PowerOf(q - e.element));
    scalars.push_back(U256(e.count));
  }
  return QueryDigest{crypto::MultiScalarMul(bases, scalars).ToAffine()};
}

Result<Acc2Engine::Proof> Acc2Engine::ProveDisjoint(
    const Multiset& w, const Multiset& clause) const {
  Multiset mw = MapMultiset(w);
  Multiset mc = MapMultiset(clause);
  if (mw.Intersects(mc)) {
    return Status::InvalidArgument("mapped multisets intersect");
  }
  uint64_t q = oracle_->params().UniverseSize();
  if (mw.Empty() || mc.Empty()) {
    // A(X)*B(Y) == 0: the proof is the identity element.
    return Proof{G1::Infinity().ToAffine()};
  }
  if (mode_ == ProverMode::kTrustedFast) {
    Fr a = Fr::Zero();
    for (const Multiset::Entry& e : mw.entries()) {
      a += Fr::FromUint64(e.count) * oracle_->SecretPow(e.element);
    }
    Fr b = Fr::Zero();
    for (const Multiset::Entry& e : mc.entries()) {
      b += Fr::FromUint64(e.count) * oracle_->SecretPow(q - e.element);
    }
    return Proof{oracle_->CommitG1(a * b).ToAffine()};
  }
  // Honest path: pi = prod over cross terms of g1^{s^{x_i + q - y_j}} with
  // weight m_i * m_j. Disjointness guarantees x_i + q - y_j != q. Cross-term
  // powers come from one uncached batch request (they rarely recur; see
  // keys.h).
  std::vector<uint64_t> exponents;
  std::vector<U256> scalars;
  exponents.reserve(mw.DistinctSize() * mc.DistinctSize());
  scalars.reserve(mw.DistinctSize() * mc.DistinctSize());
  for (const Multiset::Entry& ew : mw.entries()) {
    for (const Multiset::Entry& ec : mc.entries()) {
      exponents.push_back(ew.element + q - ec.element);
      scalars.push_back(
          U256(static_cast<uint64_t>(ew.count) * ec.count));
    }
  }
  return Proof{crypto::MultiScalarMul(oracle_->G1Powers(exponents), scalars)
                   .ToAffine()};
}

bool Acc2Engine::VerifyDisjoint(const ObjectDigest& dw, const QueryDigest& dc,
                                const Proof& proof) const {
  // e(dA, dB) * e(-pi, g2) == 1.
  return crypto::PairingProductIsOne(
      {{dw.point, dc.point}, {proof.pi.Neg(), crypto::G2Generator()}});
}

std::vector<U256> Acc2Engine::BatchWeights(
    std::span<const DisjointCheck<Acc2Engine>> checks) {
  static constexpr char kTag[] = "vchain/acc2/VerifyDisjointAll/v1";
  ByteWriter transcript;
  transcript.PutFixed(
      ByteSpan(reinterpret_cast<const uint8_t*>(kTag), sizeof(kTag) - 1));
  for (const DisjointCheck<Acc2Engine>& c : checks) {
    crypto::SerializeG1(c.digest.point, &transcript);
    crypto::SerializeG2(c.clause.point, &transcript);
    crypto::SerializeG1(c.proof.pi, &transcript);
  }
  crypto::Sha256 prefix;
  prefix.Update(ByteSpan(transcript.bytes().data(), transcript.bytes().size()));

  std::vector<U256> weights;
  weights.reserve(checks.size());
  if (!checks.empty()) weights.push_back(U256(1));
  for (uint64_t i = 1; i < checks.size(); ++i) {
    crypto::Sha256 h = prefix;
    ByteWriter index;
    index.PutU64(i);
    h.Update(ByteSpan(index.bytes().data(), index.bytes().size()));
    crypto::Hash32 d = h.Finalize();
    uint64_t lo, hi;
    std::memcpy(&lo, d.data(), 8);
    std::memcpy(&hi, d.data() + 8, 8);
    weights.push_back(U256(lo | 1, hi, 0, 0));
  }
  return weights;
}

bool Acc2Engine::VerifyDisjointAll(
    std::span<const DisjointCheck<Acc2Engine>> checks) const {
  if (checks.empty()) return true;
  std::vector<U256> weights = BatchWeights(checks);
  // One G1 side per distinct clause digest: sum of r_i * dA_i over its
  // checks. Answers carry a handful of clauses, so a linear scan groups.
  struct Group {
    const G2Affine* clause;
    std::vector<G1Affine> digests;
    std::vector<U256> weights;
  };
  std::vector<Group> groups;
  std::vector<G1Affine> proofs;
  proofs.reserve(checks.size());
  for (size_t i = 0; i < checks.size(); ++i) {
    const DisjointCheck<Acc2Engine>& c = checks[i];
    Group* g = nullptr;
    for (Group& existing : groups) {
      if (*existing.clause == c.clause.point) g = &existing;
    }
    if (g == nullptr) g = &groups.emplace_back(Group{&c.clause.point, {}, {}});
    g->digests.push_back(c.digest.point);
    g->weights.push_back(weights[i]);
    proofs.push_back(c.proof.pi);
  }
  std::vector<std::pair<G1Affine, G2Affine>> pairs;
  pairs.reserve(groups.size() + 1);
  for (const Group& g : groups) {
    pairs.emplace_back(crypto::MultiScalarMul(g.digests, g.weights).ToAffine(),
                       *g.clause);
  }
  pairs.emplace_back(crypto::MultiScalarMul(proofs, weights).ToAffine().Neg(),
                     crypto::G2Generator());
  return crypto::PairingProductIsOne(pairs);
}

Acc2Engine::ObjectDigest Acc2Engine::SumDigests(
    const std::vector<ObjectDigest>& digests) const {
  G1 acc = G1::Infinity();
  for (const ObjectDigest& d : digests) {
    acc = acc.AddAffine(d.point);
  }
  return ObjectDigest{acc.ToAffine()};
}

Acc2Engine::Proof Acc2Engine::SumProofs(const std::vector<Proof>& proofs) const {
  G1 acc = G1::Infinity();
  for (const Proof& p : proofs) {
    acc = acc.AddAffine(p.pi);
  }
  return Proof{acc.ToAffine()};
}

void Acc2Engine::SerializeDigest(const ObjectDigest& d, ByteWriter* w) const {
  crypto::SerializeG1(d.point, w);
}

Status Acc2Engine::DeserializeDigest(ByteReader* r, ObjectDigest* out) const {
  return crypto::DeserializeG1(r, &out->point);
}

void Acc2Engine::SerializeProof(const Proof& p, ByteWriter* w) const {
  crypto::SerializeG1(p.pi, w);
}

Status Acc2Engine::DeserializeProof(ByteReader* r, Proof* out) const {
  return crypto::DeserializeG1(r, &out->pi);
}

}  // namespace vchain::accum
