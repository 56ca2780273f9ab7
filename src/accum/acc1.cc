#include "accum/acc1.h"

namespace vchain::accum {

Poly Acc1Engine::CharPoly(const Multiset& w) const {
  std::vector<Fr> roots;
  roots.reserve(w.TotalSize());
  for (const Multiset::Entry& e : w.entries()) {
    Fr x = Fr::FromUint64(e.element);
    for (uint32_t k = 0; k < e.count; ++k) roots.push_back(x);
  }
  return Poly::FromShiftedRoots(roots);
}

G1 Acc1Engine::CommitPolyG1(const Poly& p) const {
  if (p.IsZero()) return G1::Infinity();
  if (mode_ == ProverMode::kTrustedFast) {
    return oracle_->CommitG1(p.Eval(oracle_->secret()));
  }
  uint64_t deg = static_cast<uint64_t>(p.Degree());
  oracle_->WarmupG1(deg);
  std::vector<G1Affine> bases;
  std::vector<U256> scalars;
  bases.reserve(deg + 1);
  scalars.reserve(deg + 1);
  for (uint64_t i = 0; i <= deg; ++i) {
    if (p.coeffs()[i].IsZero()) continue;
    bases.push_back(oracle_->G1PowerOf(i));
    scalars.push_back(p.coeffs()[i].ToCanonical());
  }
  return crypto::MultiScalarMul(bases, scalars);
}

G2 Acc1Engine::CommitPolyG2(const Poly& p) const {
  if (p.IsZero()) return G2::Infinity();
  if (mode_ == ProverMode::kTrustedFast) {
    return oracle_->CommitG2(p.Eval(oracle_->secret()));
  }
  uint64_t deg = static_cast<uint64_t>(p.Degree());
  oracle_->WarmupG2(deg);
  std::vector<G2Affine> bases;
  std::vector<U256> scalars;
  for (uint64_t i = 0; i <= deg; ++i) {
    if (p.coeffs()[i].IsZero()) continue;
    bases.push_back(oracle_->G2PowerOf(i));
    scalars.push_back(p.coeffs()[i].ToCanonical());
  }
  return crypto::MultiScalarMul(bases, scalars);
}

Acc1Engine::ObjectDigest Acc1Engine::Digest(const Multiset& w) const {
  return ObjectDigest{CommitPolyG1(CharPoly(w)).ToAffine()};
}

Acc1Engine::QueryDigest Acc1Engine::QueryDigestOf(const Multiset& clause) const {
  return QueryDigest{CommitPolyG1(CharPoly(clause)).ToAffine()};
}

Result<Acc1Engine::Proof> Acc1Engine::ProveDisjoint(
    const Multiset& w, const Multiset& clause) const {
  Poly p1 = CharPoly(w);
  Poly p2 = CharPoly(clause);
  Poly q1, q2;
  // p1*q1 + p2*q2 = 1 exists iff the multisets are disjoint.
  VCHAIN_RETURN_IF_ERROR(PolyBezoutForCoprime(p1, p2, &q1, &q2));
  Proof proof;
  proof.f1 = CommitPolyG2(q1).ToAffine();
  proof.f2 = CommitPolyG2(q2).ToAffine();
  return proof;
}

bool Acc1Engine::VerifyDisjoint(const ObjectDigest& dw, const QueryDigest& dc,
                                const Proof& proof) const {
  // e(acc(X1), F1) * e(acc(X2), F2) * e(-g1, g2) == 1.
  static const G1Affine kNegG1 = crypto::G1Generator().Neg();
  return crypto::PairingProductIsOne({{dw.point, proof.f1},
                                      {dc.point, proof.f2},
                                      {kNegG1, crypto::G2Generator()}});
}

void Acc1Engine::SerializeDigest(const ObjectDigest& d, ByteWriter* w) const {
  crypto::SerializeG1(d.point, w);
}

Status Acc1Engine::DeserializeDigest(ByteReader* r, ObjectDigest* out) const {
  return crypto::DeserializeG1(r, &out->point);
}

void Acc1Engine::SerializeProof(const Proof& p, ByteWriter* w) const {
  crypto::SerializeG2(p.f1, w);
  crypto::SerializeG2(p.f2, w);
}

Status Acc1Engine::DeserializeProof(ByteReader* r, Proof* out) const {
  VCHAIN_RETURN_IF_ERROR(crypto::DeserializeG2(r, &out->f1));
  return crypto::DeserializeG2(r, &out->f2);
}

}  // namespace vchain::accum
