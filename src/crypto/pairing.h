// Optimal ate pairing on BN254: e : G1 x G2 -> GT.
//
// The G2 side of the Miller loop is prepared once per point: PrepareG2 walks
// the 6u+2 loop (a NAF computed from the curve seed at startup; no hardcoded
// digit table) plus the two Frobenius-twisted correction additions in
// homogeneous projective coordinates on the D-type twist (doubling/addition
// formulas 3 and 4 of eprint 2013/722), recording each step's line as three
// Fp2 coefficients without a single field inversion. The generator's
// preparation is cached for the life of the process.
//
// MultiMillerLoop evaluates the prepared lines of several pairs at their G1
// points and shares one f^2 per loop step across all of them. The final
// exponentiation is the easy part followed by the Devegili-Scott-Dominguez
// hard part; its u-power exponentiations square with Granger-Scott
// cyclotomic squaring.
//
// `PairingProductIsOne` is the primitive behind every VerifyDisjoint and
// VerifyDisjointAll in the accumulator layer. acc2's VerifyDisjointAll folds
// all disjointness checks of one verified answer into a single call (one
// pair per distinct clause digest plus one for the proofs), so an answer
// pays one multi-Miller loop and one final exponentiation.

#ifndef VCHAIN_CRYPTO_PAIRING_H_
#define VCHAIN_CRYPTO_PAIRING_H_

#include <span>
#include <utility>
#include <vector>

#include "crypto/bn254.h"

namespace vchain::crypto {

/// Miller-loop line coefficients for a fixed G2 point Q. Line k, evaluated
/// at P in G1, is the sparse Fp12 element
///   c_y * yP + (c_x * xP) w + c_1 w^3
/// (the w^0/w^1/w^3 slots of Fp12::MulBySparseLine), correct up to an Fp2
/// factor that the final exponentiation removes.
class G2Prepared {
 public:
  struct Line {
    Fp2 c_y, c_x, c_1;
  };

  /// The point at infinity: pairs with it contribute one.
  G2Prepared() = default;

  bool infinity() const { return lines_.empty(); }
  const std::vector<Line>& lines() const { return lines_; }

 private:
  friend G2Prepared PrepareG2(const G2Affine& q);
  std::vector<Line> lines_;
};

G2Prepared PrepareG2(const G2Affine& q);

/// PrepareG2(G2Generator()), computed once per process.
const G2Prepared& PreparedG2Generator();

/// prod_i f_{6u+2,Q_i}(P_i) with the Frobenius corrections, one shared
/// squaring per loop step. Pairs with infinity on either side contribute one.
GT MultiMillerLoop(
    std::span<const std::pair<G1Affine, const G2Prepared*>> pairs);

/// Full pairing e(P, Q). Returns GT::One() if either input is infinity.
GT Pairing(const G1Affine& p, const G2Affine& q);

/// Miller loop only (no final exponentiation); multiply several of these and
/// call FinalExponentiation once for a product of pairings. The raw value is
/// defined only up to factors in proper subfields of Fp12, which the final
/// exponentiation maps to one: only FinalExponentiation(MillerLoop(P, Q))
/// is part of the contract.
GT MillerLoop(const G1Affine& p, const G2Affine& q);

GT FinalExponentiation(const GT& f);

/// prod_i e(ps[i], qs[i]).
GT PairingProduct(const std::vector<std::pair<G1Affine, G2Affine>>& pairs);

/// True iff prod_i e(ps[i], qs[i]) == 1. One shared Miller loop and final
/// exponentiation; the generator's lines come from the cache.
bool PairingProductIsOne(
    const std::vector<std::pair<G1Affine, G2Affine>>& pairs);

/// Cached e(g1, g2) for verifier equations of the form "... == e(g1, g2)".
const GT& PairingOfGenerators();

}  // namespace vchain::crypto

#endif  // VCHAIN_CRYPTO_PAIRING_H_
