// Light node header store (Fig 1/3).
//
// A light client keeps block headers only, validating the hash chain and
// the consensus proof as headers arrive. Every result-verification routine
// in src/core reads authenticated roots exclusively from here — never from
// SP-supplied data.

#ifndef VCHAIN_CHAIN_LIGHT_CLIENT_H_
#define VCHAIN_CHAIN_LIGHT_CLIENT_H_

#include <optional>
#include <vector>

#include "chain/header.h"
#include "chain/pow.h"

namespace vchain::chain {

class LightClient {
 public:
  explicit LightClient(const PowConfig& pow = {}) : pow_(pow) {}

  /// Validate and append the next header. Rejects wrong height, broken
  /// prev-hash linkage, non-monotonic timestamps, and bad consensus proofs.
  Status SyncHeader(const BlockHeader& header);

  size_t Height() const { return headers_.size(); }
  bool Empty() const { return headers_.empty(); }

  const BlockHeader& HeaderAt(uint64_t height) const {
    return headers_.at(height);
  }
  const Hash32& BlockHashAt(uint64_t height) const {
    return hashes_.at(height);
  }
  const std::vector<BlockHeader>& headers() const { return headers_; }

  /// Heights whose block timestamp lies in [ts, te]; nullopt when empty.
  /// (Query windows resolve at block granularity, §3.) The same lookup the
  /// SP runs (chain/window.h), so both sides agree on every window.
  std::optional<std::pair<uint64_t, uint64_t>> HeightRangeForWindow(
      uint64_t ts, uint64_t te) const;

  /// Total bytes a light node stores per block (the paper's §9.1 metric).
  static constexpr size_t HeaderBytes() { return BlockHeader::kSerializedSize; }

 private:
  PowConfig pow_;
  std::vector<BlockHeader> headers_;
  std::vector<Hash32> hashes_;  // memoized header hashes
};

}  // namespace vchain::chain

#endif  // VCHAIN_CHAIN_LIGHT_CLIENT_H_
