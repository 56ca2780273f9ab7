#include "chain/light_client.h"

#include "chain/window.h"

namespace vchain::chain {

Status LightClient::SyncHeader(const BlockHeader& header) {
  if (header.height != headers_.size()) {
    return Status::InvalidArgument("unexpected header height");
  }
  if (!headers_.empty()) {
    if (header.prev_hash != hashes_.back()) {
      return Status::VerifyFailed("header does not extend the chain tip");
    }
    if (header.timestamp < headers_.back().timestamp) {
      return Status::VerifyFailed("non-monotonic block timestamp");
    }
  }
  if (!CheckPow(header, pow_)) {
    return Status::VerifyFailed("consensus proof does not meet difficulty");
  }
  headers_.push_back(header);
  hashes_.push_back(header.Hash());
  return Status::OK();
}

std::optional<std::pair<uint64_t, uint64_t>> LightClient::HeightRangeForWindow(
    uint64_t ts, uint64_t te) const {
  return chain::HeightRangeForWindow(
      headers_.size(),
      [this](uint64_t h) { return headers_[h].timestamp; }, ts, te);
}

}  // namespace vchain::chain
