// The time-window lookup (§3, Fig 3): which heights a query window selects.
//
// The SP walks exactly these heights and the user re-derives the same range
// from its headers to check completeness, so both sides call this one
// function. Block timestamps are non-decreasing by construction (the miner
// and the light client both reject regressions), so the range is two binary
// searches: the first height with t >= ts (lower bound) and the last with
// t <= te (upper bound), which also handles runs of duplicate timestamps.
// At most ~2·log2(n) timestamp reads.

#ifndef VCHAIN_CHAIN_WINDOW_H_
#define VCHAIN_CHAIN_WINDOW_H_

#include <cstdint>
#include <optional>
#include <utility>

namespace vchain::chain {

/// The inclusive height range [first, last] of the `num_blocks`-block chain
/// whose timestamps fall in [ts, te], or nullopt when no block does (an
/// inverted window, an empty chain, or a window between/outside blocks).
/// `timestamp_at(h)` returns height h's block timestamp.
template <typename TimestampAt>
std::optional<std::pair<uint64_t, uint64_t>> HeightRangeForWindow(
    uint64_t num_blocks, const TimestampAt& timestamp_at, uint64_t ts,
    uint64_t te) {
  if (ts > te) return std::nullopt;
  uint64_t lo = 0, hi = num_blocks;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (timestamp_at(mid) < ts) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const uint64_t first = lo;
  hi = num_blocks;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (timestamp_at(mid) <= te) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (first == lo) return std::nullopt;
  return std::make_pair(first, lo - 1);
}

}  // namespace vchain::chain

#endif  // VCHAIN_CHAIN_WINDOW_H_
