// BlockSource — the read abstraction the query stack consumes.
//
// QueryProcessor, the subscription drain, and the MHT baseline used to take
// `const std::vector<Block>*`, hard-wiring the SP to a fully-resident chain.
// BlockSource decouples them from where blocks live:
//
//   * VectorBlockSource — zero-cost adapter over an in-memory chain
//     (ChainBuilder::blocks()); behavior identical to the old code path.
//   * ConcurrentStoreBlockSource::Handle (store/concurrent_block_source.h)
//     — blocks decoded on demand from a BlockStore through one shared LRU,
//     so the SP serves chains far larger than RAM while hot query windows
//     stay memory-resident; each query (or test) takes its own handle.
//
// Reference contract: the Block& returned by BlockAt stays valid until the
// next BlockAt call on the same source (a store handle pins only the block
// it last returned). Every consumer in this codebase holds at most the
// current block across other work, which the query walk's
// one-block-at-a-time structure guarantees.
//
// TimestampAt exists so window lookups (chain/window.h) never fault a cold
// block in: the store keeps all headers resident, so timestamp probes are
// pure memory reads in both implementations.

#ifndef VCHAIN_STORE_BLOCK_SOURCE_H_
#define VCHAIN_STORE_BLOCK_SOURCE_H_

#include <vector>

#include "store/block_serde.h"

namespace vchain::store {

template <typename Engine>
class BlockSource {
 public:
  virtual ~BlockSource() = default;

  virtual uint64_t NumBlocks() const = 0;
  /// The block at `height` (< NumBlocks()). The reference is valid until the
  /// next BlockAt call on this source.
  virtual const core::Block<Engine>& BlockAt(uint64_t height) const = 0;
  /// The block's timestamp, without materializing the block.
  virtual uint64_t TimestampAt(uint64_t height) const = 0;
};

/// In-memory chain adapter (the pre-store behavior, verbatim). The vector
/// must start at genesis — a pruned ChainBuilder's `blocks()` window does
/// NOT qualify (its indices are offset by `base_height()`); serve a pruned
/// chain from its attached store via a ConcurrentStoreBlockSource handle.
template <typename Engine>
class VectorBlockSource final : public BlockSource<Engine> {
 public:
  explicit VectorBlockSource(const std::vector<core::Block<Engine>>* blocks)
      : blocks_(blocks) {}

  uint64_t NumBlocks() const override { return blocks_->size(); }
  const core::Block<Engine>& BlockAt(uint64_t height) const override {
    return (*blocks_)[height];
  }
  uint64_t TimestampAt(uint64_t height) const override {
    return (*blocks_)[height].header.timestamp;
  }

 private:
  const std::vector<core::Block<Engine>>* blocks_;
};

}  // namespace vchain::store

#endif  // VCHAIN_STORE_BLOCK_SOURCE_H_
