// The miner: builds ADS-extended blocks and seals them with consensus
// proofs (§5.1 "ADS Generation", Algorithm 2, §6.2).
//
// Templated on the accumulator engine; the engine's ProverMode decides
// whether digests are computed honestly from served public-key powers (what
// Table 1 measures) or via the oracle's trusted fast path (identical bytes;
// used when a benchmark measures query processing, not mining).
//
// Durability (store/ subsystem): `AttachStore` makes every mined block
// write through to an append-only BlockStore in O(1); `ResumeFromStore`
// reopens a persisted chain and continues mining without recomputing a
// single digest — only the skip-construction tail window is decoded back
// into memory. With a store attached, `SetRetainWindow` bounds the miner's
// resident blocks to that tail, so the *chain* can outgrow RAM while the
// miner keeps a fixed footprint (the store's header column stays resident;
// it is bytes per block, not kilobytes). The builder never owns the store:
// keep it alive while the builder mines or syncs light clients.

#ifndef VCHAIN_CORE_CHAIN_BUILDER_H_
#define VCHAIN_CORE_CHAIN_BUILDER_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "chain/light_client.h"
#include "common/timer.h"
#include "core/block.h"
#include "store/block_serde.h"

namespace vchain::core {

template <typename Engine>
class ChainBuilder {
 public:
  struct BuildStats {
    double ads_seconds = 0;   ///< time spent building digests/indexes
    size_t ads_bytes = 0;     ///< ADS size added to the block
    uint64_t pow_attempts = 0;
  };

  ChainBuilder(Engine engine, ChainConfig config)
      : engine_(std::move(engine)), config_(std::move(config)) {}

  /// Reopen a persisted chain and continue mining from its tip. Decodes only
  /// the tail window skip construction needs; pruned headers are served from
  /// the store's resident header column.
  static Result<ChainBuilder> ResumeFromStore(Engine engine, ChainConfig config,
                                              store::BlockStore* store) {
    ChainBuilder builder(std::move(engine), std::move(config));
    uint64_t n = store->NumBlocks();
    uint64_t tail = std::min<uint64_t>(n, builder.NeededTailBlocks());
    builder.base_height_ = n - tail;
    for (uint64_t h = builder.base_height_; h < n; ++h) {
      auto block = store::ReadBlockFromStore(builder.engine_, *store, h);
      if (!block.ok()) return block.status();
      builder.blocks_.push_back(block.TakeValue());
    }
    builder.store_ = store;
    return builder;
  }

  /// Persist this chain: flush any blocks the store is missing, then write
  /// every future AppendBlock through. The store must be a prefix of this
  /// chain (typically: freshly created, or equal after a restart).
  Status AttachStore(store::BlockStore* store) {
    if (store->NumBlocks() > NumBlocks()) {
      return Status::InvalidArgument(
          "store is ahead of this chain; use ResumeFromStore");
    }
    if (base_height_ > 0) {
      return Status::InvalidArgument("builder already pruned past genesis");
    }
    for (uint64_t h = 0; h < store->NumBlocks(); ++h) {
      if (!(store->HeaderAt(h) == blocks_[h].header)) {
        return Status::InvalidArgument("store holds a different chain");
      }
    }
    for (uint64_t h = store->NumBlocks(); h < NumBlocks(); ++h) {
      VCHAIN_RETURN_IF_ERROR(
          store::AppendBlockToStore(engine_, blocks_[h], store));
    }
    store_ = store;
    return Status::OK();
  }

  /// Bound the in-memory window to the last `retain` blocks (0 = keep all).
  /// Requires an attached store (older blocks remain reachable there) and at
  /// least the skip-construction tail.
  ///
  /// IMPORTANT: once pruning is active, `blocks()` is a *window* whose
  /// index i is height `base_height() + i` — do not wrap it in a
  /// VectorBlockSource (its height range would silently start at the
  /// window, not genesis). Serve queries from the attached store through a
  /// ConcurrentStoreBlockSource handle instead.
  Status SetRetainWindow(size_t retain) {
    if (retain != 0) {
      if (store_ == nullptr) {
        return Status::InvalidArgument(
            "pruning requires an attached block store");
      }
      if (retain < NeededTailBlocks()) {
        return Status::InvalidArgument(
            "retain window smaller than the skip-construction tail");
      }
    }
    retain_window_ = retain;
    Prune();
    return Status::OK();
  }

  /// Mine the next block from `objects` at `timestamp` (must be monotonic).
  Result<BuildStats> AppendBlock(std::vector<Object> objects,
                                 uint64_t timestamp) {
    if (objects.empty()) {
      return Status::InvalidArgument("empty block");
    }
    if (!blocks_.empty() &&
        timestamp < blocks_.back().header.timestamp) {
      return Status::InvalidArgument("non-monotonic block timestamp");
    }
    for (const Object& o : objects) {
      VCHAIN_RETURN_IF_ERROR(chain::ValidateObject(o, config_.schema));
    }

    BuildStats stats;
    Timer ads_timer;

    Block<Engine> block;
    block.objects = std::move(objects);
    block.header.height = NumBlocks();
    block.header.timestamp = timestamp;
    block.header.prev_hash =
        blocks_.empty() ? Hash32{} : blocks_.back().header.Hash();

    // Per-object ADS leaves.
    for (const Object& o : block.objects) {
      Multiset w = chain::TransformObject(o, config_.schema);
      auto digest = engine_.Digest(w);
      Hash32 inner = o.Hash();
      block.leaf_hashes.push_back(NodeHash(engine_, inner, digest));
      if (config_.mode != IndexMode::kNil) {
        IndexNode<Engine> leaf;
        leaf.w = w;
        leaf.digest = digest;
        leaf.hash = block.leaf_hashes.back();
        leaf.object_index = static_cast<int32_t>(block.leaf_digests.size());
        block.nodes.push_back(std::move(leaf));
      }
      block.block_w.UnionInPlace(w);
      block.object_ws.push_back(std::move(w));
      block.leaf_digests.push_back(std::move(digest));
    }

    // Object root: intra-index root (Algorithm 2) or plain Merkle.
    if (config_.mode != IndexMode::kNil) {
      block.root_index = BuildIntraIndex(engine_, &block);
      block.header.object_root = block.nodes[block.root_index].hash;
      block.block_digest = block.nodes[block.root_index].digest;
    } else {
      block.header.object_root = chain::MerkleRootOf(block.leaf_hashes);
      // kNil stores no aggregate digest; block_digest stays default (it is
      // only consumed by the skip list, which requires kBoth).
    }

    // Inter-block skip list.
    if (config_.mode == IndexMode::kBoth) {
      BuildSkips(&block);
      ByteWriter root_w;
      for (const SkipEntry<Engine>& s : block.skips) {
        root_w.PutFixed(crypto::HashSpan(s.entry_hash));
      }
      block.header.skiplist_root = crypto::Sha256Digest(
          ByteSpan(root_w.bytes().data(), root_w.bytes().size()));
    }

    stats.ads_seconds = ads_timer.ElapsedSeconds();
    stats.ads_bytes = block.AdsBytes(engine_);

    stats.pow_attempts = chain::MineNonce(&block.header, config_.pow);
    if (store_ != nullptr) {
      VCHAIN_RETURN_IF_ERROR(
          store::AppendBlockToStore(engine_, block, store_));
    }
    blocks_.push_back(std::move(block));
    Prune();
    return stats;
  }

  /// Chain height (total blocks mined, including pruned ones).
  uint64_t NumBlocks() const { return base_height_ + blocks_.size(); }

  /// The retained in-memory window: the whole chain unless pruning is
  /// enabled, in which case `blocks()[i]` is the block at height
  /// `base_height() + i`.
  const std::vector<Block<Engine>>& blocks() const { return blocks_; }
  uint64_t base_height() const { return base_height_; }
  const store::BlockStore* attached_store() const { return store_; }
  const Engine& engine() const { return engine_; }
  const ChainConfig& config() const { return config_; }

  /// Blocks the next BuildSkips may reach back over: the largest configured
  /// skip distance (1 when no skip list is built — the predecessor is still
  /// needed for prev_hash and the timestamp monotonicity check). The
  /// smallest window SetRetainWindow accepts.
  uint64_t NeededTailBlocks() const {
    if (config_.mode != IndexMode::kBoth || config_.skiplist_size == 0) {
      return 1;
    }
    return config_.SkipDistance(config_.skiplist_size - 1);
  }

  /// Feed all sealed headers to a light client (Fig 3's header sync).
  /// Pruned heights are served from the attached store's header column.
  Status SyncLightClient(chain::LightClient* client) const {
    for (uint64_t h = client->Height(); h < NumBlocks(); ++h) {
      const chain::BlockHeader& header =
          h < base_height_ ? store_->HeaderAt(h) : At(h).header;
      VCHAIN_RETURN_IF_ERROR(client->SyncHeader(header));
    }
    return Status::OK();
  }

 private:
  /// The retained block at absolute chain height `h`.
  const Block<Engine>& At(uint64_t h) const {
    return blocks_[h - base_height_];
  }

  void Prune() {
    if (retain_window_ == 0 || blocks_.size() <= retain_window_) return;
    size_t drop = blocks_.size() - retain_window_;
    blocks_.erase(blocks_.begin(),
                  blocks_.begin() + static_cast<ptrdiff_t>(drop));
    base_height_ += drop;
  }

  void BuildSkips(Block<Engine>* block) {
    uint64_t height = block->header.height;
    uint32_t levels = config_.NumSkipLevels(height);
    for (uint32_t level = 0; level < levels; ++level) {
      uint64_t d = config_.SkipDistance(level);
      SkipEntry<Engine> entry;
      entry.distance = d;
      ByteWriter hs;
      for (uint64_t j = height - d; j < height; ++j) {
        hs.PutFixed(crypto::HashSpan(At(j).header.Hash()));
      }
      entry.preskipped_hash = crypto::Sha256Digest(
          ByteSpan(hs.bytes().data(), hs.bytes().size()));
      if (level == 0) {
        std::vector<const Multiset*> parts;
        parts.reserve(static_cast<size_t>(d));
        for (uint64_t j = height - d; j < height; ++j) {
          parts.push_back(&At(j).block_w);
        }
        entry.w.AddAll(parts);
      } else {
        // Each level doubles the previous one's coverage: reuse the last
        // level's multiset plus the farther half.
        entry.w = block->skips[level - 1].w;
        for (uint64_t j = height - d; j < height - d / 2; ++j) {
          entry.w.SumInPlace(At(j).block_w);
        }
      }
      if constexpr (Engine::kSupportsAggregation) {
        // acc2 reuses per-block digests: one group op per covered block
        // (this is why Table 1's both-acc2 build time stays low).
        std::vector<typename Engine::ObjectDigest> parts;
        for (uint64_t j = height - d; j < height; ++j) {
          parts.push_back(At(j).block_digest);
        }
        entry.digest = engine_.SumDigests(parts);
      } else {
        entry.digest = engine_.Digest(entry.w);
      }
      ByteWriter ew;
      ew.PutFixed(crypto::HashSpan(entry.preskipped_hash));
      engine_.SerializeDigest(entry.digest, &ew);
      entry.entry_hash = crypto::Sha256Digest(
          ByteSpan(ew.bytes().data(), ew.bytes().size()));
      block->skips.push_back(std::move(entry));
    }
  }

  Engine engine_;
  ChainConfig config_;
  std::vector<Block<Engine>> blocks_;
  store::BlockStore* store_ = nullptr;
  uint64_t base_height_ = 0;
  size_t retain_window_ = 0;  // 0 = retain everything
};

}  // namespace vchain::core

#endif  // VCHAIN_CORE_CHAIN_BUILDER_H_
