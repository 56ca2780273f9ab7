// ADS-extended blocks (Figs 4/6/7), templated on the accumulator engine.
//
// A block carries, besides its objects:
//   * per-object transformed multisets W' and their AttDigests;
//   * leaf hashes H(H(o_i) | digest-bytes) binding object and digest;
//   * in `intra`/`both` mode, the intra-block index of §6.1 — a binary tree
//     grown by Algorithm 2's similarity clustering, each node holding
//     (W, acc(W), hash) per Definition 6.1;
//   * in `both` mode, the inter-block skip list of §6.2 — entries covering
//     the previous 4, 8, ..., 2^(L+1) blocks with summed multisets and
//     aggregate digests.
//
// Node hashing (uniform for leaves and internal nodes):
//     node_hash = H(inner_hash | digest_bytes)
//     inner_hash = H(object_bytes)        for leaves
//                = H(hash_left|hash_right) for internal nodes
// This deviates from the paper only in binding *leaf* digests too, closing a
// malleability gap for single-leaf mismatch proofs.

#ifndef VCHAIN_CORE_BLOCK_H_
#define VCHAIN_CORE_BLOCK_H_

#include <cstdint>
#include <vector>

#include "accum/engine.h"
#include "chain/header.h"
#include "chain/merkle.h"
#include "chain/object.h"
#include "chain/pow.h"
#include "chain/transform.h"

namespace vchain::core {

using accum::Multiset;
using chain::BlockHeader;
using chain::Hash32;
using chain::NumericSchema;
using chain::Object;

/// Which ADS indexes a chain maintains — the paper's evaluated schemes.
enum class IndexMode : uint8_t {
  kNil = 0,    ///< flat per-object digests under a plain Merkle tree
  kIntra = 1,  ///< + intra-block similarity tree (§6.1)
  kBoth = 2,   ///< + inter-block skip list (§6.2)
};

const char* IndexModeName(IndexMode mode);

/// Chain-wide public configuration every party agrees on (part of the
/// genesis spec in a deployment).
struct ChainConfig {
  IndexMode mode = IndexMode::kBoth;
  NumericSchema schema;
  /// Skip-list levels; level i covers the previous 2^(i+2) blocks, so size 5
  /// gives a maximum jump of 64 (Appendix D.3).
  uint32_t skiplist_size = 5;
  chain::PowConfig pow;
  /// SP-local tuning (not consensus): decoded blocks the disk-backed block
  /// cache keeps resident (store/concurrent_block_source.h). Size to the hot
  /// query window; the chain itself may be arbitrarily larger than RAM.
  size_t block_cache_blocks = 256;

  uint64_t SkipDistance(uint32_t level) const { return uint64_t{4} << level; }
  /// Number of levels materialized at `height` (a skip must have all its
  /// covered blocks mined).
  uint32_t NumSkipLevels(uint64_t height) const {
    if (mode != IndexMode::kBoth) return 0;
    uint32_t n = 0;
    while (n < skiplist_size && SkipDistance(n) <= height) ++n;
    return n;
  }
};

/// One node of the intra-block index.
template <typename Engine>
struct IndexNode {
  Multiset w;
  typename Engine::ObjectDigest digest;
  Hash32 hash{};
  int32_t left = -1;          ///< child indices; -1 for leaves
  int32_t right = -1;
  int32_t object_index = -1;  ///< >= 0 iff leaf

  bool IsLeaf() const { return object_index >= 0; }
};

/// One inter-block skip entry of block i: covers blocks [i-d, i-1].
template <typename Engine>
struct SkipEntry {
  uint64_t distance = 0;
  Hash32 preskipped_hash{};  ///< H(blockhash_{i-d} | ... | blockhash_{i-1})
  Multiset w;                ///< multiset sum of the covered blocks' root W
  typename Engine::ObjectDigest digest;
  Hash32 entry_hash{};       ///< H(preskipped_hash | digest_bytes)
};

template <typename Engine>
struct Block {
  BlockHeader header;
  std::vector<Object> objects;
  std::vector<Multiset> object_ws;  ///< transformed W' per object
  std::vector<typename Engine::ObjectDigest> leaf_digests;
  std::vector<Hash32> leaf_hashes;

  /// Intra-block index; empty in kNil mode. Leaves come first (aligned with
  /// `objects`), internal nodes follow; `root_index` is the tree root.
  std::vector<IndexNode<Engine>> nodes;
  int32_t root_index = -1;

  /// Union multiset of the whole block (root W; materialized in every mode).
  Multiset block_w;
  /// Digest of block_w (== root digest in intra mode).
  typename Engine::ObjectDigest block_digest;

  std::vector<SkipEntry<Engine>> skips;

  /// ADS byte size for this block: everything the miner adds beyond the raw
  /// objects (digests + index hashes + skip commitments).
  size_t AdsBytes(const Engine& engine) const;
};

/// Uniform node-hash rule (see file comment).
template <typename Engine>
Hash32 NodeHash(const Engine& engine, const Hash32& inner,
                const typename Engine::ObjectDigest& digest) {
  ByteWriter w;
  w.PutFixed(crypto::HashSpan(inner));
  engine.SerializeDigest(digest, &w);
  return crypto::Sha256Digest(ByteSpan(w.bytes().data(), w.bytes().size()));
}

/// Algorithm 2: bottom-up similarity clustering. Returns the root index and
/// appends internal nodes to `block->nodes` (leaves must already be there).
template <typename Engine>
int32_t BuildIntraIndex(const Engine& engine, Block<Engine>* block) {
  std::vector<int32_t> frontier;
  for (int32_t i = 0; i < static_cast<int32_t>(block->objects.size()); ++i) {
    frontier.push_back(i);
  }
  auto& nodes = block->nodes;
  while (frontier.size() > 1) {
    std::vector<int32_t> next_level;
    // Pair up greedily: heaviest node first, best-Jaccard partner second.
    while (frontier.size() > 1) {
      size_t li = 0;
      for (size_t k = 1; k < frontier.size(); ++k) {
        if (nodes[frontier[k]].w.TotalSize() >
            nodes[frontier[li]].w.TotalSize()) {
          li = k;
        }
      }
      int32_t nl = frontier[li];
      frontier.erase(frontier.begin() + static_cast<ptrdiff_t>(li));
      size_t ri = 0;
      double best = -1.0;
      for (size_t k = 0; k < frontier.size(); ++k) {
        double sim = nodes[nl].w.Jaccard(nodes[frontier[k]].w);
        if (sim > best) {
          best = sim;
          ri = k;
        }
      }
      int32_t nr = frontier[ri];
      frontier.erase(frontier.begin() + static_cast<ptrdiff_t>(ri));

      IndexNode<Engine> parent;
      parent.w = nodes[nl].w.UnionWith(nodes[nr].w);
      parent.digest = engine.Digest(parent.w);
      parent.left = nl;
      parent.right = nr;
      parent.hash = NodeHash(engine,
                             crypto::HashPair(nodes[nl].hash, nodes[nr].hash),
                             parent.digest);
      nodes.push_back(parent);
      next_level.push_back(static_cast<int32_t>(nodes.size()) - 1);
    }
    // Odd leftover joins the next level (paper: nodes <- newnodes + nodes).
    for (int32_t rest : frontier) next_level.push_back(rest);
    frontier = std::move(next_level);
  }
  return frontier.empty() ? -1 : frontier[0];
}

template <typename Engine>
size_t Block<Engine>::AdsBytes(const Engine& engine) const {
  size_t bytes = leaf_digests.size() * engine.DigestByteSize();
  if (root_index >= 0) {
    size_t internal = nodes.size() - objects.size();
    bytes += internal * (engine.DigestByteSize() + sizeof(Hash32));
  }
  for (const SkipEntry<Engine>& s : skips) {
    (void)s;
    bytes += engine.DigestByteSize() + 2 * sizeof(Hash32);
  }
  return bytes;
}

}  // namespace vchain::core

#endif  // VCHAIN_CORE_BLOCK_H_
