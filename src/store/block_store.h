// Durable block store: a directory of append-only segment logs plus an
// in-memory height -> (segment, offset) index.
//
// The store is engine-agnostic: each record is the block's canonical
// 104-byte header followed by an opaque, engine-encoded body (see
// store/block_serde.h for the typed encoding and
// store/concurrent_block_source.h for the typed read path with its LRU
// cache). Keeping the header first means
// the store can authenticate itself at open time — height sequence,
// prev-hash linkage, timestamp monotonicity — without knowing the
// accumulator engine, and can serve cold-start needs (window lookups,
// light-client re-sync) from headers alone.
//
// Layout:   <dir>/seg-000000.log, <dir>/seg-000001.log, ...
// A segment rolls over once it exceeds `Options::segment_target_bytes`, so
// individual files stay mmap/rsync/backup friendly while the chain grows
// without bound. Only the *last* segment may carry a torn tail after a
// crash; `Open` truncates it and re-verifies the surviving prefix's header
// hash chain. A torn or corrupt record in an earlier segment is reported as
// Corruption — that is bit rot or tampering, not a crash artifact.
//
// Memory: the store keeps all headers (104 B/block) and the offset index
// (16 B/block) resident — ~120 MB per million blocks — while block bodies
// (objects, multisets, digests; the RAM hog) stay on disk until a
// BlockSource pulls them through its cache.

#ifndef VCHAIN_STORE_BLOCK_STORE_H_
#define VCHAIN_STORE_BLOCK_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chain/header.h"
#include "chain/light_client.h"
#include "store/segment_log.h"

namespace vchain::store {

class BlockStore {
 public:
  struct Options {
    /// Roll to a new segment file once the current one exceeds this.
    uint64_t segment_target_bytes = 64ull << 20;
    /// fsync after every append (crash-durable per block). Off, durability
    /// is batched: call `Sync()` at commit points (still torn-tail safe —
    /// an unsynced crash loses a suffix, never the middle).
    bool sync_every_append = false;
    /// All file and directory I/O goes through this seam. nullptr ->
    /// Env::Default() (production posix). Tests swap in a
    /// FaultInjectionEnv; the pointer must outlive the store.
    Env* env = nullptr;
  };

  struct RecoveryStats {
    size_t blocks = 0;
    size_t segments = 0;
    uint64_t truncated_bytes = 0;  ///< torn bytes dropped from the tail
  };

  /// Open (or create) the store rooted at directory `dir`: recover segments,
  /// truncate any torn tail, and verify the surviving header hash chain.
  static Result<std::unique_ptr<BlockStore>> Open(const std::string& dir,
                                                  Options options,
                                                  RecoveryStats* stats = nullptr);
  static Result<std::unique_ptr<BlockStore>> Open(const std::string& dir) {
    return Open(dir, Options{});
  }

  /// Append block `header` + engine-encoded `body` at the next height.
  /// O(1): one framed write (plus an fsync under `sync_every_append`).
  /// After a failed append the store refuses further writes (the on-disk
  /// state is ambiguous) — reads stay valid; reopen the store to resume
  /// appending through its recovery path.
  Status Append(const chain::BlockHeader& header, ByteSpan body);

  /// Read and CRC-check the full record (104-byte header || engine-encoded
  /// body) of `height`. Callers decode the body at offset
  /// `BlockHeader::kSerializedSize` (see store/block_serde.h) — the header
  /// prefix is not stripped, so no byte of the body is ever re-copied.
  Result<Bytes> ReadRecord(uint64_t height) const;

  /// fsync the active segment (earlier segments are synced when rolled) and
  /// advance the on-disk commit watermark. The watermark is what lets the
  /// next Open distinguish bit rot in fsync'd data (Corruption) from
  /// unsynced-crash writeback artifacts (recovered by truncation).
  Status Sync();

  uint64_t NumBlocks() const { return headers_.size(); }
  bool Empty() const { return headers_.empty(); }
  const std::vector<chain::BlockHeader>& headers() const { return headers_; }
  const chain::BlockHeader& HeaderAt(uint64_t height) const {
    return headers_.at(height);
  }
  const std::string& dir() const { return dir_; }
  size_t NumSegments() const { return segments_.size(); }
  /// True once a failed append/sync has put the store into write-refusal
  /// (reads stay valid; reopen to resume appending).
  bool broken() const { return broken_; }

  // --- cold start ------------------------------------------------------------

  /// Feed all persisted headers to a light client (same contract as
  /// ChainBuilder::SyncLightClient, but from disk — no re-mining).
  Status SyncLightClient(chain::LightClient* client) const {
    for (uint64_t h = client->Height(); h < headers_.size(); ++h) {
      VCHAIN_RETURN_IF_ERROR(client->SyncHeader(headers_[h]));
    }
    return Status::OK();
  }

 private:
  struct RecordRef {
    uint32_t segment = 0;
    uint64_t offset = 0;
  };

  BlockStore(std::string dir, Options options)
      : dir_(std::move(dir)), options_(options) {
    env_ = options_.env != nullptr ? options_.env : Env::Default();
  }

  static std::string SegmentPath(const std::string& dir, uint32_t index);
  Status OpenSegments(RecoveryStats* stats);
  Status RollSegment();
  /// Persist "everything up to the active segment's current end is fsync'd"
  /// (the COMMIT sidecar). Called after every successful fsync point.
  Status WriteCommitWatermark();

  /// Validate that `header` extends the current chain tip.
  Status CheckContinuity(const chain::BlockHeader& header) const;

  std::string dir_;
  Options options_;
  Env* env_ = nullptr;
  bool broken_ = false;  ///< a failed append left ambiguous on-disk state
  /// COMMIT sidecar's directory entry known durable (SyncDir'd).
  bool commit_entry_synced_ = false;
  std::vector<std::unique_ptr<SegmentLog>> segments_;
  std::vector<chain::BlockHeader> headers_;
  std::vector<RecordRef> index_;  // height -> record location
};

}  // namespace vchain::store

#endif  // VCHAIN_STORE_BLOCK_STORE_H_
