// Umbrella header: the vChain public API.
//
// First contact: vchain::Service (src/api/service.h) — the SP's front door.
// One object owns the whole stack (miner write-through, durable block store,
// shared proof cache, subscriptions) behind a *runtime*
// engine choice, serves queries from any number of threads, and returns the
// library-wide Status taxonomy (see examples/quickstart.cpp):
//
//   vchain::ServiceOptions opts;
//   opts.engine = vchain::EngineKind::kAcc2;        // runtime, not template
//   opts.config.schema = {/*dims=*/1, /*bits=*/10};
//   opts.store_dir = "/var/lib/vchain";             // "" = in-memory chain
//   auto svc = vchain::Service::Open(opts).TakeValue();
//
//   svc->Append(objects, timestamp);                // miner side
//   auto result = svc->Query(vchain::QueryBuilder() // any thread
//                                .Window(ts, te)
//                                .Range(0, 200, 250)
//                                .AllOf({"Sedan"})
//                                .AnyOf({"Benz", "BMW"})
//                                .Build());
//
//   chain::LightClient light;                       // user side
//   svc->SyncLightClient(&light);
//   Status ok = svc->Verify(q, result.value(), light);
//
// Query/QueryBatch/Stats are safe from any number of threads concurrently
// (shared mutex-striped ProofCache, shared decoded-block cache with
// per-query handles); Append/Subscribe serialize against them. Concurrent
// execution is bit-identical to serial — interleaving can never change a
// digest, proof, or VO byte. Malformed queries (inverted or out-of-domain
// range, unknown dimension, empty OR-clause) are rejected with
// Status::InvalidArgument by every entry point (core::ValidateQuery).
//
// The typed, engine-templated layer underneath stays public for callers
// that need compile-time engines, custom block sources, or the lazy
// subscription scheme:
//
//   auto oracle  = accum::KeyOracle::Create(seed);
//   accum::Acc2Engine engine(oracle);
//   core::ChainBuilder<accum::Acc2Engine> miner(engine, config);
//   miner.AppendBlock(objects, timestamp);          // miner builds the ADS
//   store::VectorBlockSource<accum::Acc2Engine> source(&miner.blocks());
//   core::QueryProcessor<accum::Acc2Engine> sp(engine, config, &source);
//   auto resp = sp.TimeWindowQuery(q);              // SP: <R, VO>
//   core::Verifier<accum::Acc2Engine> verifier(engine, config, &light);
//   Status ok2 = verifier.VerifyTimeWindow(q, resp.value());
//
// Durable storage (store/ subsystem): Service manages a BlockStore itself
// when `store_dir` is set; typed-layer code can do the same wiring by hand —
// `BlockStore::Open` + `ChainBuilder::AttachStore` (O(1) write-through,
// `SetRetainWindow` bounds miner RAM; Service always keeps only the
// skip-construction tail) or `ResumeFromStore` after a restart,
// then serve through `ConcurrentStoreBlockSource::MakeHandle()` (one shared
// LRU, one handle per reader). Cold start re-syncs a `LightClient` straight
// from the store's resident headers — no re-mining; window lookups read the
// same headers (chain/window.h).
//
// Subscription queries live in sub/subscription.h; Service exposes the
// realtime scheme (Subscribe/EventsSince/VerifyNotification),
// while the lazy scheme (§7.2, Algorithm 5) remains typed-layer via
// SubscriptionManager::ProcessBlockLazy.
//
// Remote deployments (src/net/): `net::SpServer` publishes a Service over
// a dependency-free HTTP/1.1 wire protocol and `net::SpClient` is the
// light user's side — JSON queries out, canonical VO bytes back, headers
// synced and re-validated locally, nothing trusted past the socket (see
// examples/vchain_spd.cpp and examples/sp_query.cpp, or `README.md`).
//
// Concurrency has no knobs. Service's shared disjointness-proof cache is
// striped over a fixed 16 independently-locked LRU partitions. Every proof
// is computed inline on the query thread; acc2's honest prover derives its
// cross-term key powers on the process-wide `ThreadPool::Shared()`
// (`KeyOracle::G1Powers`), and QueryBatch fans queries out on the same
// pool; multi-scalar multiplications stay serial. All parallel paths are
// bit-identical to their serial counterparts.
//
// Cache sizing (SP-local, never consensus): the disjointness-proof cache is
// LRU-bounded at a constant `ProofCache::kDefaultCapacity` (64Ki proofs),
// shared by a Service's queries and its subscription drain; the one knob,
// `ChainConfig::block_cache_blocks`, sizes the store-backed decoded-block
// cache.

#ifndef VCHAIN_CORE_VCHAIN_H_
#define VCHAIN_CORE_VCHAIN_H_

#include "accum/acc1.h"
#include "accum/acc2.h"
#include "accum/engine.h"
#include "accum/keys.h"
#include "accum/mock.h"
#include "api/query_builder.h"
#include "api/service.h"
#include "chain/light_client.h"
#include "core/block.h"
#include "core/chain_builder.h"
#include "core/processor.h"
#include "core/query.h"
#include "core/verifier.h"
#include "core/vo.h"
#include "net/sp_client.h"
#include "net/sp_server.h"
#include "store/block_serde.h"
#include "store/block_source.h"
#include "store/block_store.h"
#include "store/concurrent_block_source.h"
#include "store/segment_log.h"

#endif  // VCHAIN_CORE_VCHAIN_H_
