// Verifiable subscription queries over a car-rental chain (the paper's
// Example 3.2 and §7).
//
// Several users register standing queries such as
//   <- , [200, 250], "Sedan" AND ("Benz" OR "BMW")>
// and receive, for every newly mined block, either matching offers plus a
// proof, or verifiable evidence that nothing matched.
//
// The realtime scheme runs through the vchain::Service front door
// (Subscribe / EventsSince / VerifyNotification — queries are validated,
// events logged per block and read through each subscriber's cursor). The
// lazy scheme (§7.2, Algorithm 5) stays on the typed layer
// (SubscriptionManager + SubVerifier): a second SP mines the identical chain
// (same oracle, same offers) and aggregates silent runs of blocks into single
// proofs — showing the facade and the typed core working side by side.
//
//   $ ./car_rental_subscriptions

#include <algorithm>
#include <cstdio>

#include "common/rand.h"
#include "core/vchain.h"
#include "sub/sub_serde.h"
#include "sub/sub_verifier.h"

using namespace vchain;

int main() {
  auto oracle = accum::KeyOracle::Create(/*seed=*/21);

  core::ChainConfig config;
  config.mode = core::IndexMode::kBoth;
  config.schema = chain::NumericSchema{1, 10};  // daily price
  config.skiplist_size = 2;

  // Realtime SP: one Service owns miner, subscriptions, and event log.
  ServiceOptions opts;
  opts.engine = EngineKind::kAcc2;
  opts.config = config;
  opts.oracle = oracle;
  opts.prover_mode = accum::ProverMode::kTrustedFast;
  auto opened = Service::Open(opts);
  if (!opened.ok()) return 1;
  std::unique_ptr<Service>& market = opened.value();

  // Standing queries of three subscribers (validated at Subscribe — a
  // malformed one would come back InvalidArgument, not match nothing).
  core::Query q_sedan = QueryBuilder()
                            .Range(0, 200, 250)
                            .AllOf({"Sedan"})
                            .AnyOf({"Benz", "BMW"})
                            .Build();
  core::Query q_van = QueryBuilder().Range(0, 0, 150).AllOf({"Van"}).Build();
  core::Query q_lux = QueryBuilder().Range(0, 700, 1023).Build();

  // Lazy SP: typed layer, identical chain mined alongside.
  accum::Acc2Engine engine(oracle, accum::ProverMode::kTrustedFast);
  sub::SubscriptionManager<accum::Acc2Engine>::Options lazy_opts;
  lazy_opts.lazy = true;
  sub::SubscriptionManager<accum::Acc2Engine> lazy(engine, config, lazy_opts);
  core::ChainBuilder<accum::Acc2Engine> lazy_miner(engine, config);

  struct Sub {
    const char* who;
    core::Query q;
    uint32_t rt_id, lazy_id;
    uint64_t cursor = 0;  // next height to read from the realtime SP
    uint64_t owed = 0;    // next height owed by the lazy SP
  };
  std::vector<Sub> subs = {{"alice(sedan)", q_sedan, 0, 0},
                           {"bob(van)", q_van, 0, 0},
                           {"carol(lux)", q_lux, 0, 0}};
  for (Sub& s : subs) {
    auto id = market->Subscribe(s.q);
    if (!id.ok()) {
      std::fprintf(stderr, "subscribe failed: %s\n",
                   id.status().ToString().c_str());
      return 1;
    }
    s.rt_id = id.value();
    auto lazy_id = lazy.TrySubscribe(s.q);
    if (!lazy_id.ok()) return 1;
    s.lazy_id = lazy_id.value();
  }

  chain::LightClient light;
  sub::SubVerifier<accum::Acc2Engine> lazy_verifier(engine, config, &light);

  static const char* kTypes[] = {"Sedan", "Van", "SUV"};
  static const char* kMakes[] = {"Benz", "BMW", "Audi", "Toyota"};
  Rng rng(3);
  uint64_t id = 0, ts = 1700000000;
  size_t rt_bytes = 0, lazy_bytes = 0;

  for (int day = 0; day < 14; ++day) {
    std::vector<chain::Object> offers;
    for (int i = 0; i < 4; ++i) {
      chain::Object o;
      o.id = id++;
      o.timestamp = ts;
      o.numeric = {100 + rng.Below(400)};
      o.keywords = {kTypes[rng.Below(3)], kMakes[rng.Below(4)]};
      offers.push_back(std::move(o));
    }
    // The same offers feed both SPs: the Service mines + notifies in one
    // Append; the lazy SP mines on the typed layer.
    if (!market->Append(offers, ts).ok()) return 1;
    auto st = lazy_miner.AppendBlock(std::move(offers), ts);
    if (!st.ok()) return 1;
    (void)market->SyncLightClient(&light);
    const auto& block = lazy_miner.blocks().back();
    ts += 86400;

    // Realtime delivery: each subscriber reads this block's event through
    // its own cursor and verifies it against headers only.
    for (Sub& s : subs) {
      auto batch = market->EventsSince(s.rt_id, s.cursor);
      if (!batch.ok()) return 1;
      s.cursor = batch.value().next_cursor;
      for (const SubscriptionEvent& ev : batch.value().events) {
        Status ok = market->VerifyNotification(s.q, ev, light);
        rt_bytes += ev.notification_bytes.size();
        if (!ev.objects.empty()) {
          std::printf("day %2d  %-13s %zu new offer(s) [%s]\n", day, s.who,
                      ev.objects.size(), ok.ToString().c_str());
          for (const auto& o : ev.objects) {
            std::printf("         -> %s\n", o.ToString().c_str());
          }
        }
        if (!ok.ok()) return 1;
      }
    }

    // Lazy delivery: batches appear only when something matches.
    for (const auto& batch : lazy.ProcessBlockLazy(block)) {
      Sub& s = *std::find_if(subs.begin(), subs.end(), [&](const Sub& x) {
        return x.lazy_id == batch.query_id;
      });
      uint64_t next = 0;
      Status ok = lazy_verifier.VerifyLazyBatch(s.q, batch, s.owed, &next);
      lazy_bytes += sub::LazyBatchByteSize(engine, batch);
      if (!ok.ok()) {
        std::printf("lazy batch rejected for %s: %s\n", s.who,
                    ok.ToString().c_str());
        return 1;
      }
      s.owed = next;
      if (batch.has_pending) {
        std::printf("day %2d  %-13s lazy batch: blocks %llu..%llu silent, "
                    "1 aggregated proof, %zu unit(s)\n",
                    day, s.who,
                    static_cast<unsigned long long>(batch.from_height),
                    static_cast<unsigned long long>(batch.to_height),
                    batch.units.size());
      }
    }
  }

  // Period end: flush remaining silent runs and verify full coverage.
  for (const auto& batch : lazy.FlushAll()) {
    Sub& s = *std::find_if(subs.begin(), subs.end(), [&](const Sub& x) {
      return x.lazy_id == batch.query_id;
    });
    uint64_t next = 0;
    Status ok = lazy_verifier.VerifyLazyBatch(s.q, batch, s.owed, &next);
    lazy_bytes += sub::LazyBatchByteSize(engine, batch);
    if (!ok.ok()) return 1;
    s.owed = next;
  }
  for (const Sub& s : subs) {
    if (s.owed != market->NumBlocks()) {
      std::printf("%s: missing evidence for some blocks!\n", s.who);
      return 1;
    }
  }
  std::printf("\nall %llu blocks accounted for by every subscriber\n",
              static_cast<unsigned long long>(market->NumBlocks()));
  std::printf("bandwidth: realtime=%zuB lazy=%zuB (lazy aggregates silent "
              "runs)\n",
              rt_bytes, lazy_bytes);
  return 0;
}
