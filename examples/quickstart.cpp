// Quickstart: the smallest complete vChain deployment, through the
// vchain::Service front door.
//
// One Service owns the whole SP stack — miner write-through, durable block
// store, proof cache, subscriptions — behind a runtime
// engine choice. A light node that holds nothing but block headers verifies
// soundness and completeness of every answer. The service is then torn down
// and reopened from its store directory and the same query is served again,
// byte-identical — the restart path a production SP takes.
//
//   $ ./quickstart

#include <cstdio>
#include <filesystem>

#include "core/vchain.h"

using namespace vchain;

int main() {
  // 1. One options struct fixes the deployment: engine (a runtime value —
  // no templates at this layer), chain schema, store directory.
  auto store_dir =
      (std::filesystem::temp_directory_path() / "vchain_quickstart").string();
  std::filesystem::remove_all(store_dir);

  ServiceOptions opts;
  opts.engine = EngineKind::kAcc2;  // Construction 2: supports aggregation
  opts.config.mode = core::IndexMode::kBoth;  // intra-block tree + skip list
  opts.config.schema = chain::NumericSchema{/*dims=*/1, /*bits=*/10};
  opts.config.skiplist_size = 2;
  opts.oracle_seed = 7;  // trusted setup (a TTP/SGX role; §5.2.2)
  opts.store_dir = store_dir;  // "" would keep the chain in memory

  auto opened = Service::Open(opts);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Service> svc = opened.TakeValue();

  // 2. The miner packs rental offers into blocks (Example 3.2 of the paper).
  struct Offer {
    uint64_t price;
    std::vector<std::string> tags;
  };
  std::vector<std::vector<Offer>> days = {
      {{230, {"Sedan", "Benz"}}, {180, {"Van", "Toyota"}}},
      {{260, {"Sedan", "BMW"}}, {210, {"SUV", "Audi"}}},
      {{240, {"Sedan", "BMW"}}, {520, {"Van", "Benz"}}},
      {{199, {"Sedan", "Audi"}}, {245, {"Sedan", "Benz"}}},
  };
  uint64_t id = 0, ts = 1700000000;
  for (const auto& day : days) {
    std::vector<chain::Object> objects;
    for (const Offer& offer : day) {
      chain::Object o;
      o.id = id++;
      o.timestamp = ts;
      o.numeric = {offer.price};
      o.keywords = offer.tags;
      objects.push_back(std::move(o));
    }
    Status st = svc->Append(std::move(objects), ts);
    if (!st.ok()) {
      std::fprintf(stderr, "mining failed: %s\n", st.ToString().c_str());
      return 1;
    }
    ts += 86400;
  }
  if (!svc->Sync().ok()) return 1;  // durable commit point
  std::printf("mined %llu blocks (engine %s, store %s)\n",
              static_cast<unsigned long long>(svc->NumBlocks()),
              EngineKindName(svc->engine_kind()), store_dir.c_str());

  // 3. A light node syncs headers only.
  chain::LightClient light;
  if (!svc->SyncLightClient(&light).ok()) return 1;
  std::printf("light node synced %zu headers (%zu bytes each)\n",
              light.Height(), chain::LightClient::HeaderBytes());

  // 4. Query: sedans from Benz or BMW priced 200..250 over the whole window.
  // Malformed queries (inverted ranges, empty OR-clauses, unknown
  // dimensions) come back as InvalidArgument instead of silent garbage.
  core::Query q = QueryBuilder()
                      .Window(1700000000, ts)
                      .Range(/*dim=*/0, 200, 250)
                      .AllOf({"Sedan"})
                      .AnyOf({"Benz", "BMW"})
                      .Build();
  auto result = svc->Query(q);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("SP returned %zu result(s), VO = %zu bytes\n",
              result.value().objects.size(), result.value().vo_bytes);
  for (const chain::Object& o : result.value().objects) {
    std::printf("  %s\n", o.ToString().c_str());
  }

  // 5. The light node verifies soundness + completeness from headers alone.
  Status st = svc->Verify(q, result.value(), light);
  std::printf("verification: %s\n", st.ToString().c_str());

  // 6. A cheating (or corrupted) SP is caught: flip one byte of the wire
  // response and re-verify — the user either can't decode it (Corruption)
  // or catches the lie against the headers (VerifyFailed).
  QueryResult tampered = result.value();
  if (!tampered.response_bytes.empty()) {
    tampered.response_bytes[tampered.response_bytes.size() / 2] ^= 0x01;
    Status bad = svc->Verify(q, tampered, light);
    std::printf("tampered response rejected: %s\n", bad.ToString().c_str());
    if (bad.ok()) return 1;
  }

  // 7. Restart: drop the service, reopen the same directory, serve the same
  // query. No digest is recomputed; the response is byte-identical.
  Bytes first_bytes = result.value().response_bytes;
  svc.reset();
  auto reopened = Service::Open(opts);
  if (!reopened.ok()) return 1;
  svc = reopened.TakeValue();
  chain::LightClient cold_light;
  if (!svc->SyncLightClient(&cold_light).ok()) return 1;
  auto cold = svc->Query(q);
  if (!cold.ok()) return 1;
  bool identical = cold.value().response_bytes == first_bytes;
  Status cold_st = svc->Verify(q, cold.value(), cold_light);
  std::printf("reopened service served the query: %s, bytes %s first run\n",
              cold_st.ToString().c_str(),
              identical ? "identical to" : "DIFFER from");

  std::filesystem::remove_all(store_dir);
  return (st.ok() && cold_st.ok() && identical) ? 0 : 1;
}
