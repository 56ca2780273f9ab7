// The engine-erasure seam under api::Service.
//
// Service is the public, engine-agnostic shell; IServiceBackend is the
// virtual interface it forwards to; ServiceBackend<Engine>
// (api/backend_impl.h) is the one implementation, instantiated for each
// EngineKind by Service::Open. Virtual-dispatch cost is irrelevant here —
// one call per query against milliseconds of proving — and in exchange the
// engine choice (and with it every template parameter in the stack) becomes
// a runtime value.
//
// Thread-safety contract: Query / Stats / NumBlocks / SyncLightClient /
// Verify* are safe from any thread, concurrently; Append / Subscribe /
// Unsubscribe / EventsSince / Sync are safe from any thread but
// serialize against queries (implementations hold a shared_mutex — queries
// shared, mutations exclusive).

#ifndef VCHAIN_API_BACKEND_H_
#define VCHAIN_API_BACKEND_H_

#include <vector>

#include "api/service.h"
#include "core/query_trace.h"

namespace vchain::api {

class IServiceBackend {
 public:
  virtual ~IServiceBackend() = default;

  virtual Status Append(std::vector<chain::Object> objects,
                        uint64_t timestamp) = 0;
  virtual Status Sync() = 0;
  virtual Status Health() const = 0;

  /// `trace` (optional) receives the span tree, serialize span included;
  /// tracing never changes the response bytes.
  virtual Result<QueryResult> Query(const core::Query& q,
                                    core::QueryTrace* trace) = 0;

  virtual Status SyncLightClient(chain::LightClient* client) const = 0;
  virtual Result<std::vector<chain::BlockHeader>> Headers(
      uint64_t from, uint64_t to) const = 0;
  virtual Result<QueryResult> DecodeResult(
      const Bytes& response_bytes) const = 0;
  virtual Status Verify(const core::Query& q, const QueryResult& result,
                        const chain::LightClient& client) const = 0;
  virtual Status VerifyNotification(const core::Query& q,
                                    const SubscriptionEvent& ev,
                                    const chain::LightClient& client) const = 0;

  virtual Result<uint32_t> Subscribe(const core::Query& q) = 0;
  virtual Status Unsubscribe(uint32_t id) = 0;
  virtual Result<SubscriptionEventBatch> EventsSince(uint32_t id,
                                                     uint64_t cursor,
                                                     size_t max_events) = 0;
  virtual Result<SubscriptionEvent> DecodeNotification(
      const Bytes& notification_bytes) const = 0;

  virtual ServiceStats Stats() const = 0;
  virtual uint64_t NumBlocks() const = 0;
  virtual const ServiceOptions& options() const = 0;
};

}  // namespace vchain::api

#endif  // VCHAIN_API_BACKEND_H_
