// SpClient — the light user's side of the wire protocol (§3's query user).
//
// Trust ends at the socket. The client ships a query as JSON, receives the
// canonical response bytes, and believes *nothing* about them until they
// pass Verify against block headers its own LightClient validated (hash
// linkage + consensus proof, fetched via GET /headers and re-checked
// locally). The only out-of-band inputs are the public parameters every
// vChain participant shares anyway: the accumulator's trusted setup
// (oracle/seed) and the chain config — both fixed in Options.verify, the
// same ServiceOptions the SP was opened with.
//
//   SpClient::Options opts;
//   opts.host = "sp.example.com"; opts.port = 8443;
//   opts.verify = /* same engine/config/oracle_seed as the SP */;
//   auto client = SpClient::Connect(opts).TakeValue();
//
//   chain::LightClient light = client->NewLightClient();
//   client->SyncHeaders(&light);                  // validated header sync
//   auto result = client->Query(q);               // over the wire
//   Status ok = client->Verify(q, result.value(), light);  // local check
//
// Resilience: every wire call runs under Options.retry — exponential
// backoff with jitter across transport failures and the SP's own back-off
// signals (429/503, honoring Retry-After up to a cap). Every request in
// the protocol is an idempotent read, so retries can never double-apply;
// if a mutating endpoint is ever added, route it through Exchange with
// idempotent=false and the transport's sent_on_wire signal gates the
// retry.
//
// Verification plumbing reuses the engine-erased Service in a chain-less
// "verifier role": an in-memory Service holds the engine + config and
// exposes DecodeResult/Verify/VerifyNotification — no blocks, no store.

#ifndef VCHAIN_NET_SP_CLIENT_H_
#define VCHAIN_NET_SP_CLIENT_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/service.h"
#include "chain/light_client.h"
#include "net/http.h"

namespace vchain::net {

class SpClient {
 public:
  /// Exponential backoff with jitter for transient failures. An attempt is
  /// retried on transport errors (connect/send/recv) and on the SP's 429 /
  /// 503 back-off answers; protocol errors (400/404, Corruption) never
  /// retry. Backoff for attempt k is jittered uniformly in
  /// [base/2, base] with base = initial_backoff_ms * multiplier^(k-1),
  /// capped at max_backoff_ms; a server Retry-After raises (never lowers)
  /// the wait, capped at max_retry_after_seconds.
  struct RetryPolicy {
    int max_attempts = 3;  ///< 1 = no retries
    int initial_backoff_ms = 100;
    double backoff_multiplier = 2.0;
    int max_backoff_ms = 2000;
    int max_retry_after_seconds = 5;
    uint64_t jitter_seed = 0x76636A31;  ///< deterministic by default
  };

  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    /// Public parameters for local verification: engine kind, chain config,
    /// trusted setup (oracle or oracle_seed/acc_params). `store_dir` is
    /// ignored — the verifier role never holds chain state.
    api::ServiceOptions verify;
    size_t max_response_bytes = 256u << 20;
    int recv_timeout_seconds = 60;
    int connect_timeout_seconds = 10;
    RetryPolicy retry;
  };

  /// Build the local verifier and the (lazily connected) HTTP transport.
  /// Does not touch the network — the first request does.
  static Result<std::unique_ptr<SpClient>> Connect(Options options);

  /// POST /query: returns the decoded result; response bytes are exactly
  /// what the SP sent (DecodeResult re-derives objects and VO size from
  /// them — nothing from HTTP metadata is trusted). Per-query SP failures
  /// (e.g. InvalidArgument for a malformed query) come back as the mapped
  /// Status.
  ///
  /// `server_trace_json` (optional): when non-null the request opts into
  /// server-side stage tracing (`X-Vchain-Trace: 1`) and receives the SP's
  /// per-stage breakdown JSON from the response header ("" when the SP
  /// sent none). Purely diagnostic — the response bytes, and therefore
  /// verification, are identical with tracing on or off.
  Result<api::QueryResult> Query(const core::Query& q,
                                 std::string* server_trace_json = nullptr);

  /// POST /query_batch: per-query results in input order.
  Result<std::vector<Result<api::QueryResult>>> QueryBatch(
      const std::vector<core::Query>& queries);

  /// GET /headers pages from `light->Height()` until the light client has
  /// validated every header up to the SP's tip. A header failing validation
  /// aborts with that status — a lying SP cannot advance the client.
  Status SyncHeaders(chain::LightClient* light);

  /// Local verification against validated headers (never the network).
  Status Verify(const core::Query& q, const api::QueryResult& result,
                const chain::LightClient& light) const;

  /// A standing query registered on the SP, returned by Subscribe(). The
  /// handle owns the wire cursor and the verification state: Poll/Stream
  /// verify every notification against light-client headers before
  /// surfacing it and dedup by (query_id, height), so at-least-once wire
  /// delivery (redelivery after a reconnect or a checkpoint replay) is
  /// exactly-once at the callback. Borrows the SpClient — must not outlive
  /// it; calls on one handle are not thread-safe against each other.
  class SubscriptionHandle {
   public:
    uint32_t id() const { return id_; }
    /// Next block height Poll will ask for.
    uint64_t cursor() const { return cursor_; }
    const core::Query& query() const { return query_; }

    /// One GET /events exchange: long-poll up to `wait_ms` (0 = return
    /// immediately), decode each notification from its canonical bytes,
    /// sync headers forward as needed, and verify. A notification that
    /// fails verification aborts with that status — a lying SP is an
    /// error, not an event. Returns the verified, deduplicated events
    /// (empty = nothing new) and advances the cursor.
    Result<std::vector<api::SubscriptionEvent>> Poll(
        chain::LightClient* light, int wait_ms = 0, size_t max_events = 64);

    /// Poll in a loop, invoking `callback` per verified event, until the
    /// callback returns false (clean stop, OK) or a wire/verify error.
    Status Stream(
        chain::LightClient* light,
        const std::function<bool(const api::SubscriptionEvent&)>& callback,
        int wait_ms = 1000);

    /// POST /unsubscribe. NotFound (already gone — e.g. a retried call
    /// that succeeded first time) counts as success.
    Status Unsubscribe();

   private:
    friend class SpClient;
    SpClient* client_ = nullptr;
    uint32_t id_ = 0;
    uint64_t cursor_ = 0;
    core::Query query_;  ///< what VerifyNotification checks against
  };

  /// POST /subscribe: register `q` as a standing query on the SP. The
  /// returned handle starts at the server-assigned cursor; poll it for
  /// verified notifications.
  Result<SubscriptionHandle> Subscribe(const core::Query& q);

  /// GET /healthz; OK iff the SP answers 200 with a matching engine kind.
  Status Healthz();

  /// A light client configured with the chain's consensus parameters.
  chain::LightClient NewLightClient() const {
    return chain::LightClient(options_.verify.config.pow);
  }

  const api::ServiceOptions& verify_options() const { return options_.verify; }

  /// Backoff for the retry after attempt `attempt` (1-based): jittered
  /// exponential per `policy`, using `jitter` as the randomness source.
  /// Exposed for tests.
  static int64_t ComputeBackoffMs(const RetryPolicy& policy, int attempt,
                                  uint64_t jitter);

 private:
  SpClient() = default;

  /// One wire exchange under the retry policy. `retry_busy` additionally
  /// retries the SP's 429/503 back-off answers (false where the busy
  /// signal *is* the answer, e.g. Healthz). Non-idempotent callers must
  /// pass idempotent=false: then a request that may have reached the wire
  /// is never re-sent.
  ///
  /// Every exchange carries an X-Request-Id, generated once per *logical*
  /// request and reused across its retries, so server logs show one id per
  /// user-visible operation no matter how many attempts it took.
  /// `extra_headers` are appended after it (how Query opts into tracing).
  Result<HttpResponse> Exchange(
      const std::string& method, const std::string& target,
      const std::string& body, const std::string& content_type,
      bool idempotent = true, bool retry_busy = true,
      const std::vector<std::pair<std::string, std::string>>& extra_headers =
          {});

  /// SubscriptionHandle::Poll body (the handle only carries state).
  Result<std::vector<api::SubscriptionEvent>> PollSubscription(
      SubscriptionHandle* handle, chain::LightClient* light, int wait_ms,
      size_t max_events);

  Options options_;
  std::unique_ptr<HttpConnection> http_;
  std::unique_ptr<api::Service> verifier_;  ///< chain-less verifier role
  uint64_t jitter_state_ = 0;               ///< splitmix64 walk
  uint64_t id_state_ = 0;                   ///< request-id walk (separate
                                            ///< stream: ids must not perturb
                                            ///< backoff jitter sequences)
};

}  // namespace vchain::net

#endif  // VCHAIN_NET_SP_CLIENT_H_
