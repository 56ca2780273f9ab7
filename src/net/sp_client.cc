#include "net/sp_client.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>
#include <thread>
#include <utility>

#include "net/wire.h"

namespace vchain::net {

namespace {

/// Non-200 responses carry a text/plain Status::ToString body; surface the
/// SP's own taxonomy where the mapping is unambiguous.
Status StatusFromHttp(const HttpResponse& resp) {
  std::string body = resp.body;
  while (!body.empty() && (body.back() == '\n' || body.back() == '\r')) {
    body.pop_back();
  }
  switch (resp.status) {
    case 400: return Status::InvalidArgument("sp: " + body);
    case 404: return Status::NotFound("sp: " + body);
    case 429:
    case 503:
      // The SP's back-off answers: rate limit / overload shed / degraded
      // read-only mode. Retryable by construction.
      return Status::Unavailable("sp: http " + std::to_string(resp.status) +
                                 ": " + body);
    default:
      return Status::Internal("sp: http " + std::to_string(resp.status) +
                              ": " + body);
  }
}

const std::string* FindHeader(const HttpResponse& resp, const std::string& key) {
  for (const auto& [k, v] : resp.headers) {
    if (k == key) return &v;  // client stores keys lower-cased
  }
  return nullptr;
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

int64_t SpClient::ComputeBackoffMs(const RetryPolicy& policy, int attempt,
                                   uint64_t jitter) {
  double base = static_cast<double>(policy.initial_backoff_ms);
  for (int i = 1; i < attempt; ++i) base *= RetryPolicy::kBackoffMultiplier;
  base = std::min(base, static_cast<double>(RetryPolicy::kMaxBackoffMs));
  int64_t cap = std::max<int64_t>(1, static_cast<int64_t>(base));
  // Uniform in [cap/2, cap]: enough spread to de-correlate a thundering
  // herd while still guaranteeing meaningful backoff.
  int64_t lo = cap / 2;
  return lo + static_cast<int64_t>(jitter % static_cast<uint64_t>(cap - lo + 1));
}

Result<HttpResponse> SpClient::Exchange(
    const std::string& method, const std::string& target,
    const std::string& body, const std::string& content_type, bool idempotent,
    bool retry_busy,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  const RetryPolicy& policy = options_.retry;
  const int max_attempts = std::max(1, policy.max_attempts);
  // One id per logical request, reused across retries: the server logs then
  // show each attempt of the same operation under the same correlation id.
  char request_id[17];
  snprintf(request_id, sizeof(request_id), "%016llx",
           static_cast<unsigned long long>(SplitMix64(&id_state_)));
  std::vector<std::pair<std::string, std::string>> headers;
  headers.reserve(extra_headers.size() + 1);
  headers.emplace_back("X-Request-Id", request_id);
  headers.insert(headers.end(), extra_headers.begin(), extra_headers.end());
  Status last = Status::Internal("unreachable");
  for (int attempt = 1;; ++attempt) {
    bool sent_on_wire = false;
    auto resp = http_->RoundTrip(method, target, body, content_type,
                                 &sent_on_wire, headers);
    int64_t server_wait_ms = -1;
    if (resp.ok()) {
      int code = resp.value().status;
      if (!retry_busy || (code != 429 && code != 503)) return resp;
      last = StatusFromHttp(resp.value());
      const std::string* ra = FindHeader(resp.value(), "retry-after");
      uint64_t seconds = 0;
      if (ra != nullptr && ParseDecimalU64(*ra, &seconds)) {
        seconds =
            std::min<uint64_t>(seconds, RetryPolicy::kMaxRetryAfterSeconds);
        server_wait_ms = static_cast<int64_t>(seconds) * 1000;
      }
    } else {
      last = resp.status();
      if (!idempotent && sent_on_wire) {
        // The request may have reached the peer; re-sending could
        // double-apply. (All current endpoints are idempotent reads — this
        // branch guards future mutating endpoints.)
        return last;
      }
    }
    if (attempt >= max_attempts) return last;
    int64_t wait_ms = ComputeBackoffMs(policy, attempt, SplitMix64(&jitter_state_));
    wait_ms = std::max(wait_ms, server_wait_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
  }
}

Result<std::unique_ptr<SpClient>> SpClient::Connect(Options options) {
  std::unique_ptr<SpClient> client(new SpClient());
  options.verify.store_dir.clear();  // verifier role: no chain state
  auto verifier = api::Service::Open(options.verify);
  if (!verifier.ok()) return verifier.status();
  client->verifier_ = verifier.TakeValue();
  client->http_ = std::make_unique<HttpConnection>(
      HttpConnection::Options{options.host, options.port});
  // Request ids must differ across client processes (they correlate server
  // logs), so unlike backoff jitter they are seeded from entropy.
  client->id_state_ = (static_cast<uint64_t>(std::random_device{}()) << 32) ^
                      std::random_device{}() ^ RetryPolicy::kJitterSeed;
  client->options_ = std::move(options);
  return client;
}

Result<api::QueryResult> SpClient::Query(const core::Query& q,
                                         std::string* server_trace_json) {
  std::vector<std::pair<std::string, std::string>> extra;
  if (server_trace_json != nullptr) {
    server_trace_json->clear();
    extra.emplace_back("X-Vchain-Trace", "1");
  }
  auto resp = Exchange("POST", "/query", QueryToJson(q), "application/json",
                       /*idempotent=*/true, /*retry_busy=*/true, extra);
  if (!resp.ok()) return resp.status();
  if (resp.value().status != 200) return StatusFromHttp(resp.value());
  if (server_trace_json != nullptr) {
    const std::string* t = FindHeader(resp.value(), "x-vchain-trace");
    if (t != nullptr) *server_trace_json = *t;
  }
  Bytes bytes(resp.value().body.begin(), resp.value().body.end());
  // DecodeResult re-derives objects/vo_bytes from the bytes themselves and
  // rejects trailing garbage — HTTP metadata is advisory only.
  return verifier_->DecodeResult(bytes);
}

Result<std::vector<Result<api::QueryResult>>> SpClient::QueryBatch(
    const std::vector<core::Query>& queries) {
  if (queries.size() > kMaxWireBatchQueries) {
    return Status::InvalidArgument("batch too large for one request");
  }
  auto resp = Exchange("POST", "/query_batch", BatchRequestToJson(queries),
                       "application/json");
  if (!resp.ok()) return resp.status();
  if (resp.value().status != 200) return StatusFromHttp(resp.value());
  auto items = DecodeBatchResponse(
      ByteSpan(reinterpret_cast<const uint8_t*>(resp.value().body.data()),
               resp.value().body.size()));
  if (!items.ok()) return items.status();
  if (items.value().size() != queries.size()) {
    return Status::Corruption("batch response count mismatch");
  }
  std::vector<Result<api::QueryResult>> out;
  out.reserve(items.value().size());
  for (WireBatchItem& item : items.value()) {
    if (item.status.ok()) {
      out.push_back(verifier_->DecodeResult(item.response_bytes));
    } else {
      out.push_back(Result<api::QueryResult>(std::move(item.status)));
    }
  }
  return out;
}

Status SpClient::SyncHeaders(chain::LightClient* light) {
  for (;;) {
    std::string target = "/headers?from=" + std::to_string(light->Height());
    auto resp = Exchange("GET", target, "", "text/plain");
    if (!resp.ok()) return resp.status();
    if (resp.value().status != 200) return StatusFromHttp(resp.value());
    const std::string* tip_str = FindHeader(resp.value(), "x-vchain-tip");
    if (tip_str == nullptr) {
      return Status::Corruption("headers response missing X-Vchain-Tip");
    }
    uint64_t tip = 0;
    if (!ParseDecimalU64(*tip_str, &tip)) {
      return Status::Corruption("malformed X-Vchain-Tip");
    }
    auto page = DecodeHeaderPage(
        ByteSpan(reinterpret_cast<const uint8_t*>(resp.value().body.data()),
                 resp.value().body.size()));
    if (!page.ok()) return page.status();
    if (page.value().empty()) {
      if (light->Height() < tip) {
        return Status::Corruption("sp sent an empty header page below tip");
      }
      return Status::OK();  // caught up
    }
    for (const chain::BlockHeader& h : page.value()) {
      // SyncHeader re-validates height, linkage, timestamps, and consensus;
      // a forged header stops the sync here.
      VCHAIN_RETURN_IF_ERROR(light->SyncHeader(h));
    }
    if (light->Height() >= tip) return Status::OK();
  }
}

Status SpClient::Verify(const core::Query& q, const api::QueryResult& result,
                        const chain::LightClient& light) const {
  return verifier_->Verify(q, result, light);
}

Result<SpClient::SubscriptionHandle> SpClient::Subscribe(const core::Query& q) {
  // Not idempotent: a retry of a request that reached the wire could
  // register the query twice (two ids, double billing). Transport errors
  // after send therefore surface instead of re-sending; 429/503 answers
  // mean the SP rejected it, so retrying those stays safe.
  auto resp = Exchange("POST", "/subscribe", SubscribeRequestToJson(q),
                       "application/json", /*idempotent=*/false);
  if (!resp.ok()) return resp.status();
  if (resp.value().status != 200) return StatusFromHttp(resp.value());
  auto sub = SubscribeResponseFromJson(resp.value().body);
  if (!sub.ok()) return sub.status();
  SubscriptionHandle handle;
  handle.client_ = this;
  handle.id_ = sub.value().id;
  handle.cursor_ = sub.value().cursor;
  handle.query_ = q;
  return handle;
}

Result<std::vector<api::SubscriptionEvent>>
SpClient::SubscriptionHandle::Poll(chain::LightClient* light, int wait_ms,
                                   size_t max_events) {
  return client_->PollSubscription(this, light, wait_ms, max_events);
}

Status SpClient::SubscriptionHandle::Stream(
    chain::LightClient* light,
    const std::function<bool(const api::SubscriptionEvent&)>& callback,
    int wait_ms) {
  for (;;) {
    auto events = Poll(light, wait_ms);
    if (!events.ok()) return events.status();
    for (const api::SubscriptionEvent& ev : events.value()) {
      if (!callback(ev)) return Status::OK();
    }
  }
}

Status SpClient::SubscriptionHandle::Unsubscribe() {
  auto resp = client_->Exchange("POST", "/unsubscribe",
                                UnsubscribeRequestToJson(id_),
                                "application/json");
  if (!resp.ok()) return resp.status();
  if (resp.value().status == 200) return Status::OK();
  Status st = StatusFromHttp(resp.value());
  // Already gone — the goal state. Covers a retry whose first attempt
  // landed, and an SP that dropped the id across a restart.
  if (st.IsNotFound()) return Status::OK();
  return st;
}

Result<std::vector<api::SubscriptionEvent>> SpClient::PollSubscription(
    SubscriptionHandle* handle, chain::LightClient* light, int wait_ms,
    size_t max_events) {
  max_events = std::max<size_t>(1, std::min(max_events, kMaxWireEventsPerFrame));
  std::string target = "/events?id=" + std::to_string(handle->id_) +
                       "&cursor=" + std::to_string(handle->cursor_) +
                       "&max=" + std::to_string(max_events) +
                       "&wait_ms=" + std::to_string(std::max(0, wait_ms));
  // Idempotent: the cursor only advances after a frame fully verifies, so
  // a retried poll re-reads the same window (the server redelivers).
  auto resp = Exchange("GET", target, "", "text/plain");
  if (!resp.ok()) return resp.status();
  if (resp.value().status != 200) return StatusFromHttp(resp.value());
  auto frame = DecodeEventFrame(
      ByteSpan(reinterpret_cast<const uint8_t*>(resp.value().body.data()),
               resp.value().body.size()));
  if (!frame.ok()) return frame.status();
  std::vector<api::SubscriptionEvent> out;
  out.reserve(frame.value().events.size());
  // Dedup floor: at-least-once wire delivery means a height can arrive
  // twice (reconnect, checkpoint replay); anything below the floor has
  // already been surfaced.
  uint64_t floor = handle->cursor_;
  for (const api::SubscriptionEvent& wire_ev : frame.value().events) {
    // Everything is re-derived from the canonical bytes — the frame's
    // metadata is advisory, the bytes are what gets verified.
    auto ev = verifier_->DecodeNotification(wire_ev.notification_bytes);
    if (!ev.ok()) return ev.status();
    if (ev.value().query_id != handle->id_) {
      return Status::VerifyFailed(
          "sp delivered a notification for a different subscription");
    }
    if (ev.value().height < floor) continue;
    if (light->Height() <= ev.value().height) {
      // The event claims a block the client hasn't validated yet; sync
      // forward (validated, as always) before judging the proof.
      VCHAIN_RETURN_IF_ERROR(SyncHeaders(light));
      if (light->Height() <= ev.value().height) {
        return Status::VerifyFailed(
            "sp notified for a height beyond its own header tip");
      }
    }
    VCHAIN_RETURN_IF_ERROR(
        verifier_->VerifyNotification(handle->query_, ev.value(), *light));
    floor = ev.value().height + 1;
    out.push_back(ev.TakeValue());
  }
  handle->cursor_ = std::max(frame.value().next_cursor, floor);
  return out;
}

Status SpClient::Healthz() {
  // A 503 here *is* the health answer (degraded SP) — don't spin on it.
  auto resp = Exchange("GET", "/healthz", "", "text/plain",
                       /*idempotent=*/true, /*retry_busy=*/false);
  if (!resp.ok()) return resp.status();
  if (resp.value().status != 200) return StatusFromHttp(resp.value());
  const std::string* engine = FindHeader(resp.value(), "x-vchain-engine");
  if (engine == nullptr ||
      *engine != api::EngineKindName(options_.verify.engine)) {
    return Status::VerifyFailed(
        "sp engine does not match the client's verification parameters");
  }
  return Status::OK();
}

}  // namespace vchain::net
