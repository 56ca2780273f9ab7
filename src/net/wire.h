// The SP wire protocol's message codec (framing only — transport lives in
// net/http.h, endpoint routing in net/sp_server.h).
//
// Design rule: *queries travel as JSON, proofs travel as the canonical
// binary bytes.* A query is small, human-authored, and convenient to build
// from any language, so `POST /query` takes the JSON form below. A response
// is dominated by the VO, whose canonical serialization
// (api::QueryResult::response_bytes) is already the bytes the verifier
// checks — re-encoding it would only add surface for bugs, so it crosses
// the wire verbatim as the HTTP body and the client verifies exactly what
// it received. Trust ends at the socket: nothing the server sends is
// believed until Service::Verify accepts it against light-client headers.
//
//   query JSON:   {"window": [ts, te],
//                  "ranges": [{"dim": 0, "lo": 200, "hi": 250}],
//                  "cnf": [["Sedan"], ["Benz", "BMW"]]}
//   batch JSON:   {"queries": [<query>, ...]}
//
// Batch responses and header pages are binary frames over common/serde.h
// with the same hostile-input discipline as the rest of the library: every
// length is bounds-checked against the bytes actually present, truncation
// and byte flips decode to Status::Corruption, and caps below bound what a
// malicious peer can make us allocate (tests/net/wire_codec_test.cc sweeps
// all of it).

#ifndef VCHAIN_NET_WIRE_H_
#define VCHAIN_NET_WIRE_H_

#include <string>
#include <string_view>
#include <vector>

#include "api/service.h"
#include "chain/header.h"
#include "core/query.h"

namespace vchain::net {

// --- request framing (JSON) ---------------------------------------------------

/// Hard caps on what a query request may carry. Generous for real queries,
/// small enough that a hostile body cannot force large allocations.
inline constexpr size_t kMaxWireRanges = 64;
inline constexpr size_t kMaxWireClauses = 256;
inline constexpr size_t kMaxWireKeywordsPerClause = 256;
inline constexpr size_t kMaxWireKeywordBytes = 4096;
inline constexpr size_t kMaxWireBatchQueries = 1024;

std::string QueryToJson(const core::Query& q);
Result<core::Query> QueryFromJson(std::string_view json);

std::string BatchRequestToJson(const std::vector<core::Query>& queries);
Result<std::vector<core::Query>> BatchRequestFromJson(std::string_view json);

// --- response framing (binary) ------------------------------------------------

/// One batch item: either the canonical response bytes or the per-query
/// failure status, in input order.
struct WireBatchItem {
  Status status;
  Bytes response_bytes;  ///< empty unless status.ok()
};

/// frame := count:u32 | item*  ;  item := ok:u8 | (bytes | code:u8 + msg)
Bytes EncodeBatchResponse(const std::vector<WireBatchItem>& items);
Result<std::vector<WireBatchItem>> DecodeBatchResponse(ByteSpan frame);

/// Header page: count:u32 | count × 104-byte canonical headers. `tip` rides
/// in an HTTP header (X-Vchain-Tip), not the frame.
inline constexpr size_t kMaxWireHeadersPerPage = 4096;
Bytes EncodeHeaderPage(const std::vector<chain::BlockHeader>& headers);
Result<std::vector<chain::BlockHeader>> DecodeHeaderPage(ByteSpan frame);

// --- subscriptions (JSON control, binary event frames) -------------------------
//
// Control-plane messages are JSON (small, human-authored, query inside);
// notifications cross the wire as their canonical binary bytes inside a
// length-prefixed frame — the client verifies exactly the bytes it
// received, same as query responses.
//
//   subscribe JSON:    {"query": <query>}        ->  {"id": N, "cursor": H}
//   unsubscribe JSON:  {"id": N}                 ->  {"ok": true}
//   event frame:       count:u32 | next_cursor:u64 | redelivered:u8 |
//                      count × (len:u32 | notification bytes)

/// What POST /subscribe answers: the subscription id plus the cursor (block
/// height) to start polling GET /events from.
struct WireSubscription {
  uint32_t id = 0;
  uint64_t cursor = 0;
};

std::string SubscribeRequestToJson(const core::Query& q);
Result<core::Query> SubscribeRequestFromJson(std::string_view json);
std::string SubscribeResponseToJson(const WireSubscription& sub);
Result<WireSubscription> SubscribeResponseFromJson(std::string_view json);

std::string UnsubscribeRequestToJson(uint32_t id);
Result<uint32_t> UnsubscribeRequestFromJson(std::string_view json);

/// Cap on events per GET /events frame (the server also honors a smaller
/// `max` query parameter).
inline constexpr size_t kMaxWireEventsPerFrame = 1024;

/// Encode one EventsSince batch. Only `notification_bytes` crosses the
/// wire; the decoded events carry empty query_id/height/objects and the
/// client re-derives them with Service::DecodeNotification — the bytes
/// stay canonical end to end.
Bytes EncodeEventFrame(const api::SubscriptionEventBatch& batch);
Result<api::SubscriptionEventBatch> DecodeEventFrame(ByteSpan frame);

/// Standard base64 (RFC 4648, '+'/'/' alphabet, '=' padding) — how binary
/// notification bytes ride inside text/event-stream SSE `data:` lines.
std::string Base64Encode(ByteSpan bytes);
Result<Bytes> Base64Decode(std::string_view text);

// --- status taxonomy over the wire ---------------------------------------------

uint8_t StatusCodeToWire(Status::Code code);
Result<Status::Code> StatusCodeFromWire(uint8_t wire);

/// HTTP status an endpoint answers with for a failed Service call:
/// InvalidArgument -> 400, NotFound -> 404, everything else -> 500.
int HttpStatusFor(const Status& st);

}  // namespace vchain::net

#endif  // VCHAIN_NET_WIRE_H_
