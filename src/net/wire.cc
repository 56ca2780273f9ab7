#include "net/wire.h"

#include "common/serde.h"
#include "net/json.h"

namespace vchain::net {

namespace {

/// Require member `key` of `obj` with kind `kind`; InvalidArgument otherwise.
Result<const JsonValue*> Member(const JsonValue& obj, const std::string& key,
                                JsonValue::Kind kind) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    return Status::InvalidArgument("wire: missing \"" + key + "\"");
  }
  if (v->kind() != kind) {
    return Status::InvalidArgument("wire: wrong type for \"" + key + "\"");
  }
  return v;
}

JsonValue QueryToJsonValue(const core::Query& q) {
  JsonValue obj = JsonValue::Object();
  JsonValue window = JsonValue::Array();
  window.mutable_items()->push_back(JsonValue::Number(q.time_start));
  window.mutable_items()->push_back(JsonValue::Number(q.time_end));
  obj.Set("window", std::move(window));
  JsonValue ranges = JsonValue::Array();
  for (const core::RangePredicate& r : q.ranges) {
    JsonValue range = JsonValue::Object();
    range.Set("dim", JsonValue::Number(r.dim));
    range.Set("lo", JsonValue::Number(r.lo));
    range.Set("hi", JsonValue::Number(r.hi));
    ranges.mutable_items()->push_back(std::move(range));
  }
  obj.Set("ranges", std::move(ranges));
  JsonValue cnf = JsonValue::Array();
  for (const auto& clause : q.keyword_cnf) {
    JsonValue or_clause = JsonValue::Array();
    for (const std::string& kw : clause) {
      or_clause.mutable_items()->push_back(JsonValue::Str(kw));
    }
    cnf.mutable_items()->push_back(std::move(or_clause));
  }
  obj.Set("cnf", std::move(cnf));
  return obj;
}

Result<core::Query> QueryFromJsonValue(const JsonValue& obj) {
  if (!obj.is_object()) {
    return Status::InvalidArgument("wire: query must be a JSON object");
  }
  core::Query q;

  auto window = Member(obj, "window", JsonValue::Kind::kArray);
  if (!window.ok()) return window.status();
  const auto& w = window.value()->items();
  if (w.size() != 2 || !w[0].is_number() || !w[1].is_number()) {
    return Status::InvalidArgument("wire: \"window\" must be [ts, te]");
  }
  q.time_start = w[0].as_number();
  q.time_end = w[1].as_number();

  auto ranges = Member(obj, "ranges", JsonValue::Kind::kArray);
  if (!ranges.ok()) return ranges.status();
  if (ranges.value()->items().size() > kMaxWireRanges) {
    return Status::InvalidArgument("wire: too many ranges");
  }
  for (const JsonValue& rv : ranges.value()->items()) {
    if (!rv.is_object()) {
      return Status::InvalidArgument("wire: range must be an object");
    }
    auto dim = Member(rv, "dim", JsonValue::Kind::kNumber);
    auto lo = Member(rv, "lo", JsonValue::Kind::kNumber);
    auto hi = Member(rv, "hi", JsonValue::Kind::kNumber);
    if (!dim.ok()) return dim.status();
    if (!lo.ok()) return lo.status();
    if (!hi.ok()) return hi.status();
    if (dim.value()->as_number() > UINT32_MAX) {
      return Status::InvalidArgument("wire: range dim overflows u32");
    }
    q.ranges.push_back(core::RangePredicate{
        static_cast<uint32_t>(dim.value()->as_number()),
        lo.value()->as_number(), hi.value()->as_number()});
  }

  auto cnf = Member(obj, "cnf", JsonValue::Kind::kArray);
  if (!cnf.ok()) return cnf.status();
  if (cnf.value()->items().size() > kMaxWireClauses) {
    return Status::InvalidArgument("wire: too many CNF clauses");
  }
  for (const JsonValue& cv : cnf.value()->items()) {
    if (!cv.is_array()) {
      return Status::InvalidArgument("wire: CNF clause must be an array");
    }
    if (cv.items().size() > kMaxWireKeywordsPerClause) {
      return Status::InvalidArgument("wire: OR-clause too large");
    }
    std::vector<std::string> clause;
    for (const JsonValue& kw : cv.items()) {
      if (!kw.is_string()) {
        return Status::InvalidArgument("wire: keyword must be a string");
      }
      if (kw.as_string().size() > kMaxWireKeywordBytes) {
        return Status::InvalidArgument("wire: keyword too long");
      }
      clause.push_back(kw.as_string());
    }
    q.keyword_cnf.push_back(std::move(clause));
  }
  // Structural validity against the chain's schema (range bounds, known
  // dimensions, no empty OR-clause) is the server's job — it owns the
  // schema; the codec only enforces shape and size.
  return q;
}

}  // namespace

std::string QueryToJson(const core::Query& q) {
  return QueryToJsonValue(q).Dump();
}

Result<core::Query> QueryFromJson(std::string_view json) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  return QueryFromJsonValue(parsed.value());
}

std::string BatchRequestToJson(const std::vector<core::Query>& queries) {
  JsonValue obj = JsonValue::Object();
  JsonValue arr = JsonValue::Array();
  for (const core::Query& q : queries) {
    arr.mutable_items()->push_back(QueryToJsonValue(q));
  }
  obj.Set("queries", std::move(arr));
  return obj.Dump();
}

Result<std::vector<core::Query>> BatchRequestFromJson(std::string_view json) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  if (!parsed.value().is_object()) {
    return Status::InvalidArgument("wire: batch must be a JSON object");
  }
  auto queries = Member(parsed.value(), "queries", JsonValue::Kind::kArray);
  if (!queries.ok()) return queries.status();
  if (queries.value()->items().size() > kMaxWireBatchQueries) {
    return Status::InvalidArgument("wire: batch too large");
  }
  std::vector<core::Query> out;
  out.reserve(queries.value()->items().size());
  for (const JsonValue& qv : queries.value()->items()) {
    auto q = QueryFromJsonValue(qv);
    if (!q.ok()) return q.status();
    out.push_back(q.TakeValue());
  }
  return out;
}

Bytes EncodeBatchResponse(const std::vector<WireBatchItem>& items) {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(items.size()));
  for (const WireBatchItem& item : items) {
    w.PutBool(item.status.ok());
    if (item.status.ok()) {
      w.PutBytes(ByteSpan(item.response_bytes.data(),
                          item.response_bytes.size()));
    } else {
      w.PutU8(StatusCodeToWire(item.status.code()));
      w.PutString(item.status.message());
    }
  }
  return w.TakeBytes();
}

Result<std::vector<WireBatchItem>> DecodeBatchResponse(ByteSpan frame) {
  ByteReader r(frame);
  uint32_t count = 0;
  VCHAIN_RETURN_IF_ERROR(r.GetU32(&count));
  // Each item is at least the ok byte + a u32 length (or code + length).
  if (count > kMaxWireBatchQueries || count > r.Remaining()) {
    return Status::Corruption("batch frame: item count exceeds payload");
  }
  std::vector<WireBatchItem> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WireBatchItem item;
    bool ok = false;
    VCHAIN_RETURN_IF_ERROR(r.GetBool(&ok));
    if (ok) {
      VCHAIN_RETURN_IF_ERROR(r.GetBytes(&item.response_bytes));
    } else {
      uint8_t code = 0;
      VCHAIN_RETURN_IF_ERROR(r.GetU8(&code));
      auto decoded = StatusCodeFromWire(code);
      if (!decoded.ok()) return decoded.status();
      std::string msg;
      VCHAIN_RETURN_IF_ERROR(r.GetString(&msg, /*max_len=*/1u << 16));
      switch (decoded.value()) {
        case Status::Code::kInvalidArgument:
          item.status = Status::InvalidArgument(std::move(msg));
          break;
        case Status::Code::kNotFound:
          item.status = Status::NotFound(std::move(msg));
          break;
        case Status::Code::kCorruption:
          item.status = Status::Corruption(std::move(msg));
          break;
        case Status::Code::kVerifyFailed:
          item.status = Status::VerifyFailed(std::move(msg));
          break;
        case Status::Code::kNotSupported:
          item.status = Status::NotSupported(std::move(msg));
          break;
        default:
          item.status = Status::Internal(std::move(msg));
          break;
      }
    }
    out.push_back(std::move(item));
  }
  if (r.Remaining() != 0) {
    return Status::Corruption("batch frame: trailing bytes");
  }
  return out;
}

Bytes EncodeHeaderPage(const std::vector<chain::BlockHeader>& headers) {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(headers.size()));
  for (const chain::BlockHeader& h : headers) h.Serialize(&w);
  return w.TakeBytes();
}

Result<std::vector<chain::BlockHeader>> DecodeHeaderPage(ByteSpan frame) {
  ByteReader r(frame);
  uint32_t count = 0;
  VCHAIN_RETURN_IF_ERROR(r.GetU32(&count));
  if (count > kMaxWireHeadersPerPage ||
      static_cast<size_t>(count) * chain::BlockHeader::kSerializedSize >
          r.Remaining()) {
    return Status::Corruption("header page: count exceeds payload");
  }
  std::vector<chain::BlockHeader> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    chain::BlockHeader h;
    VCHAIN_RETURN_IF_ERROR(chain::BlockHeader::Deserialize(&r, &h));
    out.push_back(h);
  }
  if (r.Remaining() != 0) {
    return Status::Corruption("header page: trailing bytes");
  }
  return out;
}

std::string SubscribeRequestToJson(const core::Query& q) {
  JsonValue obj = JsonValue::Object();
  obj.Set("query", QueryToJsonValue(q));
  return obj.Dump();
}

Result<core::Query> SubscribeRequestFromJson(std::string_view json) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  if (!parsed.value().is_object()) {
    return Status::InvalidArgument("wire: subscribe must be a JSON object");
  }
  auto query = Member(parsed.value(), "query", JsonValue::Kind::kObject);
  if (!query.ok()) return query.status();
  return QueryFromJsonValue(*query.value());
}

std::string SubscribeResponseToJson(const WireSubscription& sub) {
  JsonValue obj = JsonValue::Object();
  obj.Set("id", JsonValue::Number(sub.id));
  obj.Set("cursor", JsonValue::Number(sub.cursor));
  return obj.Dump();
}

Result<WireSubscription> SubscribeResponseFromJson(std::string_view json) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  if (!parsed.value().is_object()) {
    return Status::InvalidArgument(
        "wire: subscribe response must be a JSON object");
  }
  auto id = Member(parsed.value(), "id", JsonValue::Kind::kNumber);
  if (!id.ok()) return id.status();
  if (id.value()->as_number() > UINT32_MAX) {
    return Status::InvalidArgument("wire: subscription id overflows u32");
  }
  auto cursor = Member(parsed.value(), "cursor", JsonValue::Kind::kNumber);
  if (!cursor.ok()) return cursor.status();
  WireSubscription out;
  out.id = static_cast<uint32_t>(id.value()->as_number());
  out.cursor = cursor.value()->as_number();
  return out;
}

std::string UnsubscribeRequestToJson(uint32_t id) {
  JsonValue obj = JsonValue::Object();
  obj.Set("id", JsonValue::Number(id));
  return obj.Dump();
}

Result<uint32_t> UnsubscribeRequestFromJson(std::string_view json) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  if (!parsed.value().is_object()) {
    return Status::InvalidArgument("wire: unsubscribe must be a JSON object");
  }
  auto id = Member(parsed.value(), "id", JsonValue::Kind::kNumber);
  if (!id.ok()) return id.status();
  if (id.value()->as_number() > UINT32_MAX) {
    return Status::InvalidArgument("wire: subscription id overflows u32");
  }
  return static_cast<uint32_t>(id.value()->as_number());
}

Bytes EncodeEventFrame(const api::SubscriptionEventBatch& batch) {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(batch.events.size()));
  w.PutU64(batch.next_cursor);
  w.PutU8(batch.redelivered ? 1 : 0);
  for (const api::SubscriptionEvent& ev : batch.events) {
    w.PutBytes(ByteSpan(ev.notification_bytes.data(),
                        ev.notification_bytes.size()));
  }
  return w.TakeBytes();
}

Result<api::SubscriptionEventBatch> DecodeEventFrame(ByteSpan frame) {
  ByteReader r(frame);
  uint32_t count = 0;
  VCHAIN_RETURN_IF_ERROR(r.GetU32(&count));
  api::SubscriptionEventBatch batch;
  VCHAIN_RETURN_IF_ERROR(r.GetU64(&batch.next_cursor));
  uint8_t redelivered = 0;
  VCHAIN_RETURN_IF_ERROR(r.GetU8(&redelivered));
  if (redelivered > 1) {
    return Status::Corruption("event frame: bad redelivered flag");
  }
  batch.redelivered = redelivered != 0;
  // Each event is at least a u32 length prefix.
  if (count > kMaxWireEventsPerFrame || count * 4ull > r.Remaining()) {
    return Status::Corruption("event frame: count exceeds payload");
  }
  batch.events.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    api::SubscriptionEvent ev;
    VCHAIN_RETURN_IF_ERROR(r.GetBytes(&ev.notification_bytes));
    // query_id / height / objects are re-derived from the canonical bytes
    // by Service::DecodeNotification — never trusted from framing.
    batch.events.push_back(std::move(ev));
  }
  if (r.Remaining() != 0) {
    return Status::Corruption("event frame: trailing bytes");
  }
  return batch;
}

namespace {
constexpr char kB64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
}  // namespace

std::string Base64Encode(ByteSpan bytes) {
  std::string out;
  out.reserve((bytes.size() + 2) / 3 * 4);
  size_t i = 0;
  for (; i + 3 <= bytes.size(); i += 3) {
    uint32_t v = (static_cast<uint32_t>(bytes[i]) << 16) |
                 (static_cast<uint32_t>(bytes[i + 1]) << 8) |
                 static_cast<uint32_t>(bytes[i + 2]);
    out.push_back(kB64Alphabet[(v >> 18) & 0x3f]);
    out.push_back(kB64Alphabet[(v >> 12) & 0x3f]);
    out.push_back(kB64Alphabet[(v >> 6) & 0x3f]);
    out.push_back(kB64Alphabet[v & 0x3f]);
  }
  const size_t rest = bytes.size() - i;
  if (rest == 1) {
    uint32_t v = static_cast<uint32_t>(bytes[i]) << 16;
    out.push_back(kB64Alphabet[(v >> 18) & 0x3f]);
    out.push_back(kB64Alphabet[(v >> 12) & 0x3f]);
    out.append("==");
  } else if (rest == 2) {
    uint32_t v = (static_cast<uint32_t>(bytes[i]) << 16) |
                 (static_cast<uint32_t>(bytes[i + 1]) << 8);
    out.push_back(kB64Alphabet[(v >> 18) & 0x3f]);
    out.push_back(kB64Alphabet[(v >> 12) & 0x3f]);
    out.push_back(kB64Alphabet[(v >> 6) & 0x3f]);
    out.push_back('=');
  }
  return out;
}

Result<Bytes> Base64Decode(std::string_view text) {
  if (text.size() % 4 != 0) {
    return Status::Corruption("base64: length not a multiple of 4");
  }
  auto value_of = [](char c) -> int {
    if (c >= 'A' && c <= 'Z') return c - 'A';
    if (c >= 'a' && c <= 'z') return c - 'a' + 26;
    if (c >= '0' && c <= '9') return c - '0' + 52;
    if (c == '+') return 62;
    if (c == '/') return 63;
    return -1;
  };
  Bytes out;
  out.reserve(text.size() / 4 * 3);
  for (size_t i = 0; i < text.size(); i += 4) {
    const bool last = i + 4 == text.size();
    int pad = 0;
    uint32_t v = 0;
    for (size_t j = 0; j < 4; ++j) {
      const char c = text[i + j];
      if (c == '=') {
        // Padding is only legal as the final one or two characters.
        if (!last || j < 2 || (j == 2 && text[i + 3] != '=')) {
          return Status::Corruption("base64: misplaced padding");
        }
        ++pad;
        v <<= 6;
        continue;
      }
      const int d = value_of(c);
      if (d < 0) return Status::Corruption("base64: invalid character");
      v = (v << 6) | static_cast<uint32_t>(d);
    }
    out.push_back(static_cast<uint8_t>((v >> 16) & 0xff));
    if (pad < 2) out.push_back(static_cast<uint8_t>((v >> 8) & 0xff));
    if (pad < 1) out.push_back(static_cast<uint8_t>(v & 0xff));
  }
  return out;
}

std::string StatsToJson(const api::ServiceStats& stats) {
  JsonValue obj = JsonValue::Object();
  obj.Set("engine", JsonValue::Str(api::EngineKindName(stats.engine)));
  obj.Set("durable", JsonValue::Bool(stats.durable));
  obj.Set("degraded", JsonValue::Bool(stats.degraded));
  obj.Set("num_blocks", JsonValue::Number(stats.num_blocks));
  obj.Set("queries_served", JsonValue::Number(stats.queries_served));
  obj.Set("subscriptions_active", JsonValue::Number(stats.subscriptions_active));
  obj.Set("subscription_events_pending",
          JsonValue::Number(stats.subscription_events_pending));
  obj.Set("sub_checkpoint_seq", JsonValue::Number(stats.sub_checkpoint_seq));
  auto lru = [](const LruStats& s) {
    JsonValue v = JsonValue::Object();
    v.Set("hits", JsonValue::Number(s.hits));
    v.Set("misses", JsonValue::Number(s.misses));
    v.Set("evictions", JsonValue::Number(s.evictions));
    return v;
  };
  obj.Set("proof_cache", lru(stats.proof_cache));
  obj.Set("block_cache", lru(stats.block_cache));
  obj.Set("canary_verified", JsonValue::Number(stats.canary_verified));
  obj.Set("canary_failed", JsonValue::Number(stats.canary_failed));
  obj.Set("canary_skipped", JsonValue::Number(stats.canary_skipped));
  obj.Set("trace_ring_occupancy",
          JsonValue::Number(stats.trace_ring_occupancy));
  obj.Set("flight_recorder_seq",
          JsonValue::Number(stats.flight_recorder_seq));
  return obj.Dump();
}

Result<api::ServiceStats> StatsFromJson(std::string_view json) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& obj = parsed.value();
  if (!obj.is_object()) {
    return Status::InvalidArgument("wire: stats must be a JSON object");
  }
  api::ServiceStats stats;
  auto engine = Member(obj, "engine", JsonValue::Kind::kString);
  if (!engine.ok()) return engine.status();
  if (!api::EngineKindFromName(engine.value()->as_string(), &stats.engine)) {
    return Status::InvalidArgument("wire: unknown engine name");
  }
  auto u64 = [&obj](const std::string& key, uint64_t* out) -> Status {
    auto v = Member(obj, key, JsonValue::Kind::kNumber);
    if (!v.ok()) return v.status();
    *out = v.value()->as_number();
    return Status::OK();
  };
  auto durable = Member(obj, "durable", JsonValue::Kind::kBool);
  if (!durable.ok()) return durable.status();
  stats.durable = durable.value()->as_bool();
  // Optional for wire compatibility with pre-degraded-mode servers.
  auto degraded = Member(obj, "degraded", JsonValue::Kind::kBool);
  if (degraded.ok()) stats.degraded = degraded.value()->as_bool();
  VCHAIN_RETURN_IF_ERROR(u64("num_blocks", &stats.num_blocks));
  VCHAIN_RETURN_IF_ERROR(u64("queries_served", &stats.queries_served));
  VCHAIN_RETURN_IF_ERROR(
      u64("subscriptions_active", &stats.subscriptions_active));
  VCHAIN_RETURN_IF_ERROR(u64("subscription_events_pending",
                             &stats.subscription_events_pending));
  auto ckpt_seq = Member(obj, "sub_checkpoint_seq", JsonValue::Kind::kNumber);
  if (ckpt_seq.ok()) stats.sub_checkpoint_seq = ckpt_seq.value()->as_number();
  auto lru = [&obj](const std::string& key, LruStats* out) -> Status {
    auto v = Member(obj, key, JsonValue::Kind::kObject);
    if (!v.ok()) return v.status();
    auto field = [&v](const std::string& k, uint64_t* dst) -> Status {
      auto f = Member(*v.value(), k, JsonValue::Kind::kNumber);
      if (!f.ok()) return f.status();
      *dst = f.value()->as_number();
      return Status::OK();
    };
    VCHAIN_RETURN_IF_ERROR(field("hits", &out->hits));
    VCHAIN_RETURN_IF_ERROR(field("misses", &out->misses));
    VCHAIN_RETURN_IF_ERROR(field("evictions", &out->evictions));
    return Status::OK();
  };
  VCHAIN_RETURN_IF_ERROR(lru("proof_cache", &stats.proof_cache));
  VCHAIN_RETURN_IF_ERROR(lru("block_cache", &stats.block_cache));
  // Optional for wire compatibility with pre-introspection-plane servers.
  auto opt_u64 = [&obj](const std::string& key, uint64_t* out) {
    auto v = Member(obj, key, JsonValue::Kind::kNumber);
    if (v.ok()) *out = v.value()->as_number();
  };
  opt_u64("canary_verified", &stats.canary_verified);
  opt_u64("canary_failed", &stats.canary_failed);
  opt_u64("canary_skipped", &stats.canary_skipped);
  opt_u64("trace_ring_occupancy", &stats.trace_ring_occupancy);
  opt_u64("flight_recorder_seq", &stats.flight_recorder_seq);
  return stats;
}

uint8_t StatusCodeToWire(Status::Code code) {
  return static_cast<uint8_t>(code);
}

Result<Status::Code> StatusCodeFromWire(uint8_t wire) {
  if (wire > static_cast<uint8_t>(Status::Code::kUnavailable) ||
      wire == static_cast<uint8_t>(Status::Code::kOk)) {
    return Status::Corruption("unknown wire status code");
  }
  return static_cast<Status::Code>(wire);
}

int HttpStatusFor(const Status& st) {
  if (st.ok()) return 200;
  if (st.IsInvalidArgument()) return 400;
  if (st.IsNotFound()) return 404;
  if (st.IsUnavailable()) return 503;
  return 500;
}

}  // namespace vchain::net
