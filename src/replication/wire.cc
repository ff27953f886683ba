#include "src/replication/wire.h"

#include <cstring>

#include "src/store/label_codec.h"
#include "src/store/wal.h"

namespace asbestos {
namespace replwire {

namespace {

constexpr size_t kFrameHeaderBytes = 8;  // u32 length + u32 crc (WAL framing)

uint32_t ReadU32Le(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void AppendU32Le(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(buf));
}

std::string EncodePayload(const WireMessage& msg) {
  std::string p;
  codec::AppendVarint(msg.type, &p);
  switch (msg.type) {
    case kHello:
      codec::AppendVarint(msg.token, &p);
      codec::AppendVarint(msg.source_id, &p);
      codec::AppendVarint(msg.shard_count, &p);
      codec::AppendVarint(msg.lease_until, &p);
      break;
    case kBatch:
    case kSnapshot:
      codec::AppendVarint(msg.shard, &p);
      codec::AppendVarint(msg.generation, &p);
      codec::AppendVarint(msg.offset, &p);
      codec::AppendVarint(msg.lease_until, &p);
      codec::AppendVarint(msg.successor_id, &p);
      codec::AppendString(msg.payload, &p);
      break;
    case kAck:
      codec::AppendVarint(msg.token, &p);
      codec::AppendVarint(msg.shard, &p);
      codec::AppendVarint(msg.source_id, &p);
      codec::AppendVarint(msg.generation, &p);
      codec::AppendVarint(msg.offset, &p);
      codec::AppendVarint(msg.follower_id, &p);
      break;
    case kHeartbeat:
      codec::AppendVarint(msg.lease_until, &p);
      codec::AppendVarint(msg.successor_id, &p);
      break;
    case kBusy:
      codec::AppendVarint(msg.retry_after, &p);
      break;
    case kReadReq:
      codec::AppendVarint(msg.token, &p);
      codec::AppendVarint(msg.cookie, &p);
      codec::AppendString(msg.key, &p);
      codec::AppendVarint(msg.cursor.source_id, &p);
      codec::AppendVarint(msg.cursor.shard, &p);
      codec::AppendVarint(msg.cursor.generation, &p);
      codec::AppendVarint(msg.cursor.offset, &p);
      codec::AppendLabel(msg.label, &p);
      break;
    case kReadResp:
      codec::AppendVarint(msg.cookie, &p);
      codec::AppendVarint(msg.read_status, &p);
      codec::AppendVarint(msg.staleness, &p);
      codec::AppendVarint(msg.cursor.source_id, &p);
      codec::AppendVarint(msg.cursor.shard, &p);
      codec::AppendVarint(msg.cursor.generation, &p);
      codec::AppendVarint(msg.cursor.offset, &p);
      codec::AppendLabel(msg.label, &p);
      codec::AppendString(msg.payload, &p);
      break;
    default:
      return p;  // unknown type: no body, no trailer
  }
  // Every frame type ends with the same observational trailer.
  codec::AppendVarint(msg.trace_id, &p);
  codec::AppendString(msg.prof_ctx, &p);
  return p;
}

Status DecodePayload(std::string_view p, WireMessage* msg) {
  *msg = WireMessage();
  size_t pos = 0;
  Status s = codec::ReadVarint(p, &pos, &msg->type);
  if (!IsOk(s)) {
    return s;
  }
  std::string_view bytes;
  switch (msg->type) {
    case kHello:
      if (!IsOk(s = codec::ReadVarint(p, &pos, &msg->token)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->source_id)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->shard_count)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->lease_until))) {
        return s;
      }
      break;
    case kBatch:
    case kSnapshot:
      if (!IsOk(s = codec::ReadVarint(p, &pos, &msg->shard)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->generation)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->offset)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->lease_until)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->successor_id)) ||
          !IsOk(s = codec::ReadString(p, &pos, &bytes))) {
        return s;
      }
      msg->payload = Payload(bytes);  // one copy out of the rx buffer, then shared
      break;
    case kAck:
      if (!IsOk(s = codec::ReadVarint(p, &pos, &msg->token)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->shard)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->source_id)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->generation)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->offset)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->follower_id))) {
        return s;
      }
      break;
    case kHeartbeat:
      if (!IsOk(s = codec::ReadVarint(p, &pos, &msg->lease_until)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->successor_id))) {
        return s;
      }
      break;
    case kBusy:
      if (!IsOk(s = codec::ReadVarint(p, &pos, &msg->retry_after))) {
        return s;
      }
      break;
    case kReadReq:
      if (!IsOk(s = codec::ReadVarint(p, &pos, &msg->token)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->cookie)) ||
          !IsOk(s = codec::ReadString(p, &pos, &bytes))) {
        return s;
      }
      msg->key.assign(bytes);
      if (!IsOk(s = codec::ReadVarint(p, &pos, &msg->cursor.source_id)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->cursor.shard)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->cursor.generation)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->cursor.offset)) ||
          !IsOk(s = codec::ReadLabel(p, &pos, &msg->label))) {
        return s;
      }
      break;
    case kReadResp:
      if (!IsOk(s = codec::ReadVarint(p, &pos, &msg->cookie)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->read_status)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->staleness)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->cursor.source_id)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->cursor.shard)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->cursor.generation)) ||
          !IsOk(s = codec::ReadVarint(p, &pos, &msg->cursor.offset)) ||
          !IsOk(s = codec::ReadLabel(p, &pos, &msg->label)) ||
          !IsOk(s = codec::ReadString(p, &pos, &bytes))) {
        return s;
      }
      msg->payload = Payload(bytes);  // one copy out of the rx buffer, then shared
      break;
    default:
      return Status::kInvalidArgs;  // unknown frame type: poison the session
  }
  if (!IsOk(s = codec::ReadVarint(p, &pos, &msg->trace_id)) ||
      !IsOk(s = codec::ReadString(p, &pos, &bytes))) {
    return s;
  }
  msg->prof_ctx.assign(bytes);
  return pos == p.size() ? Status::kOk : Status::kInvalidArgs;
}

}  // namespace

void AppendFrame(const WireMessage& msg, std::string* out) {
  const std::string payload = EncodePayload(msg);
  AppendU32Le(static_cast<uint32_t>(payload.size()), out);
  AppendU32Le(Crc32(payload), out);
  out->append(payload);
}

FrameParse ConsumeFrame(std::string* buffer, WireMessage* msg) {
  if (buffer->size() < kFrameHeaderBytes) {
    return FrameParse::kNeedMore;
  }
  const uint32_t len = ReadU32Le(buffer->data());
  const uint32_t crc = ReadU32Le(buffer->data() + 4);
  if (buffer->size() - kFrameHeaderBytes < len) {
    return FrameParse::kNeedMore;
  }
  const std::string_view payload(buffer->data() + kFrameHeaderBytes, len);
  if (Crc32(payload) != crc) {
    return FrameParse::kCorrupt;
  }
  if (!IsOk(DecodePayload(payload, msg))) {
    return FrameParse::kCorrupt;
  }
  buffer->erase(0, kFrameHeaderBytes + len);
  return FrameParse::kFrame;
}

uint64_t FirstWalFrameBytes(std::string_view span) {
  if (span.size() < kFrameHeaderBytes) {
    return 0;
  }
  return kFrameHeaderBytes + static_cast<uint64_t>(ReadU32Le(span.data()));
}

uint64_t WalFramePrefix(std::string_view span, uint64_t max_bytes) {
  uint64_t end = 0;
  while (span.size() - end >= kFrameHeaderBytes) {
    const uint32_t len = ReadU32Le(span.data() + end);
    const uint64_t frame = kFrameHeaderBytes + static_cast<uint64_t>(len);
    if (span.size() - end < frame || end + frame > max_bytes) {
      break;
    }
    end += frame;
  }
  return end;
}

Status ForEachWalRecord(std::string_view batch,
                        const std::function<Status(std::string_view)>& fn) {
  size_t pos = 0;
  while (pos < batch.size()) {
    if (batch.size() - pos < kFrameHeaderBytes) {
      return Status::kInvalidArgs;
    }
    const uint32_t len = ReadU32Le(batch.data() + pos);
    const uint32_t crc = ReadU32Le(batch.data() + pos + 4);
    if (batch.size() - pos - kFrameHeaderBytes < len) {
      return Status::kInvalidArgs;
    }
    const std::string_view payload(batch.data() + pos + kFrameHeaderBytes, len);
    if (Crc32(payload) != crc) {
      return Status::kInvalidArgs;
    }
    const Status s = fn(payload);
    if (!IsOk(s)) {
      return s;
    }
    pos += kFrameHeaderBytes + len;
  }
  return Status::kOk;
}

}  // namespace replwire
}  // namespace asbestos
