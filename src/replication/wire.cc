#include "src/replication/wire.h"

#include "src/store/label_codec.h"
#include "src/store/wal.h"

namespace asbestos {
namespace replwire {

namespace {

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
  if (!IsOk(s = codec::ReadVarint(p, &pos, &msg->trace_id))) {
    return s;
  }
  return pos == p.size() ? Status::kOk : Status::kInvalidArgs;
}

}  // namespace

void AppendFrame(const WireMessage& msg, std::string* out) {
  AppendCrcFrame(EncodePayload(msg), out);
}

FrameParse ParseFrame(std::string_view bytes, size_t* pos, WireMessage* msg) {
  const FrameView f = ReadCrcFrame(bytes, *pos);
  if (f.status == FrameRead::kTorn) {
    return FrameParse::kNeedMore;
  }
  if (f.status == FrameRead::kCorrupt || !IsOk(DecodePayload(f.payload, msg))) {
    return FrameParse::kCorrupt;
  }
  *pos += f.bytes;
  return FrameParse::kFrame;
}

FrameReader::FrameReader(std::string* tail, std::string_view delivery)
    : tail_(tail), bytes_(delivery), joined_(!tail->empty()) {
  if (joined_) {
    tail_->append(delivery);
    bytes_ = *tail_;
  }
}

void FrameReader::KeepTail() {
  if (!joined_) {
    tail_->assign(bytes_.substr(pos_));  // just the torn frame, if any
  } else if (pos_ == bytes_.size()) {
    std::string().swap(*tail_);  // drained: free whatever the tail grew to
  } else {
    tail_->erase(0, pos_);
  }
}

uint64_t FirstWalFrameBytes(std::string_view span) { return ReadCrcFrame(span, 0).bytes; }

uint64_t WalFramePrefix(std::string_view span, uint64_t max_bytes) {
  uint64_t end = 0;
  for (FrameView f = ReadCrcFrame(span, 0);
       f.status == FrameRead::kFrame && end + f.bytes <= max_bytes;
       f = ReadCrcFrame(span, end)) {
    end += f.bytes;
  }
  return end;
}

Status ForEachWalRecord(std::string_view batch,
                        const std::function<Status(std::string_view)>& fn) {
  for (size_t pos = 0; pos < batch.size();) {
    const FrameView f = ReadCrcFrame(batch, pos);
    if (f.status != FrameRead::kFrame) {
      return Status::kInvalidArgs;
    }
    const Status s = fn(f.payload);
    if (!IsOk(s)) {
      return s;
    }
    pos += f.bytes;
  }
  return Status::kOk;
}

}  // namespace replwire
}  // namespace asbestos
