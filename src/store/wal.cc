#include "src/store/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

namespace asbestos {

namespace {

uint32_t ReadU32Le(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));  // the simulator only targets little-endian hosts
  return v;
}

void AppendU32Le(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(buf));
}

Status WriteAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      return Status::kBadState;
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return Status::kOk;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  // Slicing-by-8: table k maps a byte to its CRC contribution k bytes
  // further along, so one step folds eight bytes with eight lookups.
  static const auto tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
    return t;
  }();
  // Words are assembled from bytes, so the result is the same on any host.
  const auto word_le = [](const uint8_t* p) {
    return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24;
  };
  const auto* p = reinterpret_cast<const uint8_t*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ word_le(p);
    const uint32_t hi = word_le(p + 4);
    crc = tables[7][lo & 0xFF] ^ tables[6][(lo >> 8) & 0xFF] ^ tables[5][(lo >> 16) & 0xFF] ^
          tables[4][lo >> 24] ^ tables[3][hi & 0xFF] ^ tables[2][(hi >> 8) & 0xFF] ^
          tables[1][(hi >> 16) & 0xFF] ^ tables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = tables[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void AppendCrcFrame(std::string_view payload, std::string* out) {
  AppendU32Le(static_cast<uint32_t>(payload.size()), out);
  AppendU32Le(Crc32(payload), out);
  out->append(payload.data(), payload.size());
}

FrameView ReadCrcFrame(std::string_view bytes, size_t pos) {
  FrameView f;
  if (bytes.size() - pos < kFrameHeaderBytes) {
    return f;  // torn header
  }
  const uint32_t len = ReadU32Le(bytes.data() + pos);
  const uint32_t crc = ReadU32Le(bytes.data() + pos + 4);
  f.bytes = kFrameHeaderBytes + static_cast<uint64_t>(len);
  if (bytes.size() - pos - kFrameHeaderBytes < len) {
    return f;  // torn payload
  }
  const std::string_view payload = bytes.substr(pos + kFrameHeaderBytes, len);
  if (Crc32(payload) != crc) {
    f.status = FrameRead::kCorrupt;
    return f;
  }
  f.status = FrameRead::kFrame;
  f.payload = payload;
  return f;
}

Wal::~Wal() { Close(); }

void Wal::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Wal::Open(const std::string& path,
                 const std::function<void(std::string_view)>& on_record) {
  if (fd_ >= 0) {
    return Status::kBadState;
  }
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    return Status::kNotFound;
  }
  path_ = path;
  dirty_ = false;
  generation_ = 0;
  recovered_records_ = 0;
  dropped_tail_bytes_ = 0;
  appended_records_ = 0;

  // Read the whole log; WALs are bounded by compaction, so this stays small.
  std::string contents;
  {
    char buf[1 << 16];
    ssize_t n;
    while ((n = ::read(fd_, buf, sizeof(buf))) > 0) {
      contents.append(buf, static_cast<size_t>(n));
    }
    if (n < 0) {
      Close();
      return Status::kBadState;
    }
  }

  // Replay the valid prefix: stop at a clean EOF, a torn frame, or a
  // corrupt one (dropping it and everything after).
  size_t pos = 0;
  for (FrameView f = ReadCrcFrame(contents, pos); f.status == FrameRead::kFrame;
       f = ReadCrcFrame(contents, pos)) {
    on_record(f.payload);
    ++recovered_records_;
    pos += f.bytes;
  }

  dropped_tail_bytes_ = contents.size() - pos;
  if (dropped_tail_bytes_ > 0 && ::ftruncate(fd_, static_cast<off_t>(pos)) != 0) {
    Close();
    return Status::kBadState;
  }
  if (::lseek(fd_, static_cast<off_t>(pos), SEEK_SET) < 0) {
    Close();
    return Status::kBadState;
  }
  size_bytes_ = pos;
  return Status::kOk;
}

Status Wal::Append(std::string_view record) {
  if (fd_ < 0) {
    return Status::kBadState;
  }
  if (record.size() > UINT32_MAX) {
    return Status::kInvalidArgs;
  }
  std::string frame;
  frame.reserve(kFrameHeaderBytes + record.size());
  AppendCrcFrame(record, &frame);
  const Status s = WriteAll(fd_, frame.data(), frame.size());
  if (!IsOk(s)) {
    // A partial write must not stay in the file: recovery stops at the first
    // torn frame, so leaving these bytes would silently discard every record
    // appended (and acknowledged) after the failure. Restore the last good
    // frame boundary.
    (void)::ftruncate(fd_, static_cast<off_t>(size_bytes_));
    (void)::lseek(fd_, static_cast<off_t>(size_bytes_), SEEK_SET);
    return s;
  }
  size_bytes_ += frame.size();
  ++appended_records_;
  dirty_ = true;
  return Status::kOk;
}

Status Wal::Sync() {
  const Status s = SyncDataOnly();
  if (!IsOk(s)) {
    return s;
  }
  dirty_ = false;
  return Status::kOk;
}

Status Wal::SyncDataOnly() const {
  if (fd_ < 0) {
    return Status::kBadState;
  }
  // fdatasync, not fsync: it flushes the data and every piece of metadata
  // needed to retrieve it (including the file size appends grow), skipping
  // only timestamps — which recovery never reads. On journaling filesystems
  // that regularly saves a journal commit per flush.
  return ::fdatasync(fd_) == 0 ? Status::kOk : Status::kBadState;
}

Status Wal::Reset() {
  if (fd_ < 0) {
    return Status::kBadState;
  }
  if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0) {
    return Status::kBadState;
  }
  size_bytes_ = 0;
  appended_records_ = 0;
  // Every (old generation, offset) pair now names discarded bytes; cursors
  // held by replication sources must notice and fall back to a snapshot.
  ++generation_;
  return Sync();
}

Status Wal::ReadAt(uint64_t offset, uint64_t max_bytes, std::string* out) const {
  out->clear();
  if (fd_ < 0) {
    return Status::kBadState;
  }
  if (offset >= size_bytes_ || max_bytes == 0) {
    return Status::kOk;  // at (or past) the tail: nothing to read
  }
  const uint64_t want = std::min(max_bytes, size_bytes_ - offset);
  out->resize(want);
  uint64_t got = 0;
  while (got < want) {
    const ssize_t n = ::pread(fd_, out->data() + got, want - got,
                              static_cast<off_t>(offset + got));
    if (n < 0) {
      out->clear();
      return Status::kBadState;
    }
    if (n == 0) {
      break;  // raced a truncate; return what is there
    }
    got += static_cast<uint64_t>(n);
  }
  out->resize(got);
  return Status::kOk;
}

}  // namespace asbestos
