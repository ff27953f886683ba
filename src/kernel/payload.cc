#include "src/kernel/payload.h"

#include <ostream>

#include "src/base/panic.h"
#include "src/obs/metrics.h"

namespace asbestos {

namespace {

PayloadStats g_stats;

// Registry mirrors: monotonic counters survive Reset of the local struct is
// NOT wanted here — benches diff the registry counters across a measured
// region, so they advance monotonically like every other obs::Counter.
obs::Counter& BuffersCounter() {
  static obs::Counter& c = obs::Registry::Get().counter("payload.buffers_created");
  return c;
}
obs::Counter& SharedCopiesCounter() {
  static obs::Counter& c = obs::Registry::Get().counter("payload.shared_copies");
  return c;
}
obs::Counter& SharedSavedCounter() {
  static obs::Counter& c = obs::Registry::Get().counter("payload.bytes_shared_saved");
  return c;
}
obs::Counter& CowCounter() {
  static obs::Counter& c = obs::Registry::Get().counter("payload.cow_copies");
  return c;
}
obs::Counter& CowBytesCounter() {
  static obs::Counter& c = obs::Registry::Get().counter("payload.cow_bytes_copied");
  return c;
}

std::shared_ptr<std::string> NewBuf(std::string s) {
  g_stats.buffers_created += 1;
  BuffersCounter().Add();
  return std::make_shared<std::string>(std::move(s));
}

void CountShare(size_t bytes) {
  if (bytes == 0) {
    return;
  }
  g_stats.shared_copies += 1;
  g_stats.bytes_shared_saved += bytes;
  SharedCopiesCounter().Add();
  SharedSavedCounter().Add(bytes);
}

}  // namespace

const PayloadStats& GetPayloadStats() { return g_stats; }

void ResetPayloadStats() { g_stats = PayloadStats(); }

Payload::Payload(std::string s) {
  if (!s.empty()) {
    ASB_ASSERT(s.size() < kTracksBuffer && "a payload is below 4 GiB");
    buf_ = NewBuf(std::move(s));
    len_ = static_cast<uint32_t>(buf_->size());
  }
}

Payload::Payload(std::string_view s) : Payload(std::string(s)) {}

Payload::Payload(const char* s) : Payload(std::string(s)) {}

Payload::Payload(const Payload& other)
    : buf_(other.buf_), off_(other.off_), len_(other.len_) {
  CountShare(size());
}

Payload::Payload(Payload&& other) noexcept
    : buf_(std::move(other.buf_)), off_(other.off_), len_(other.len_) {
  other.off_ = 0;
  other.len_ = 0;
}

Payload& Payload::operator=(const Payload& other) {
  if (this != &other) {
    buf_ = other.buf_;
    off_ = other.off_;
    len_ = other.len_;
    CountShare(size());
  }
  return *this;
}

Payload& Payload::operator=(Payload&& other) noexcept {
  if (this != &other) {
    buf_ = std::move(other.buf_);
    off_ = other.off_;
    len_ = other.len_;
    other.off_ = 0;
    other.len_ = 0;
  }
  return *this;
}

Payload& Payload::operator=(std::string s) {
  *this = Payload(std::move(s));
  return *this;
}

Payload& Payload::operator=(std::string_view s) {
  *this = Payload(s);
  return *this;
}

Payload& Payload::operator=(const char* s) {
  *this = Payload(s);
  return *this;
}

Payload Payload::substr(size_t pos, size_t n) const {
  const size_t my_len = size();
  if (pos >= my_len) {
    return Payload();
  }
  const size_t take = n == npos || n > my_len - pos ? my_len - pos : n;
  if (take == 0) {
    return Payload();
  }
  CountShare(take);
  return Payload(buf_, static_cast<uint32_t>(off_ + pos), static_cast<uint32_t>(take));
}

std::string* Payload::Mutable() {
  const bool exclusive_full_view =
      buf_ != nullptr && buf_.use_count() == 1 && off_ == 0 && len_ >= buf_->size();
  if (!exclusive_full_view) {
    if (buf_ != nullptr) {
      const size_t copied = size();
      g_stats.cow_copies += 1;
      g_stats.cow_bytes_copied += copied;
      CowCounter().Add();
      CowBytesCounter().Add(copied);
    }
    // No NewBuf: COW materializations are counted separately from fresh
    // buffer construction.
    auto fresh = std::make_shared<std::string>(view());
    buf_ = std::move(fresh);
    off_ = 0;
  }
  // The buffer is now exclusive at offset 0; let the view track its size so
  // the caller's edits — including resizes — show through size()/view().
  len_ = kTracksBuffer;
  return buf_.get();
}

void Payload::clear() {
  buf_.reset();
  off_ = 0;
  len_ = 0;
}

bool operator==(const Payload& a, const Payload& b) { return a.view() == b.view(); }
bool operator==(const Payload& a, std::string_view b) { return a.view() == b; }
bool operator==(std::string_view a, const Payload& b) { return a == b.view(); }
bool operator==(const Payload& a, const std::string& b) {
  return a.view() == std::string_view(b);
}
bool operator==(const std::string& a, const Payload& b) {
  return std::string_view(a) == b.view();
}
bool operator==(const Payload& a, const char* b) { return a.view() == std::string_view(b); }
bool operator==(const char* a, const Payload& b) { return std::string_view(a) == b.view(); }

std::ostream& operator<<(std::ostream& os, const Payload& p) { return os << p.view(); }

}  // namespace asbestos
