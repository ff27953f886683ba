// Refcounted immutable payload buffers for message bodies.
//
// Labels got canonical reps in PR 3; message bodies get the same treatment
// here. A Payload is a view (offset, length) into an immutable, refcounted
// byte buffer (PayloadBuf). Copying a Payload bumps a refcount; slicing one
// (substr) shares the buffer and narrows the view; only Mutable() — the
// copy-on-write escape hatch for a receiver that actually edits bytes —
// copies. So the kernel's send → enqueue → deliver → reply-forward chain
// moves pointers, not bytes, and a 1→K fan-out of one body is one buffer in
// memory no matter how many queues it sits in (the kernel's queue_bytes
// accounting counts such a buffer once; see Kernel::MemReport).
//
// Ownership/COW rules:
//   * Buffers are immutable from construction. Nothing ever writes through
//     a shared buffer; aliasing a Payload can never change what a sibling
//     holder observes.
//   * Payload(std::string&&) adopts the string's storage without copying;
//     Payload(string_view / const char*) copies once at construction.
//   * substr() is O(1) and zero-copy: the sub-view pins the WHOLE
//     underlying buffer alive (like string_view into a retained string).
//   * Mutable() unshares: if the buffer has other holders (or the view is
//     a strict sub-range), the viewed bytes are copied into a fresh
//     exclusive buffer first. This is the only copy path, counted by
//     PayloadStats::cow_copies.
//
// The simulator is single-threaded, like the rest of src/kernel; refcounts
// are plain (non-atomic would be fine, but shared_ptr keeps it simple and
// the control block is one allocation with make_shared).
#ifndef SRC_KERNEL_PAYLOAD_H_
#define SRC_KERNEL_PAYLOAD_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace asbestos {

// Process-global sharing/COW counters (mirrored into the metrics registry
// as payload.* counters by payload.cc).
struct PayloadStats {
  uint64_t buffers_created = 0;     // distinct backing buffers allocated
  uint64_t shared_copies = 0;       // Payload copies that bumped a refcount
  uint64_t bytes_shared_saved = 0;  // bytes those copies did NOT memcpy
  uint64_t cow_copies = 0;          // Mutable() calls that had to copy
  uint64_t cow_bytes_copied = 0;    // bytes materialized by those copies
};

const PayloadStats& GetPayloadStats();
void ResetPayloadStats();

class Payload {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  Payload() = default;
  // Adopts the string's storage (no byte copy for rvalues).
  Payload(std::string s);  // NOLINT(google-explicit-constructor)
  // Copies once at the construction boundary.
  Payload(std::string_view s);  // NOLINT(google-explicit-constructor)
  Payload(const char* s);       // NOLINT(google-explicit-constructor)

  Payload(const Payload& other);
  Payload(Payload&& other) noexcept;
  Payload& operator=(const Payload& other);
  Payload& operator=(Payload&& other) noexcept;
  Payload& operator=(std::string s);
  Payload& operator=(std::string_view s);
  Payload& operator=(const char* s);
  ~Payload() = default;

  // --- Read view -----------------------------------------------------------
  // len_ == kTracksBuffer marks a view that tracks its (exclusive, offset-0)
  // buffer's size — the state Mutable() leaves behind, so edits through the
  // returned string (including resizes) are immediately visible here.
  size_t size() const { return len_ == kTracksBuffer ? buf_->size() : len_; }
  bool empty() const { return size() == 0; }
  std::string_view view() const {
    return buf_ ? std::string_view(buf_->data() + off_, size()) : std::string_view();
  }
  operator std::string_view() const { return view(); }  // NOLINT
  // Materializes a std::string copy of the viewed bytes. The implicit form
  // exists so the many `std::string x = msg.data;` consumer sites keep
  // working; it is an explicit byte copy at the consumer boundary, never on
  // the kernel path.
  std::string str() const { return std::string(view()); }
  operator std::string() const { return str(); }  // NOLINT
  const char* data() const { return buf_ ? buf_->data() + off_ : nullptr; }
  char operator[](size_t i) const { return (*buf_)[off_ + i]; }

  size_t find(char c, size_t pos = 0) const { return view().find(c, pos); }
  size_t find(std::string_view s, size_t pos = 0) const { return view().find(s, pos); }

  // Zero-copy sub-view sharing the same buffer (keeps the whole underlying
  // buffer alive; use str() on the result if the parent buffer is huge and
  // the slice must outlive it by a lot).
  Payload substr(size_t pos, size_t n = npos) const;

  // --- Copy-on-write mutation ----------------------------------------------
  // Returns an exclusively-owned mutable string holding this payload's
  // bytes, copying them out of a shared buffer first if needed. Afterwards
  // the view tracks the buffer, so edits through the returned pointer —
  // including resizes — are visible via size()/view(). The pointer is
  // invalidated by the next operation on this Payload (do not hold it
  // across a copy: writes through it would reach the new sibling too).
  // Sibling Payloads sharing the old buffer are unaffected.
  std::string* Mutable();
  void clear();

  // --- Identity (for unique-buffer accounting) ------------------------------
  // Stable identity of the backing buffer; nullptr when empty. Two Payloads
  // with the same id alias the same bytes.
  const void* buffer_id() const { return buf_.get(); }
  // Real size of the backing buffer (≥ size() for sub-views): what the
  // buffer actually holds in memory, counted once per unique id.
  size_t buffer_bytes() const { return buf_ ? buf_->size() : 0; }
  // Number of Payload views currently sharing the buffer (tests/benches).
  long use_count() const { return buf_.use_count(); }

 private:
  static constexpr uint32_t kTracksBuffer = UINT32_MAX;

  Payload(std::shared_ptr<std::string> buf, uint32_t off, uint32_t len)
      : buf_(std::move(buf)), off_(off), len_(len) {}

  // The buffer is logically immutable after construction; the non-const
  // element type exists only so Mutable() can hand back exclusively-owned
  // storage without reallocating.
  std::shared_ptr<std::string> buf_;
  // 32-bit view bounds keep Message at 88 bytes (a message body is far
  // below 4 GiB; construction panics on one that is not).
  uint32_t off_ = 0;
  uint32_t len_ = 0;
};
static_assert(sizeof(Payload) == 24, "a shared_ptr and two 32-bit view bounds");

bool operator==(const Payload& a, const Payload& b);
bool operator==(const Payload& a, std::string_view b);
bool operator==(std::string_view a, const Payload& b);
bool operator==(const Payload& a, const std::string& b);
bool operator==(const std::string& a, const Payload& b);
bool operator==(const Payload& a, const char* b);
bool operator==(const char* a, const Payload& b);
inline bool operator!=(const Payload& a, const Payload& b) { return !(a == b); }
inline bool operator!=(const Payload& a, std::string_view b) { return !(a == b); }
inline bool operator!=(std::string_view a, const Payload& b) { return !(a == b); }
inline bool operator!=(const Payload& a, const std::string& b) { return !(a == b); }
inline bool operator!=(const std::string& a, const Payload& b) { return !(a == b); }
inline bool operator!=(const Payload& a, const char* b) { return !(a == b); }
inline bool operator!=(const char* a, const Payload& b) { return !(a == b); }

std::ostream& operator<<(std::ostream& os, const Payload& p);

}  // namespace asbestos

#endif  // SRC_KERNEL_PAYLOAD_H_
