// Asbestos messages and the optional send labels (paper Sections 4-5).
//
// Messaging is asynchronous and unreliable: send() reports success even when
// the message will never be delivered, because deliverability can only be
// judged at the instant of receipt (labels change in between), and because a
// failure notification would itself be an information leak. The four
// optional labels of the send system call:
//
//   C_S  contamination    raises the effective send label (no privilege)
//   D_S  decontaminate-send   lowers the receiver's send label (needs ⋆)
//   V    verification     proves an upper bound on the sender's send label
//   D_R  decontaminate-receive  raises the receiver's receive label (needs ⋆)
#ifndef SRC_KERNEL_MESSAGE_H_
#define SRC_KERNEL_MESSAGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "src/kernel/ids.h"
#include "src/kernel/payload.h"
#include "src/labels/handle.h"
#include "src/labels/label.h"

namespace asbestos {

// Optional labels supplied to send. Defaults are the identity elements: the
// bottom label {⋆} for C_S and D_R, the top label {3} for D_S and V.
struct SendArgs {
  Label contaminate = Label::Bottom();      // C_S
  Label decont_send = Label::Top();         // D_S
  Label verify = Label::Top();              // V
  Label decont_receive = Label::Bottom();   // D_R
};

// A message's words: small scalars such as handle values, counts and ids.
// Up to two words live inline, in the 24 bytes a std::vector took, so most
// messages (a cookie, or a cookie and a status) allocate nothing for them.
// A third word moves them all to a heap array that doubles as it grows.
class MessageWords {
 public:
  MessageWords() = default;
  MessageWords(std::initializer_list<uint64_t> words) { Append(words.begin(), words.size()); }
  MessageWords(const MessageWords& other) { Append(other.begin(), other.size()); }
  MessageWords(MessageWords&& other) noexcept { Steal(other); }
  MessageWords& operator=(const MessageWords& other) {
    if (this != &other) {
      size_ = 0;
      Append(other.begin(), other.size());
    }
    return *this;
  }
  MessageWords& operator=(MessageWords&& other) noexcept {
    if (this != &other) {
      Release();
      Steal(other);
    }
    return *this;
  }
  MessageWords& operator=(std::initializer_list<uint64_t> words) {
    size_ = 0;
    Append(words.begin(), words.size());
    return *this;
  }
  ~MessageWords() { Release(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint64_t& operator[](size_t i) { return data()[i]; }
  const uint64_t& operator[](size_t i) const { return data()[i]; }
  const uint64_t* begin() const { return data(); }
  const uint64_t* end() const { return data() + size_; }

  void push_back(uint64_t word) { Append(&word, 1); }

 private:
  static constexpr uint32_t kInlineWords = 2;

  bool on_heap() const { return capacity_ > kInlineWords; }
  uint64_t* data() { return on_heap() ? store_.heap : store_.inline_words; }
  const uint64_t* data() const { return on_heap() ? store_.heap : store_.inline_words; }

  void Append(const uint64_t* words, size_t n) {
    if (size_ + n > capacity_) {
      const auto capacity = static_cast<uint32_t>(std::max<size_t>(size_ + n, 2 * capacity_));
      auto* grown = new uint64_t[capacity];
      std::copy(data(), data() + size_, grown);
      Release();
      store_.heap = grown;
      capacity_ = capacity;
    }
    std::copy(words, words + n, data() + size_);
    size_ += static_cast<uint32_t>(n);
  }
  void Release() {
    if (on_heap()) {
      delete[] store_.heap;
      capacity_ = kInlineWords;
    }
  }
  // Takes other's words, leaving it empty and inline.
  void Steal(MessageWords& other) {
    store_ = other.store_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.size_ = 0;
    other.capacity_ = kInlineWords;
  }

  union Store {
    uint64_t inline_words[kInlineWords];
    uint64_t* heap;
  } store_{};
  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineWords;
};
static_assert(sizeof(MessageWords) == 24, "the words take the std::vector's place in Message");

// What a receiver sees. Handle *values* may ride in `words` or `data`, but
// values confer no authority; privilege travels only through D_S/D_R.
struct Message {
  Handle port;                  // port the message was delivered on
  uint64_t type = 0;            // protocol-defined discriminator
  MessageWords words;           // small scalars: handle values, counts, ids
  // Payload bytes: a refcounted immutable buffer view (src/kernel/payload.h).
  // Send → enqueue → deliver → reply-forward moves a refcount, not bytes;
  // receivers that edit call data.Mutable() (copy-on-write) or data.str().
  Payload data;
  Handle reply_port;            // conventional reply destination (0 if none)
  Label verify = Label::Top();  // the sender's V label, delivered for analysis
  // Flow-trace id (src/obs/event_log.h). 0 = untraced. Minted at the system
  // edge (netd accept, replication hello); the kernel stamps unset ids from
  // the trace of the message being handled, so the id propagates through
  // reply chains without per-process plumbing. Carries no authority and no
  // information a receiver couldn't already derive from delivery itself.
  uint64_t trace_id = 0;
};

static_assert(sizeof(Message) == 88, "Kernel::QueuedMessage is sized to a Message");

inline uint64_t MessagePayloadBytes(const Message& m) {
  return m.data.size() + m.words.size() * sizeof(uint64_t);
}

}  // namespace asbestos

#endif  // SRC_KERNEL_MESSAGE_H_
