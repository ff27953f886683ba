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

#include <cstdint>
#include <vector>

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

// What a receiver sees. Handle *values* may ride in `words` or `data`, but
// values confer no authority; privilege travels only through D_S/D_R.
struct Message {
  Handle port;                  // port the message was delivered on
  uint64_t type = 0;            // protocol-defined discriminator
  std::vector<uint64_t> words;  // small scalars: handle values, counts, ids
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

inline uint64_t MessagePayloadBytes(const Message& m) {
  return m.data.size() + m.words.size() * sizeof(uint64_t);
}

}  // namespace asbestos

#endif  // SRC_KERNEL_MESSAGE_H_
