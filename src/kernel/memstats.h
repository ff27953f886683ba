// Kernel and user memory accounting (paper Sections 5.6, 6.2, 9.1).
//
// The paper reports exact kernel object sizes — a vnode is 64 bytes, an
// event process 44 bytes, a minimal process 320 bytes — and evaluates the
// whole system's memory as ~1.5 pages per cached web session. We account
// with the paper's object sizes for fixed kernel structures (a port is a
// 64-byte vnode), dense 16-byte slots for plain handles, real bytes for
// labels (src/labels tracks live label heap) and for the per-user binding
// tables, real 4 KB pages for simulated user memory, and declared bytes for
// user-space heaps the simulator does not model at byte granularity (e.g.
// ok-demux's session table).
#ifndef SRC_KERNEL_MEMSTATS_H_
#define SRC_KERNEL_MEMSTATS_H_

#include <cstdint>

namespace asbestos {

constexpr uint64_t kPageSize = 4096;

// Paper-reported kernel structure sizes.
constexpr uint64_t kVnodeBytes = 64;        // §5.6: per active handle
constexpr uint64_t kProcessKernelBytes = 320;  // §6.1: minimal process structure
constexpr uint64_t kEpKernelBytes = 44;     // §6.1: event-process kernel state
// Kernel envelope per queued message, as the model charges it. The host's
// Kernel::QueuedMessage is 128 bytes (four to a std::deque node); the
// charge does not follow the host layout.
constexpr uint64_t kQueuedMessageOverheadBytes = 64;
constexpr uint64_t kOverlayPageSlotBytes = 16;  // EP modified-page list entry
// Modeled per-entry overhead of the label intern table (src/labels/intern.h):
// hash-bucket node, chain slot, and the canonical rep's back-pointer fields.
// The reps themselves are real label heap, counted by LabelMemStats.
constexpr uint64_t kLabelInternEntryBytes = 48;
// Dense handle-table slot for a plain (non-port) handle: the 8-byte handle
// value plus a rep-id slot for any per-handle label state (deduped — the rep
// itself lives in the label heap and is counted there).
constexpr uint64_t kHandleTableEntryBytes = 16;
// Fixed header of a parked-session record (see src/okws/worker.h): the map
// node, the stashed uW value, and the two length fields. Username and
// session-blob bytes are charged on top at their real sizes.
constexpr uint64_t kParkedSessionOverheadBytes = 48;

// Parked-session accounting (src/okws/worker.cc). Process-global, like the
// label/page/store stats: exact for one-kernel worlds.
struct SessionParkStats {
  uint64_t parks = 0;         // sessions parked (cumulative)
  uint64_t resumes = 0;       // parked sessions resumed (cumulative)
  int64_t live_records = 0;   // compact records currently held by workers
  int64_t live_bytes = 0;     // their bytes (header + username + blob)
};
SessionParkStats& MutableSessionParkStats();
const SessionParkStats& GetSessionParkStats();

// Flat per-user binding tables (src/db/binding_table.h). Process-global.
struct BindingMemStats {
  int64_t live_entries = 0;  // entries across all live tables
  int64_t live_bytes = 0;    // arena + record + index bytes
};
BindingMemStats& MutableBindingMemStats();
const BindingMemStats& GetBindingMemStats();

struct KernelMemCounters {
  uint64_t vnodes = 0;         // every active handle (ports + plain)
  uint64_t plain_handles = 0;  // the non-port subset, stored densely
  uint64_t processes = 0;
  uint64_t event_processes = 0;
  // Envelope + inline words per queued message, plus each payload buffer's
  // bytes counted once per unique buffer (refcounted payloads queued on K
  // ports contribute once; see Kernel::AddQueueAccounting).
  uint64_t queued_message_bytes = 0;
  uint64_t overlay_page_slots = 0;     // EP modified-page list entries
  uint64_t ep_queue_arena_bytes = 0;   // per-active-EP message queue arenas
  uint64_t modeled_user_heap_bytes = 0;  // user heaps declared via ModelHeapBytes()
};

}  // namespace asbestos

#endif  // SRC_KERNEL_MEMSTATS_H_
