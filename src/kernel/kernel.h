// The Asbestos kernel simulator.
//
// Owns the vnode table (handles and ports), the process table, and the
// scheduler, and implements the system calls of paper Figure 4:
//
//   send(p, data, C_S, D_S, V, D_R):
//     ES = PS ⊔ C_S
//     (1) ES ⊑ (QR ⊔ D_R) ⊓ V ⊓ pR          [checked at delivery time]
//     (2) D_S(h) < 3  ⇒ PS(h) = ⋆           [checked at send time]
//     (3) D_R(h) > ⋆  ⇒ PS(h) = ⋆           [checked at send time]
//     (4) D_R ⊑ pR                           [checked at delivery time]
//     QS ← (QS ⊓ D_S) ⊔ (ES ⊓ QS⋆);  QR ← QR ⊔ D_R
//
//   new_port(L):  pR ← L; pR(p) ← 0; PS(p) ← ⋆
//   set_port_label(p, L):  pR ← L            [receive rights required]
//
// Messaging is unreliable: send never reports label failures; undeliverable
// messages are silently dropped (observable only through KernelStats, which
// stands in for the debugging facilities a real kernel would not expose).
#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/result.h"
#include "src/base/status.h"
#include "src/crypto/feistel61.h"
#include "src/kernel/memstats.h"
#include "src/kernel/message.h"
#include "src/kernel/process.h"
#include "src/labels/label.h"

namespace asbestos {

class Kernel;

// Arguments for creating a process. Boot-time creation (Kernel::CreateProcess)
// applies these labels verbatim; runtime spawn (ProcessContext::Spawn)
// verifies that the parent is entitled to grant them.
struct SpawnArgs {
  std::string name;
  Component component = Component::kOther;
  Label send_label = Label::DefaultSend();
  Label recv_label = Label::DefaultReceive();
  std::map<std::string, uint64_t> env;
};

// Observable outcomes; a real Asbestos kernel would not expose drop counts
// (that is the point of unreliable messaging), but tests and benches need
// them.
struct KernelStats {
  uint64_t sends = 0;
  uint64_t deliveries = 0;
  uint64_t drops_no_port = 0;       // unknown handle / not a port / dead port
  uint64_t drops_privilege = 0;     // requirement (2) or (3) failed at send
  uint64_t drops_dr_port = 0;       // requirement (4) failed at delivery
  uint64_t drops_label_check = 0;   // requirement (1) failed at delivery
  uint64_t eps_created = 0;
  uint64_t eps_destroyed = 0;
  uint64_t processes_created = 0;
  uint64_t cow_pages_copied = 0;
  uint64_t shared_regions_created = 0;
  uint64_t shared_writes_dropped = 0;  // writes above the region label
};

// Point-in-time memory breakdown for Figure-6 style reporting.
struct KernelMemReport {
  uint64_t vnode_bytes = 0;         // ports, at the paper's 64-byte vnode
  uint64_t process_bytes = 0;
  uint64_t ep_bytes = 0;
  uint64_t label_bytes = 0;        // real live label heap (src/labels)
  // Hash-consing (src/labels/intern.h): modeled index overhead of the intern
  // table (counted in total_bytes — durability of dedup is not free), and the
  // cumulative label heap dedup avoided allocating (informational; NOT in
  // total_bytes, since those bytes were never live).
  uint64_t label_intern_index_bytes = 0;
  uint64_t label_dedup_saved_bytes = 0;
  uint64_t page_bytes = 0;         // real live simulated pages
  uint64_t overlay_slot_bytes = 0;
  // Queued message envelopes + inline words + payload buffers. Payload
  // buffers are refcounted (src/kernel/payload.h): a buffer queued on K
  // ports at once contributes its bytes exactly once, so fan-out of one
  // body no longer multiplies queue memory.
  uint64_t queue_bytes = 0;
  uint64_t queue_arena_bytes = 0;  // per-active-EP message queue arenas
  uint64_t modeled_heap_bytes = 0;
  // Durable-store in-memory index (src/store): keys, values, per-record
  // overhead. Label heap inside stored records is already in label_bytes.
  // Like label_bytes and page_bytes, this reads a process-global counter:
  // exact for the usual one-kernel-at-a-time simulations, attributed to
  // every live kernel if several coexist in one process.
  uint64_t store_bytes = 0;
  // --- Million-compartment scale fields --------------------------------------
  // Compact parked-session records held by workers in place of full event
  // processes (src/okws/worker.h). Zero unless session parking is on.
  uint64_t session_bytes = 0;
  // The interned flat per-user binding tables of idd/dbproxy
  // (src/db/binding_table.h), real bytes; and plain non-port handles
  // charged as dense handle-table slots (kHandleTableEntryBytes each), not
  // as vnodes.
  uint64_t binding_bytes = 0;
  uint64_t handle_table_bytes = 0;

  uint64_t total_bytes() const {
    return vnode_bytes + process_bytes + ep_bytes + label_bytes + label_intern_index_bytes +
           page_bytes + overlay_slot_bytes + queue_bytes + queue_arena_bytes +
           modeled_heap_bytes + store_bytes + session_bytes + binding_bytes +
           handle_table_bytes;
  }
  double total_pages() const { return static_cast<double>(total_bytes()) / kPageSize; }
};

// The system-call surface available to process code. Bound to the identity
// (process, event process) of the code the kernel is currently running.
class ProcessContext {
 public:
  // --- Identity and environment -------------------------------------------
  ProcessId pid() const;
  EpId ep_id() const;  // kBaseContext when running as the base process
  // True when this delivery caused the creation of a fresh event process.
  // (The faithful way to detect newness is the paper's zeroed-memory idiom;
  // this accessor exists for tests and simple services.)
  bool in_new_ep() const;
  const std::string& name() const;
  bool HasEnv(const std::string& key) const;
  uint64_t GetEnv(const std::string& key) const;  // 0 when missing

  // --- Labels ---------------------------------------------------------------
  const Label& send_label() const;
  const Label& recv_label() const;
  // Creates a fresh compartment handle; sets PS(h) = ⋆ for the caller.
  Handle NewHandle();
  // Creates a port with label L (then pR(p) ← 0) and grants receive rights
  // and PS(p) = ⋆ to the caller.
  Handle NewPort(const Label& port_label);
  Status SetPortLabel(Handle port, const Label& label);
  Result<Label> GetPortLabel(Handle port) const;  // receive rights required
  // Moves receive rights to another process's base context.
  Status TransferPort(Handle port, ProcessId new_owner);
  // Dissociates the port: pending and future messages are dropped.
  Status ClosePort(Handle port);

  Status Send(Handle port, Message msg, const SendArgs& args = SendArgs());

  // Self label operations. Raising a send level (self-contamination) is
  // free; lowering one requires ⋆ on the handle (or is the special
  // drop-own-⋆ case, which is always permitted for the caller itself).
  Status SetSendLevel(Handle h, Level level);
  // Lowering a receive level (more restrictive) is free; raising one
  // requires ⋆ on the handle.
  Status SetReceiveLevel(Handle h, Level level);
  // QS ← QS ⊔ (add ⊓ QS⋆): arbitrary self-contamination, preserving ⋆.
  void SelfContaminate(const Label& add);

  // --- Processes --------------------------------------------------------------
  Result<ProcessId> Spawn(std::unique_ptr<ProcessCode> code, SpawnArgs args);
  void Exit();  // whole process, even when called from an event process (§6.1)

  // --- Event processes ---------------------------------------------------------
  // First ep_checkpoint: the base process never runs again; every subsequent
  // delivery runs in an event process.
  void EnterEventRealm();
  // Reverts private pages fully inside [addr, addr+len) to base contents.
  Status EpClean(uint64_t addr, uint64_t len);
  // Frees this event process (takes effect when the handler returns).
  void EpExit();

  // --- Memory -------------------------------------------------------------------
  uint64_t AllocPages(uint64_t n);
  void FreePages(uint64_t addr, uint64_t n);
  void ReadMem(uint64_t addr, void* out, uint64_t n) const;
  void WriteMem(uint64_t addr, const void* data, uint64_t n);

  // --- Shared memory between event processes (§6.1 future work) ---------------
  // Publishes a snapshot of [addr, addr + n_pages pages) from this event
  // process's view as a region named by a fresh unguessable handle and
  // carrying `region_label`. Requires an event-process context and this EP's
  // send label ⊑ region_label: readers will be contaminated with exactly the
  // region label, so it must dominate the data's taint.
  Result<Handle> ShareRegion(uint64_t addr, uint64_t n_pages, const Label& region_label);
  // Maps the region at `at_addr` in this event process. Requires
  // region_label ⊑ this EP's receive label, and contaminates this EP's send
  // label with the region label (reading shared memory is receiving).
  Status MapSharedRegion(Handle region, uint64_t at_addr);
  Status UnmapSharedRegion(Handle region);
  // Writes through a mapping are checked at write time: if this EP's send
  // label has risen above the region label, the write vanishes silently
  // (the memory analogue of unreliable send; see KernelStats).
  // Declares user-heap growth/shrinkage for memory accounting (used where
  // the simulator does not model a user heap at byte granularity).
  void ModelHeapBytes(int64_t delta);

  // --- Accounting ------------------------------------------------------------------
  void ChargeCycles(uint64_t cycles);  // to the process's component

  // --- Tracing ----------------------------------------------------------------------
  // Flow-trace id of the message currently being handled (0 when running
  // outside a delivery, e.g. OnIdle or WithProcessContext). Sends with an
  // unset trace id inherit it automatically; processes only read it to
  // stamp state that must outlive the handler (connection tables, in-flight
  // request records).
  uint64_t current_trace_id() const;

 private:
  friend class Kernel;
  ProcessContext(Kernel* kernel, Process* proc, EventProcess* ep, bool new_ep)
      : kernel_(kernel), proc_(proc), ep_(ep), new_ep_(new_ep) {}

  Kernel* kernel_;
  Process* proc_;
  EventProcess* ep_;  // nullptr in base context
  bool new_ep_;
};

class Kernel {
 public:
  explicit Kernel(uint64_t boot_key);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // Boot-time process creation: labels applied verbatim, Start() runs
  // immediately. The moral equivalent of the boot loader.
  ProcessId CreateProcess(std::unique_ptr<ProcessCode> code, SpawnArgs args);

  // Runs one scheduler tick: picks the next runnable process and pumps one
  // batch (up to the batch limit) of deliverable messages from its next
  // pending port. Returns false when the system is idle.
  bool Step();
  void RunUntilIdle();

  // Batch size B for the delivery pump: after a successful delivery, the
  // pump keeps draining the same port — up to B messages per pass — but
  // only when the unbatched scheduler's next action would provably be that
  // same port, charging the same per-delivery scheduler tick it would have.
  // So B changes locality (and wall-clock speed), never the modeled
  // figures: delivery order, charged cycles, and OnIdle cadence are
  // bit-identical for every value of B.
  static constexpr uint32_t kPumpBatchLimit = 16;
  // Test hook: the equivalence test replays one trace at B = 1 (no
  // batching) against kPumpBatchLimit.
  void SetPumpBatchLimitForTest(uint32_t limit) { pump_batch_limit_ = limit == 0 ? 1 : limit; }

  // Runs fn with a context bound to the given process's *base* identity, in
  // its component scope. Used by external drivers (e.g. the simulated NIC
  // poking netd); not a primitive a confined process could invoke.
  void WithProcessContext(ProcessId pid, const std::function<void(ProcessContext&)>& fn);

  // Boot-loader facility (like WithProcessContext, not reachable from
  // confined code): marks a handle value recovered from durable storage as
  // consumed, so NewHandle/NewPort can never re-issue it this boot. Must be
  // called before any process could observe the colliding mint; the natural
  // place is right after reading a store, before creating processes.
  void ReserveRecoveredHandle(Handle h);

  // Prefix for this kernel's registry gauge names (kernel.stats.*,
  // kernel.mem.*). Default empty — the usual one-kernel worlds keep the
  // documented names. Multi-kernel worlds (a ReplicationFleet's followers)
  // set distinct prefixes like "replica1." so K snapshots don't clobber
  // each other (the metrics.h "later registration wins" wart).
  void SetMetricsPrefix(const std::string& prefix) { metrics_prefix_ = prefix; }
  const std::string& metrics_prefix() const { return metrics_prefix_; }

  // Declares how many distinct users the current workload holds, feeding
  // the kernel.mem.bytes_per_user gauge (total_bytes / users; 0 when unset).
  // Purely observational — scale harnesses set it, tests may ignore it.
  void SetScaleUserCount(uint64_t users) { scale_user_count_ = users; }
  uint64_t scale_user_count() const { return scale_user_count_; }

  // --- Introspection (tests and benches) ------------------------------------
  const KernelStats& stats() const { return stats_; }
  KernelMemReport MemReport() const;
  uint64_t peak_total_bytes() const { return peak_total_bytes_; }
  void ResetPeakTotalBytes();
  uint64_t now_cycles() const;

  Process* FindProcess(ProcessId pid);
  Process* FindProcessByName(const std::string& name);
  // Labels of the (process, ep) context; null ep_id means base.
  const Label& SendLabelOf(ProcessId pid, EpId ep = kBaseContext);
  const Label& RecvLabelOf(ProcessId pid, EpId ep = kBaseContext);
  bool PortAlive(Handle port) const;
  size_t QueuedMessageCount(Handle port) const;
  uint64_t live_vnode_count() const { return vnodes_.size() + plain_handles_.size(); }

 private:
  friend class ProcessContext;

  // A queued message is immutable, so what delivery needs of it that the
  // message itself determines (its payload bytes) is recomputed there.
  struct QueuedMessage {
    Message msg;
    Label effective_send;    // ES, snapshotted at send time
    Label decont_send;       // D_S
    Label decont_receive;    // D_R
    // Nonzero when this message was its payload buffer's only holder at
    // send: nothing else can alias the buffer while it is queued, so its
    // bytes are recorded here rather than refcounted in queued_buf_refs_.
    uint64_t sole_buffer_bytes = 0;
    // Sender process name, set only while the event log is enabled (the
    // paper's kernel does not tell receivers who sent; this exists solely
    // so taint edges can point at their source).
    std::unique_ptr<std::string> sender;
  };
  // 128 bytes, so a 512-byte std::deque node holds four envelopes. The
  // model charges kQueuedMessageOverheadBytes, not this host size.
  static_assert(sizeof(QueuedMessage) == 128, "four queue envelopes per deque node");

  // Vnode: one per active handle. Ports keep their label, receive-rights
  // owner, and message queue here (the paper packs all of this in 64 bytes;
  // we charge that figure and account labels/queues separately).
  struct Vnode {
    Handle handle;
    bool is_port = false;
    bool port_alive = false;
    Label port_label;
    ProcessId owner = kNoProcess;
    EpId owner_ep = kBaseContext;
    std::deque<QueuedMessage> queue;
  };

  // --- Syscall dispatch table ------------------------------------------------
  // Every system call a bound context issues is routed through one table
  // (ctOS-style syscall_dispatch): the dispatcher charges the entry's fixed
  // base cycles in one place and bumps a per-syscall counter, then jumps to
  // the body. Variable costs (per-byte, per-label-entry) stay in the bodies.
  enum class Sys : uint8_t {
    kNewHandle = 0,
    kNewPort,
    kSetPortLabel,
    kSend,
    kSetSendLevel,
    kSetReceiveLevel,
    kSpawn,
    kCount,
  };
  static constexpr size_t kNumSyscalls = static_cast<size_t>(Sys::kCount);

  // Uniform argument/result frame. Only the fields a given syscall reads
  // are populated; outs default to the failure-neutral values.
  struct SyscallFrame {
    Handle handle;                               // port / compartment handle
    Level level = Level::kL1;                    // set_*_level
    const Label* label = nullptr;                // port label / set_port_label
    Message* msg = nullptr;                      // send (moved from)
    const SendArgs* send_args = nullptr;         // send
    std::unique_ptr<ProcessCode>* code = nullptr;  // spawn (moved from)
    SpawnArgs* spawn_args = nullptr;             // spawn (moved from)
    // Outs.
    Status status = Status::kOk;
    Handle out_handle;
    ProcessId out_pid = kNoProcess;
  };

  using SyscallFn = void (Kernel::*)(Process&, EventProcess*, SyscallFrame&);
  struct SyscallEntry {
    const char* name;      // metrics suffix: kernel.sys.<name>
    uint64_t base_cycles;  // fixed cost charged to kKernelIpc by Dispatch
    SyscallFn fn;
  };
  static const std::array<SyscallEntry, kNumSyscalls>& SyscallTable();

  // The single entry point: charges base cycles, counts, dispatches.
  void Dispatch(Sys sys, Process& proc, EventProcess* ep, SyscallFrame& frame);

  // --- Syscall bodies (reached only through Dispatch) ------------------------
  void SysNewHandle(Process& proc, EventProcess* ep, SyscallFrame& f);
  void SysNewPort(Process& proc, EventProcess* ep, SyscallFrame& f);
  void SysSetPortLabel(Process& proc, EventProcess* ep, SyscallFrame& f);
  void SysSend(Process& proc, EventProcess* ep, SyscallFrame& f);
  void SysSetSendLevel(Process& proc, EventProcess* ep, SyscallFrame& f);
  void SysSetReceiveLevel(Process& proc, EventProcess* ep, SyscallFrame& f);
  void SysSpawn(Process& parent, EventProcess* ep, SyscallFrame& f);

  Label& ContextSendLabel(Process& proc, EventProcess* ep);
  Label& ContextRecvLabel(Process& proc, EventProcess* ep);

  Vnode* FindVnode(Handle h);
  const Vnode* FindVnode(Handle h) const;
  Vnode* FindLivePort(Handle h);
  bool ContextOwnsPort(const Process& proc, const EventProcess* ep, const Vnode& v) const;

  // Shared context setup/teardown for base-identity dispatch
  // (WithProcessContext and the end-of-pump OnIdle hooks).
  void RunInBaseContext(Process& proc, const std::function<void(ProcessContext&)>& fn);

  void EnqueuePendingPort(Process& owner, Handle port);
  void ScheduleProcess(Process& proc);
  // Pumps one batch of deliveries from `port`: delivers the head message,
  // then keeps draining the same port (up to pump_batch_limit_) while the
  // unbatched scheduler's next action would provably be this port again —
  // mirroring its state transitions and scheduler-tick charges exactly.
  // Returns true if at least one handler ran.
  bool DeliverFromPort(Vnode& port);
  // Queue accounting for an enqueued/dequeued message: envelope + inline
  // words always; the payload buffer once per unique buffer (a K-way
  // fan-out of one Payload adds its bytes to queue_bytes exactly once).
  void AddQueueAccounting(QueuedMessage& qm);
  void SubQueueAccounting(const QueuedMessage& qm);
  void DestroyEventProcess(Process& proc, EpId ep_id);
  void DestroyProcess(Process& proc);
  void DissociatePort(Vnode& v);
  void ReleaseQueueArenaIfIdle(Process& proc, EventProcess& ep);

  void UpdatePeak();
  // Charges label-algebra work performed since `baseline` to kernel IPC.
  void ChargeLabelWorkSince(const LabelWorkStats& baseline);

  HandleSequence handles_;
  // Ports and other stateful handles get a full Vnode; plain compartment
  // handles (NewHandle) carry no queue, owner, or port label, so they live
  // in a dense append-only value table instead — at a million users the
  // 2-3 plain handles per user would otherwise each pay a hash-map node.
  // Plain handles are never destroyed (matching the map's old behavior:
  // nothing ever erased them), so the table needs no free list.
  std::unordered_map<uint64_t, Vnode> vnodes_;
  std::vector<uint64_t> plain_handles_;
  std::map<ProcessId, std::unique_ptr<Process>> processes_;
  ProcessId next_pid_ = 1;
  std::deque<ProcessId> run_queue_;
  // Processes whose code declared an idle hook (ProcessCode::HasOnIdle);
  // RunUntilIdle dispatches OnIdle to exactly these, so worlds without
  // durable stores pay nothing per pump iteration.
  std::vector<ProcessId> idle_hook_pids_;

  KernelStats stats_;
  KernelMemCounters mem_;
  // Refcounts of shared payload buffers currently sitting in message queues:
  // buffer id → (queued references, buffer bytes). queue_bytes charges a
  // buffer's bytes while the count is nonzero — shared fan-out counts once.
  // Sole-owner and empty buffers never enter the map.
  std::unordered_map<const void*, std::pair<uint64_t, uint64_t>> queued_buf_refs_;
  uint32_t pump_batch_limit_ = kPumpBatchLimit;
  uint64_t peak_total_bytes_ = 0;
  uint64_t scale_user_count_ = 0;  // see SetScaleUserCount
  // Trace id of the delivery being handled right now (see
  // ProcessContext::current_trace_id). Saved/restored around nested
  // deliveries so re-entrant pumps don't bleed ids across requests.
  uint64_t current_trace_id_ = 0;
  // Metrics gauge group exposing stats_ and MemReport() while this kernel
  // is alive (unregistered in the destructor).
  uint64_t obs_gauge_group_ = 0;
  // See SetMetricsPrefix. Read at snapshot time by the gauge group.
  std::string metrics_prefix_;
};

}  // namespace asbestos

#endif  // SRC_KERNEL_KERNEL_H_
