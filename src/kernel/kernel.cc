#include "src/kernel/kernel.h"

#include <algorithm>
#include <cstring>

#include "src/kernel/label_checks.h"

#include "src/base/panic.h"
#include "src/labels/intern.h"
#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/sim/costs.h"
#include "src/store/store.h"

namespace asbestos {

namespace {

// True for the identity decontaminate-send label {3}: meets with it are
// no-ops, which is the common case on the hot path.
bool IsTopLabel(const Label& l) {
  return l.default_level() == Level::kL3 && l.entry_count() == 0;
}

bool IsBottomLabel(const Label& l) {
  return l.default_level() == Level::kStar && l.entry_count() == 0;
}

// Locates the mapping containing `addr` in an event process, if any.
const MappedRegion* FindMapping(const EventProcess* ep, uint64_t addr) {
  if (ep == nullptr) {
    return nullptr;
  }
  for (const MappedRegion& m : ep->mappings) {
    if (addr >= m.base_addr && addr < m.base_addr + m.page_count * kPageSize) {
      return &m;
    }
  }
  return nullptr;
}

}  // namespace

// --- ProcessContext forwarding -------------------------------------------------

ProcessId ProcessContext::pid() const { return proc_->id; }
EpId ProcessContext::ep_id() const { return ep_ != nullptr ? ep_->id : kBaseContext; }
bool ProcessContext::in_new_ep() const { return new_ep_; }
const std::string& ProcessContext::name() const { return proc_->name; }

bool ProcessContext::HasEnv(const std::string& key) const {
  return proc_->env.count(key) != 0;
}

uint64_t ProcessContext::GetEnv(const std::string& key) const {
  auto it = proc_->env.find(key);
  return it == proc_->env.end() ? 0 : it->second;
}

const Label& ProcessContext::send_label() const {
  return ep_ != nullptr ? ep_->send_label : proc_->send_label;
}

const Label& ProcessContext::recv_label() const {
  return ep_ != nullptr ? ep_->recv_label : proc_->recv_label;
}

Handle ProcessContext::NewHandle() {
  Kernel::SyscallFrame f;
  kernel_->Dispatch(Kernel::Sys::kNewHandle, *proc_, ep_, f);
  return f.out_handle;
}

Handle ProcessContext::NewPort(const Label& port_label) {
  Kernel::SyscallFrame f;
  f.label = &port_label;
  kernel_->Dispatch(Kernel::Sys::kNewPort, *proc_, ep_, f);
  return f.out_handle;
}

Status ProcessContext::SetPortLabel(Handle port, const Label& label) {
  Kernel::SyscallFrame f;
  f.handle = port;
  f.label = &label;
  kernel_->Dispatch(Kernel::Sys::kSetPortLabel, *proc_, ep_, f);
  return f.status;
}

Result<Label> ProcessContext::GetPortLabel(Handle port) const {
  Kernel::Vnode* v = kernel_->FindLivePort(port);
  if (v == nullptr || !kernel_->ContextOwnsPort(*proc_, ep_, *v)) {
    return Status::kNotFound;
  }
  return v->port_label;
}

Status ProcessContext::TransferPort(Handle port, ProcessId new_owner) {
  Kernel::Vnode* v = kernel_->FindLivePort(port);
  if (v == nullptr || !kernel_->ContextOwnsPort(*proc_, ep_, *v)) {
    return Status::kNotFound;
  }
  Process* dest = kernel_->FindProcess(new_owner);
  if (dest == nullptr || dest->exited) {
    return Status::kNotFound;
  }
  auto& src_ports = ep_ != nullptr ? ep_->owned_ports : proc_->owned_ports;
  src_ports.erase(std::remove(src_ports.begin(), src_ports.end(), port), src_ports.end());
  v->owner = new_owner;
  v->owner_ep = kBaseContext;
  dest->owned_ports.push_back(port);
  if (!v->queue.empty()) {
    kernel_->EnqueuePendingPort(*dest, port);
  }
  return Status::kOk;
}

Status ProcessContext::ClosePort(Handle port) {
  Kernel::Vnode* v = kernel_->FindLivePort(port);
  if (v == nullptr || !kernel_->ContextOwnsPort(*proc_, ep_, *v)) {
    return Status::kNotFound;
  }
  auto& ports = ep_ != nullptr ? ep_->owned_ports : proc_->owned_ports;
  ports.erase(std::remove(ports.begin(), ports.end(), port), ports.end());
  kernel_->DissociatePort(*v);
  return Status::kOk;
}

Status ProcessContext::Send(Handle port, Message msg, const SendArgs& args) {
  Kernel::SyscallFrame f;
  f.handle = port;
  f.msg = &msg;  // moved from by the body
  f.send_args = &args;
  kernel_->Dispatch(Kernel::Sys::kSend, *proc_, ep_, f);
  return f.status;
}

Status ProcessContext::SetSendLevel(Handle h, Level level) {
  Kernel::SyscallFrame f;
  f.handle = h;
  f.level = level;
  kernel_->Dispatch(Kernel::Sys::kSetSendLevel, *proc_, ep_, f);
  return f.status;
}

Status ProcessContext::SetReceiveLevel(Handle h, Level level) {
  Kernel::SyscallFrame f;
  f.handle = h;
  f.level = level;
  kernel_->Dispatch(Kernel::Sys::kSetReceiveLevel, *proc_, ep_, f);
  return f.status;
}

void ProcessContext::SelfContaminate(const Label& add) {
  Label& qs = kernel_->ContextSendLabel(*proc_, ep_);
  const uint64_t pre_rep = obs::EventLog::enabled() ? qs.rep_id() : 0;
  const LabelWorkStats baseline = GetLabelWorkStats();
  // QS ← QS ⊔ (add ⊓ QS⋆): contamination cannot strip the caller's ⋆ levels;
  // those are dropped only through SetSendLevel.
  Label capped = Label::Glb(add, qs.StarsOnly());
  qs.JoinInPlace(capped);
  kernel_->ChargeLabelWorkSince(baseline);
  if (obs::EventLog::enabled()) {
    obs::EventLog::Get().Edge(
        obs::RecordKind::kOrigin, proc_->name, "", pre_rep, qs.rep_id(), add,
        kernel_->current_trace_id_);
  }
}

Result<ProcessId> ProcessContext::Spawn(std::unique_ptr<ProcessCode> code, SpawnArgs args) {
  Kernel::SyscallFrame f;
  f.code = &code;
  f.spawn_args = &args;
  kernel_->Dispatch(Kernel::Sys::kSpawn, *proc_, ep_, f);
  if (f.status != Status::kOk) {
    return f.status;
  }
  return f.out_pid;
}

void ProcessContext::Exit() { proc_->exited = true; }

void ProcessContext::EnterEventRealm() { proc_->in_event_realm = true; }

Status ProcessContext::EpClean(uint64_t addr, uint64_t len) {
  if (ep_ == nullptr) {
    return Status::kBadState;
  }
  const uint64_t dropped = OverlayClean(&ep_->private_pages, addr, len);
  kernel_->mem_.overlay_page_slots -= dropped;
  ep_->ever_cleaned = true;
  return Status::kOk;
}

void ProcessContext::EpExit() {
  if (ep_ != nullptr) {
    ep_->exited = true;
  } else {
    // ep_exit from the base context is meaningless; treat as process exit.
    proc_->exited = true;
  }
}

uint64_t ProcessContext::AllocPages(uint64_t n) { return proc_->memory.AllocPages(n); }

void ProcessContext::FreePages(uint64_t addr, uint64_t n) { proc_->memory.FreePages(addr, n); }

void ProcessContext::ReadMem(uint64_t addr, void* out, uint64_t n) const {
  if (const MappedRegion* m = FindMapping(ep_, addr)) {
    const SharedRegion& region = proc_->shared_regions.at(m->region.value());
    uint64_t offset = addr - m->base_addr;
    ASB_ASSERT(offset + n <= m->page_count * kPageSize && "access crosses the mapping");
    uint8_t* dst = static_cast<uint8_t*>(out);
    while (n > 0) {
      const uint64_t page = offset / kPageSize;
      const uint64_t in_page = offset % kPageSize;
      const uint64_t chunk = std::min<uint64_t>(n, kPageSize - in_page);
      std::memcpy(dst, region.pages[page].get()->bytes + in_page, chunk);
      dst += chunk;
      offset += chunk;
      n -= chunk;
    }
    return;
  }
  proc_->memory.Read(ep_ != nullptr ? &ep_->private_pages : nullptr, addr, out, n);
}

void ProcessContext::WriteMem(uint64_t addr, const void* data, uint64_t n) {
  if (const MappedRegion* m = FindMapping(ep_, addr)) {
    SharedRegion& region = proc_->shared_regions.at(m->region.value());
    // Write-time check: the writer's taint must still fit under the region
    // label, or other mappers (contaminated only to the region label) would
    // observe higher-taint data. Failing writes vanish silently, like
    // undeliverable sends.
    const LabelWorkStats baseline = GetLabelWorkStats();
    const bool allowed = ep_->send_label.Leq(region.label);
    kernel_->ChargeLabelWorkSince(baseline);
    if (!allowed) {
      kernel_->stats_.shared_writes_dropped += 1;
      return;
    }
    uint64_t offset = addr - m->base_addr;
    ASB_ASSERT(offset + n <= m->page_count * kPageSize && "access crosses the mapping");
    const uint8_t* src = static_cast<const uint8_t*>(data);
    while (n > 0) {
      const uint64_t page = offset / kPageSize;
      const uint64_t in_page = offset % kPageSize;
      const uint64_t chunk = std::min<uint64_t>(n, kPageSize - in_page);
      std::memcpy(region.pages[page].get()->bytes + in_page, src, chunk);
      src += chunk;
      offset += chunk;
      n -= chunk;
    }
    return;
  }
  const uint64_t cow =
      proc_->memory.Write(ep_ != nullptr ? &ep_->private_pages : nullptr, addr, data, n);
  if (cow > 0) {
    kernel_->stats_.cow_pages_copied += cow;
    kernel_->mem_.overlay_page_slots += cow;
    ChargeTo(Component::kKernelIpc, cow * costs::kEpPageCowCycles);
    kernel_->UpdatePeak();
  }
}

Result<Handle> ProcessContext::ShareRegion(uint64_t addr, uint64_t n_pages,
                                           const Label& region_label) {
  if (ep_ == nullptr) {
    return Status::kBadState;  // shared regions exist between event processes
  }
  if (n_pages == 0 || addr % kPageSize != 0) {
    return Status::kInvalidArgs;
  }
  // Publishing data at region_label requires the data's taint to fit under
  // it — the exact condition a send's ES ⊑ V check would impose.
  const LabelWorkStats baseline = GetLabelWorkStats();
  const bool allowed = ep_->send_label.Leq(region_label);
  kernel_->ChargeLabelWorkSince(baseline);
  if (!allowed) {
    return Status::kAccessDenied;
  }
  Kernel::SyscallFrame nf;
  kernel_->Dispatch(Kernel::Sys::kNewHandle, *proc_, ep_, nf);
  const Handle h = nf.out_handle;
  SharedRegion region;
  region.handle = h;
  region.label = region_label;
  region.pages.reserve(n_pages);
  // Snapshot the creator's current view (overlay over base over zeros).
  for (uint64_t p = 0; p < n_pages; ++p) {
    auto* page = new internal::SimPage();
    proc_->memory.Read(&ep_->private_pages, addr + p * kPageSize, page->bytes, kPageSize);
    region.pages.emplace_back(page);
    ChargeTo(Component::kKernelIpc, costs::kEpPageCowCycles);
  }
  proc_->shared_regions.emplace(h.value(), std::move(region));
  kernel_->stats_.shared_regions_created += 1;
  kernel_->UpdatePeak();
  return h;
}

Status ProcessContext::MapSharedRegion(Handle region, uint64_t at_addr) {
  if (ep_ == nullptr) {
    return Status::kBadState;
  }
  auto it = proc_->shared_regions.find(region.value());
  if (it == proc_->shared_regions.end()) {
    return Status::kNotFound;
  }
  if (at_addr % kPageSize != 0) {
    return Status::kInvalidArgs;
  }
  if (FindMapping(ep_, at_addr) != nullptr) {
    return Status::kAlreadyExists;
  }
  // Mapping is receiving: the region's label must fit under this event
  // process's receive label, and contaminates its send label (Eq. 5 with the
  // region label as ES).
  const LabelWorkStats baseline = GetLabelWorkStats();
  const bool allowed = it->second.label.Leq(ep_->recv_label);
  if (!allowed) {
    kernel_->ChargeLabelWorkSince(baseline);
    return Status::kAccessDenied;
  }
  Label contam = Label::Glb(it->second.label, ep_->send_label.StarsOnly());
  ep_->send_label.JoinInPlace(contam);
  kernel_->ChargeLabelWorkSince(baseline);

  MappedRegion m;
  m.base_addr = at_addr;
  m.page_count = it->second.pages.size();
  m.region = region;
  ep_->mappings.push_back(m);
  ChargeTo(Component::kKernelIpc, costs::kEpSwitchCycles);
  return Status::kOk;
}

Status ProcessContext::UnmapSharedRegion(Handle region) {
  if (ep_ == nullptr) {
    return Status::kBadState;
  }
  for (auto it = ep_->mappings.begin(); it != ep_->mappings.end(); ++it) {
    if (it->region == region) {
      ep_->mappings.erase(it);
      return Status::kOk;
    }
  }
  return Status::kNotFound;
}

void ProcessContext::ModelHeapBytes(int64_t delta) {
  proc_->modeled_heap_bytes += delta;
  ASB_ASSERT(proc_->modeled_heap_bytes >= 0);
  if (delta > 0) {
    kernel_->mem_.modeled_user_heap_bytes += static_cast<uint64_t>(delta);
  } else {
    kernel_->mem_.modeled_user_heap_bytes -= static_cast<uint64_t>(-delta);
  }
  kernel_->UpdatePeak();
}

void ProcessContext::ChargeCycles(uint64_t cycles) { ChargeTo(proc_->component, cycles); }

uint64_t ProcessContext::current_trace_id() const { return kernel_->current_trace_id_; }

// --- Kernel ---------------------------------------------------------------------

Kernel::Kernel(uint64_t boot_key) : handles_(boot_key) {
  obs_gauge_group_ = obs::Registry::Get().RegisterGauges([this](obs::GaugeSink& sink) {
    // Names are built at snapshot time so SetMetricsPrefix calls after
    // construction still take effect (fleets set prefixes post-boot).
    const std::string& p = metrics_prefix_;
    sink.Set(p + "kernel.stats.sends", stats_.sends);
    sink.Set(p + "kernel.stats.deliveries", stats_.deliveries);
    sink.Set(p + "kernel.stats.drops_no_port", stats_.drops_no_port);
    sink.Set(p + "kernel.stats.drops_privilege", stats_.drops_privilege);
    sink.Set(p + "kernel.stats.drops_dr_port", stats_.drops_dr_port);
    sink.Set(p + "kernel.stats.drops_label_check", stats_.drops_label_check);
    sink.Set(p + "kernel.stats.eps_created", stats_.eps_created);
    sink.Set(p + "kernel.stats.eps_destroyed", stats_.eps_destroyed);
    sink.Set(p + "kernel.stats.processes_created", stats_.processes_created);
    sink.Set(p + "kernel.stats.cow_pages_copied", stats_.cow_pages_copied);
    sink.Set(p + "kernel.stats.shared_regions_created", stats_.shared_regions_created);
    sink.Set(p + "kernel.stats.shared_writes_dropped", stats_.shared_writes_dropped);
    const KernelMemReport mem = MemReport();
    sink.Set(p + "kernel.mem.vnode_bytes", mem.vnode_bytes);
    sink.Set(p + "kernel.mem.process_bytes", mem.process_bytes);
    sink.Set(p + "kernel.mem.ep_bytes", mem.ep_bytes);
    sink.Set(p + "kernel.mem.label_bytes", mem.label_bytes);
    sink.Set(p + "kernel.mem.label_intern_index_bytes", mem.label_intern_index_bytes);
    sink.Set(p + "kernel.mem.label_dedup_saved_bytes", mem.label_dedup_saved_bytes);
    sink.Set(p + "kernel.mem.page_bytes", mem.page_bytes);
    sink.Set(p + "kernel.mem.overlay_slot_bytes", mem.overlay_slot_bytes);
    sink.Set(p + "kernel.mem.queue_bytes", mem.queue_bytes);
    sink.Set(p + "kernel.mem.queue_arena_bytes", mem.queue_arena_bytes);
    sink.Set(p + "kernel.mem.modeled_heap_bytes", mem.modeled_heap_bytes);
    sink.Set(p + "kernel.mem.store_bytes", mem.store_bytes);
    sink.Set(p + "kernel.mem.session_bytes", mem.session_bytes);
    sink.Set(p + "kernel.mem.binding_bytes", mem.binding_bytes);
    sink.Set(p + "kernel.mem.handle_table_bytes", mem.handle_table_bytes);
    sink.Set(p + "kernel.mem.total_bytes", mem.total_bytes());
    sink.Set(p + "kernel.mem.peak_total_bytes", peak_total_bytes_);
    if (scale_user_count_ > 0) {
      sink.Set(p + "kernel.mem.bytes_per_user",
               static_cast<double>(mem.total_bytes()) /
                   static_cast<double>(scale_user_count_));
    }
  });
}

void Kernel::ReserveRecoveredHandle(Handle h) {
  if (h.valid()) {
    handles_.SkipPast(h.value());
  }
}

Kernel::~Kernel() {
  // The live kernel.mem.* gauge group dies with this kernel; keep the
  // high-water mark (max across every kernel this process ran) so
  // post-teardown snapshots still carry a memstats family.
  obs::Gauge& peak =
      obs::Registry::Get().gauge(metrics_prefix_ + "kernel.mem.peak_total_bytes");
  if (static_cast<double>(peak_total_bytes_) > peak.value()) {
    peak.Set(static_cast<double>(peak_total_bytes_));
  }
  obs::Registry::Get().UnregisterGauges(obs_gauge_group_);
}

uint64_t Kernel::now_cycles() const { return GetCycleAccounting().now(); }

void Kernel::ChargeLabelWorkSince(const LabelWorkStats& baseline) {
  const LabelWorkStats& now = GetLabelWorkStats();
  const uint64_t ops = now.ops - baseline.ops;
  const uint64_t entries = now.entries_visited - baseline.entries_visited;
  ChargeTo(Component::kKernelIpc,
           ops * costs::kLabelOpBaseCycles + entries * costs::kLabelEntryCycles);
}

Label& Kernel::ContextSendLabel(Process& proc, EventProcess* ep) {
  return ep != nullptr ? ep->send_label : proc.send_label;
}

Label& Kernel::ContextRecvLabel(Process& proc, EventProcess* ep) {
  return ep != nullptr ? ep->recv_label : proc.recv_label;
}

Kernel::Vnode* Kernel::FindVnode(Handle h) {
  auto it = vnodes_.find(h.value());
  return it == vnodes_.end() ? nullptr : &it->second;
}

const Kernel::Vnode* Kernel::FindVnode(Handle h) const {
  auto it = vnodes_.find(h.value());
  return it == vnodes_.end() ? nullptr : &it->second;
}

Kernel::Vnode* Kernel::FindLivePort(Handle h) {
  Vnode* v = FindVnode(h);
  return (v != nullptr && v->is_port && v->port_alive) ? v : nullptr;
}

bool Kernel::ContextOwnsPort(const Process& proc, const EventProcess* ep,
                             const Vnode& v) const {
  return v.owner == proc.id && v.owner_ep == (ep != nullptr ? ep->id : kBaseContext);
}

// The dispatch table (ctOS-style syscall_dispatch): each entry carries the
// syscall's fixed base cost, charged by Dispatch in one place. Cycle parity
// with the pre-table kernel: the base figures below are exactly the fixed
// ChargeTo calls the bodies used to open with (send pays base + the vnode
// lookup; the *_level and spawn calls had no fixed cost); variable costs —
// per-payload-byte, per-label-entry — remain in the bodies.
const std::array<Kernel::SyscallEntry, Kernel::kNumSyscalls>& Kernel::SyscallTable() {
  static const std::array<SyscallEntry, kNumSyscalls> kTable = {{
      {"new_handle", costs::kVnodeLookupCycles, &Kernel::SysNewHandle},
      {"new_port", costs::kVnodeLookupCycles, &Kernel::SysNewPort},
      {"set_port_label", costs::kVnodeLookupCycles, &Kernel::SysSetPortLabel},
      {"send", costs::kSendBaseCycles + costs::kVnodeLookupCycles, &Kernel::SysSend},
      {"set_send_level", 0, &Kernel::SysSetSendLevel},
      {"set_receive_level", 0, &Kernel::SysSetReceiveLevel},
      {"spawn", 0, &Kernel::SysSpawn},
  }};
  return kTable;
}

void Kernel::Dispatch(Sys sys, Process& proc, EventProcess* ep, SyscallFrame& frame) {
  const size_t idx = static_cast<size_t>(sys);
  ASB_ASSERT(idx < kNumSyscalls);
  const SyscallEntry& entry = SyscallTable()[idx];
  if (entry.base_cycles != 0) {
    ChargeTo(Component::kKernelIpc, entry.base_cycles);
  }
  static std::array<obs::Counter*, kNumSyscalls> counters = [] {
    std::array<obs::Counter*, kNumSyscalls> c{};
    for (size_t i = 0; i < kNumSyscalls; ++i) {
      c[i] = &obs::Registry::Get().counter(std::string("kernel.sys.") +
                                           SyscallTable()[i].name);
    }
    return c;
  }();
  counters[idx]->Add();
  if (obs::CycleProfiler::enabled()) {
    obs::ProfSpan span;
    span.Begin(std::string("sys.") + entry.name);
    // Attribute the whole dispatch — base cost charged above plus whatever
    // the body charges — to (process, syscall). Reads the clock, never
    // charges it.
    const uint64_t start = GetCycleAccounting().now() - entry.base_cycles;
    (this->*entry.fn)(proc, ep, frame);
    obs::CycleProfiler::Get().AttributeSyscall(proc.name, entry.name,
                                               GetCycleAccounting().now() - start);
    return;
  }
  (this->*entry.fn)(proc, ep, frame);
}

void Kernel::SysNewHandle(Process& proc, EventProcess* ep, SyscallFrame& f) {
  const Handle h = Handle::FromValue(handles_.Next());
  // Plain handles go to the dense table, not the vnode map (see kernel.h).
  // Lookups still behave identically: a plain handle was never a live port,
  // so FindLivePort/PortAlive answered null/false for it before too.
  plain_handles_.push_back(h.value());
  mem_.vnodes += 1;
  mem_.plain_handles += 1;
  Label& qs = ContextSendLabel(proc, ep);
  const uint64_t pre_rep = obs::EventLog::enabled() ? qs.rep_id() : 0;
  const LabelWorkStats baseline = GetLabelWorkStats();
  qs.Set(h, Level::kStar);
  ChargeLabelWorkSince(baseline);
  if (obs::EventLog::enabled()) {
    obs::EventLog::Get().Edge(
        obs::RecordKind::kOrigin, proc.name, "", pre_rep, qs.rep_id(),
        Label({{h, Level::kStar}}, Level::kL3), current_trace_id_);
  }
  UpdatePeak();
  f.out_handle = h;
}

void Kernel::SysNewPort(Process& proc, EventProcess* ep, SyscallFrame& f) {
  const Label& port_label = *f.label;
  const Handle p = Handle::FromValue(handles_.Next());
  Vnode v;
  v.handle = p;
  v.is_port = true;
  v.port_alive = true;
  v.port_label = port_label;
  // The kernel closes the new port by default: pR(p) ← 0 means no process
  // with the default send level 1 can reach it until the owner says so.
  v.port_label.Set(p, Level::kL0);
  v.owner = proc.id;
  v.owner_ep = ep != nullptr ? ep->id : kBaseContext;
  vnodes_.emplace(p.value(), std::move(v));
  mem_.vnodes += 1;
  auto& ports = ep != nullptr ? ep->owned_ports : proc.owned_ports;
  ports.push_back(p);
  const LabelWorkStats baseline = GetLabelWorkStats();
  ContextSendLabel(proc, ep).Set(p, Level::kStar);
  ChargeLabelWorkSince(baseline);
  UpdatePeak();
  f.out_handle = p;
}

void Kernel::SysSetPortLabel(Process& proc, EventProcess* ep, SyscallFrame& f) {
  Vnode* v = FindLivePort(f.handle);
  if (v == nullptr || !ContextOwnsPort(proc, ep, *v)) {
    f.status = Status::kNotFound;
    return;
  }
  // set_port_label applies the label verbatim: no implicit pR(p) ← 0, which
  // is how an owner opens a port to the world (paper §5.5).
  v->port_label = *f.label;
  f.status = Status::kOk;
}

void Kernel::SysSetSendLevel(Process& proc, EventProcess* ep, SyscallFrame& f) {
  Label& qs = ContextSendLabel(proc, ep);
  const Level current = qs.Get(f.handle);
  if (!LevelLeq(current, f.level) && current != Level::kStar) {
    // Lowering without holding ⋆ would be self-declassification.
    f.status = Status::kAccessDenied;
    return;
  }
  const uint64_t pre_rep = obs::EventLog::enabled() ? qs.rep_id() : 0;
  const LabelWorkStats baseline = GetLabelWorkStats();
  qs.Set(f.handle, f.level);
  ChargeLabelWorkSince(baseline);
  if (obs::EventLog::enabled() && !LevelLeq(f.level, current) &&
      LevelLeq(Level::kL2, f.level)) {
    // A raise into taint territory is voluntary self-contamination: taint
    // with no inbound message, so it gets an origin edge.
    obs::EventLog::Get().Edge(
        obs::RecordKind::kOrigin, proc.name, "", pre_rep, qs.rep_id(),
        Label({{f.handle, f.level}}, Level::kL1), current_trace_id_);
  }
  f.status = Status::kOk;
}

void Kernel::SysSetReceiveLevel(Process& proc, EventProcess* ep, SyscallFrame& f) {
  Label& qr = ContextRecvLabel(proc, ep);
  const Level current = qr.Get(f.handle);
  if (!LevelLeq(f.level, current)) {
    // Raising a receive level makes the process contaminable: requires ⋆.
    if (ContextSendLabel(proc, ep).Get(f.handle) != Level::kStar) {
      f.status = Status::kAccessDenied;
      return;
    }
  }
  const LabelWorkStats baseline = GetLabelWorkStats();
  qr.Set(f.handle, f.level);
  ChargeLabelWorkSince(baseline);
  f.status = Status::kOk;
}

void Kernel::SysSend(Process& proc, EventProcess* ep, SyscallFrame& f) {
  Message msg = std::move(*f.msg);
  const SendArgs& args = *f.send_args;
  const Handle port = f.handle;
  f.status = Status::kOk;  // unreliable: every outcome below reports success

  stats_.sends += 1;
  const uint64_t payload = MessagePayloadBytes(msg);
  ChargeTo(Component::kKernelIpc, payload * costs::kMessageByteCycles);

  Vnode* v = FindLivePort(port);
  if (v == nullptr) {
    // Unreliable messaging: the sender cannot distinguish a dead port from a
    // label failure; both report success.
    stats_.drops_no_port += 1;
    return;
  }

  const Label& ps = ContextSendLabel(proc, ep);
  const LabelWorkStats baseline = GetLabelWorkStats();

  // Requirements (2) and (3): decontamination needs ⋆ on every affected
  // handle, evaluated against the sender's labels at send time.
  bool privileged = true;
  if (args.decont_send.default_level() != Level::kL3 &&
      ps.default_level() != Level::kStar) {
    privileged = false;
  }
  if (privileged) {
    for (Label::EntryIter it = args.decont_send.IterateEntries(); !it.done(); it.Advance()) {
      if (it.level() != Level::kL3 && ps.Get(it.handle()) != Level::kStar) {
        privileged = false;
        break;
      }
    }
  }
  if (privileged && args.decont_receive.default_level() != Level::kStar &&
      ps.default_level() != Level::kStar) {
    privileged = false;
  }
  if (privileged) {
    for (Label::EntryIter it = args.decont_receive.IterateEntries(); !it.done();
         it.Advance()) {
      if (it.level() != Level::kStar && ps.Get(it.handle()) != Level::kStar) {
        privileged = false;
        break;
      }
    }
  }
  if (!privileged) {
    ChargeLabelWorkSince(baseline);
    stats_.drops_privilege += 1;
    if (obs::EventLog::enabled()) {
      // Cold path: re-find the first handle whose decontamination needs a ⋆
      // the sender does not hold (requirements 2 and 3). The label reads
      // and the Lub below are forensics, not kernel work — shield the
      // counters.
      const LabelWorkStats forensics_baseline = GetLabelWorkStats();
      uint64_t failed = 0;
      Level had = ps.default_level();
      for (Label::EntryIter it = args.decont_send.IterateEntries(); !it.done();
           it.Advance()) {
        if (it.level() != Level::kL3 && ps.Get(it.handle()) != Level::kStar) {
          failed = it.handle().value();
          had = ps.Get(it.handle());
          break;
        }
      }
      if (failed == 0) {
        for (Label::EntryIter it = args.decont_receive.IterateEntries();
             !it.done(); it.Advance()) {
          if (it.level() != Level::kStar && ps.Get(it.handle()) != Level::kStar) {
            failed = it.handle().value();
            had = ps.Get(it.handle());
            break;
          }
        }
      }
      obs::EventLog::Get().Refusal(
          "kernel.send_privilege", proc.name,
          "decontamination requires \xe2\x8b\x86 the sender lacks (reqs 2-3)",
          failed, had, Level::kStar,
          Label::Lub(args.decont_send, args.decont_receive), ps,
          current_trace_id_);
      GetLabelWorkStats() = forensics_baseline;
    }
    return;  // silently dropped
  }

  QueuedMessage qm;
  qm.msg = std::move(msg);
  qm.msg.port = port;
  qm.msg.verify = args.verify;
  if (qm.msg.trace_id == 0) {
    // Propagate the flow trace: an unset id inherits the trace of the
    // message whose handler issued this send.
    qm.msg.trace_id = current_trace_id_;
  }
  // ES = PS ⊔ CS, snapshotted now: later sender label changes must not
  // retroactively change what this message carries.
  qm.effective_send = Label::Lub(ps, args.contaminate);
  qm.decont_send = args.decont_send;
  qm.decont_receive = args.decont_receive;
  qm.payload_bytes = payload;
  if (obs::EventLog::enabled()) {
    qm.sender = proc.name;
  }
  ChargeLabelWorkSince(baseline);

  AddQueueAccounting(qm);
  v->queue.push_back(std::move(qm));
  Process* owner = FindProcess(v->owner);
  ASB_ASSERT(owner != nullptr);
  EnqueuePendingPort(*owner, port);
  UpdatePeak();
}

void Kernel::SysSpawn(Process& parent, EventProcess* ep, SyscallFrame& f) {
  SpawnArgs& args = *f.spawn_args;
  // Spawning transmits the parent's entire state to the child, so the
  // child's send label may sit below the parent's only where the parent
  // holds ⋆ (this is how privilege is distributed by forking, §5.3), and the
  // child's receive label may exceed the system default only where the
  // parent holds ⋆ (it is a decontamination).
  const Label& ps = ContextSendLabel(parent, ep);
  const LabelWorkStats baseline = GetLabelWorkStats();
  bool allowed = true;
  if (!LevelLeq(ps.default_level(), args.send_label.default_level()) &&
      ps.default_level() != Level::kStar) {
    allowed = false;
  }
  if (allowed) {
    // Check every handle where either label is explicit.
    for (const auto& [h, child_level] : args.send_label.Entries()) {
      const Level pl = ps.Get(h);
      if (!LevelLeq(pl, child_level) && pl != Level::kStar) {
        allowed = false;
        break;
      }
    }
  }
  if (allowed) {
    for (const auto& [h, pl] : ps.Entries()) {
      const Level child_level = args.send_label.Get(h);
      if (!LevelLeq(pl, child_level) && pl != Level::kStar) {
        allowed = false;
        break;
      }
    }
  }
  if (allowed) {
    if (!LevelLeq(args.recv_label.default_level(), kDefaultReceiveLevel) &&
        ps.default_level() != Level::kStar) {
      allowed = false;
    }
  }
  if (allowed) {
    for (const auto& [h, child_level] : args.recv_label.Entries()) {
      if (!LevelLeq(child_level, kDefaultReceiveLevel) && ps.Get(h) != Level::kStar) {
        allowed = false;
        break;
      }
    }
  }
  ChargeLabelWorkSince(baseline);
  if (!allowed) {
    f.status = Status::kAccessDenied;
    return;
  }
  f.out_pid = CreateProcess(std::move(*f.code), std::move(args));
  f.status = Status::kOk;
}

ProcessId Kernel::CreateProcess(std::unique_ptr<ProcessCode> code, SpawnArgs args) {
  ChargeTo(Component::kOther, costs::kProcessSwitchCycles);
  const ProcessId pid = next_pid_++;
  auto proc = std::make_unique<Process>();
  proc->id = pid;
  proc->name = args.name;
  proc->component = args.component;
  proc->code = std::move(code);
  proc->send_label = args.send_label;
  proc->recv_label = args.recv_label;
  proc->env = std::move(args.env);
  Process* raw = proc.get();
  processes_.emplace(pid, std::move(proc));
  if (raw->code->HasOnIdle()) {
    idle_hook_pids_.push_back(pid);
  }
  stats_.processes_created += 1;
  mem_.processes += 1;
  UpdatePeak();
  {
    ScopedComponent scope(raw->component);
    ProcessContext ctx(this, raw, nullptr, false);
    raw->code->Start(ctx);
  }
  if (raw->exited) {
    DestroyProcess(*raw);
  }
  return pid;
}

void Kernel::RunInBaseContext(Process& proc, const std::function<void(ProcessContext&)>& fn) {
  ScopedComponent scope(proc.component);
  ProcessContext ctx(this, &proc, nullptr, false);
  fn(ctx);
  if (proc.exited) {
    DestroyProcess(proc);
  }
}

void Kernel::WithProcessContext(ProcessId pid, const std::function<void(ProcessContext&)>& fn) {
  Process* proc = FindProcess(pid);
  ASB_ASSERT(proc != nullptr && !proc->exited);
  RunInBaseContext(*proc, fn);
}

void Kernel::EnqueuePendingPort(Process& owner, Handle port) {
  if (owner.pending_port_set.insert(port.value()).second) {
    owner.pending_ports.push_back(port);
  }
  ScheduleProcess(owner);
}

void Kernel::ScheduleProcess(Process& proc) {
  if (!proc.in_run_queue && !proc.exited) {
    proc.in_run_queue = true;
    run_queue_.push_back(proc.id);
  }
}

bool Kernel::Step() {
  while (!run_queue_.empty()) {
    const ProcessId pid = run_queue_.front();
    run_queue_.pop_front();
    Process* proc = FindProcess(pid);
    if (proc == nullptr) {
      continue;
    }
    proc->in_run_queue = false;
    if (proc->exited) {
      continue;
    }
    ChargeTo(Component::kOther, costs::kSchedulerTickCycles);

    bool delivered = false;
    while (!proc->pending_ports.empty() && !delivered) {
      const Handle port = proc->pending_ports.front();
      proc->pending_ports.pop_front();
      proc->pending_port_set.erase(port.value());
      Vnode* v = FindLivePort(port);
      if (v == nullptr || v->owner != pid) {
        continue;  // dissociated or transferred while pending
      }
      delivered = DeliverFromPort(*v);
      // Re-queue the port if it still has traffic. (DeliverFromPort may have
      // destroyed the process; re-find defensively.)
      proc = FindProcess(pid);
      if (proc == nullptr) {
        break;
      }
      v = FindLivePort(port);
      if (v != nullptr && v->owner == pid && !v->queue.empty()) {
        EnqueuePendingPort(*proc, port);
      }
    }
    if (proc != nullptr && !proc->pending_ports.empty()) {
      ScheduleProcess(*proc);
    }
    if (delivered) {
      return true;
    }
  }
  return false;
}

void Kernel::RunUntilIdle() {
  while (true) {
    while (Step()) {
    }
    // End of the pump iteration: dispatch OnIdle to the processes that
    // declared a hook at creation (group commit of durable stores lives
    // here) — the common volatile world has none and skips this entirely.
    // The pid snapshot keeps the walk safe against table mutation; hooks
    // are not supposed to send, but if one does, the fresh work is drained
    // by another round rather than left queued — and a hook that sends
    // every round is the same livelock any self-rescheduling process could
    // already cause.
    if (!idle_hook_pids_.empty()) {
      const std::vector<ProcessId> pids = idle_hook_pids_;
      for (const ProcessId pid : pids) {
        Process* proc = FindProcess(pid);
        if (proc == nullptr || proc->exited) {
          continue;
        }
        obs::ProfSpan idle_span;
        if (obs::CycleProfiler::enabled()) {
          idle_span.Begin("idle." + proc->name);
        }
        RunInBaseContext(*proc, [proc](ProcessContext& ctx) { proc->code->OnIdle(ctx); });
      }
    }
    if (run_queue_.empty()) {
      return;
    }
  }
}

bool Kernel::DeliverFromPort(Vnode& port) {
  const Handle port_handle = port.handle;
  const ProcessId owner_pid = port.owner;
  Process* proc = FindProcess(owner_pid);
  ASB_ASSERT(proc != nullptr);

  // `pv` is re-found by handle after every handler run: a handler may close
  // the port (erasing the vnode) or transfer it, and the batch-continuation
  // gate below needs the live vnode, not a stale reference.
  Vnode* pv = &port;
  uint64_t delivered_in_batch = 0;

  while (!pv->queue.empty()) {
    QueuedMessage qm = std::move(pv->queue.front());
    pv->queue.pop_front();
    SubQueueAccounting(qm);

    // Identify the receiving context. A message on an event-process-owned
    // port resumes that event process; a message on a base-owned port of a
    // process in the event realm forks a fresh event process — but only
    // after the checks pass, so a dropped message costs nothing.
    EventProcess* ep = nullptr;
    bool would_create_ep = false;
    if (pv->owner_ep != kBaseContext) {
      auto it = proc->eps.find(pv->owner_ep);
      ASB_ASSERT(it != proc->eps.end());
      ep = it->second.get();
    } else if (proc->in_event_realm) {
      would_create_ep = true;
    }

    const Label& qr = ep != nullptr ? ep->recv_label : proc->recv_label;
    Label& qs_ref = ep != nullptr ? ep->send_label : proc->send_label;

    ChargeTo(Component::kKernelIpc,
             costs::kRecvBaseCycles + qm.payload_bytes * costs::kMessageByteCycles);
    const LabelWorkStats baseline = GetLabelWorkStats();
    uint64_t fused_work = 0;

    // Requirement (4): DR ⊑ pR — the port label bounds decontamination.
    bool ok = IsBottomLabel(qm.decont_receive) || qm.decont_receive.Leq(pv->port_label);
    if (!ok) {
      ChargeLabelWorkSince(baseline);
      stats_.drops_dr_port += 1;
      if (obs::EventLog::enabled()) {
        // D_R ⊑ pR is ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR with ES = D_R, QR = pR and
        // the rest neutral, so the delivery explainer pinpoints the handle.
        const DeliveryRefusal why =
            ExplainDeliveryRefusal(qm.decont_receive, pv->port_label,
                                   Label::Bottom(), Label::Top(), Label::Top());
        obs::EventLog::Get().Refusal(
            "kernel.dr_port", proc->name,
            "D_R exceeds the port label (req 4)", why.handle, why.es_level,
            why.bound_level, qm.decont_receive, pv->port_label,
            qm.msg.trace_id);
      }
      continue;
    }
    // Requirement (1): ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR, with labels as they are at
    // this instant (delivery time), not as they were at send time.
    ok = CheckDeliveryAllowed(qm.effective_send, qr, qm.decont_receive, qm.msg.verify,
                              pv->port_label, &fused_work);
    ChargeTo(Component::kKernelIpc, fused_work * costs::kLabelEntryCycles +
                                        costs::kLabelOpBaseCycles);
    if (!ok) {
      ChargeLabelWorkSince(baseline);
      stats_.drops_label_check += 1;
      if (obs::EventLog::enabled()) {
        const DeliveryRefusal why =
            ExplainDeliveryRefusal(qm.effective_send, qr, qm.decont_receive,
                                   qm.msg.verify, pv->port_label);
        std::string detail = "ES(";
        detail += why.handle == 0 ? "default" : std::to_string(why.handle);
        detail += ") = ";
        detail += LevelName(why.es_level);
        detail += " exceeds bound ";
        detail += LevelName(why.bound_level);
        detail += " (req 1)";
        obs::EventLog::Get().Refusal(
            "kernel.delivery", proc->name, detail, why.handle, why.es_level,
            why.bound_level, qm.effective_send, why.bound, qm.msg.trace_id);
      }
      continue;
    }

    bool created_ep = false;
    if (would_create_ep) {
      const EpId id = proc->next_ep_id++;
      auto fresh = std::make_unique<EventProcess>();
      fresh->id = id;
      // Labels copied from the base process (cheap: COW label reps).
      fresh->send_label = proc->send_label;
      fresh->recv_label = proc->recv_label;
      ep = fresh.get();
      proc->eps.emplace(id, std::move(fresh));
      stats_.eps_created += 1;
      mem_.event_processes += 1;
      ChargeTo(Component::kKernelIpc, costs::kEpCreateCycles);
      created_ep = true;
    } else if (ep != nullptr) {
      ChargeTo(Component::kKernelIpc, costs::kEpSwitchCycles);
    }
    if (ep != nullptr && !ep->has_queue_arena) {
      ep->has_queue_arena = true;
      mem_.ep_queue_arena_bytes += kPageSize;
    }
    if (proc->last_ran_ep != (ep != nullptr ? ep->id : kBaseContext)) {
      proc->last_ran_ep = ep != nullptr ? ep->id : kBaseContext;
    }

    // Label effects (Eq. 7). QS⋆ is evaluated on the pre-state, so a grant
    // and a contamination of the same handle in one message resolve in favor
    // of the contamination, as the paper's equation does.
    Label& qs = ep != nullptr ? ep->send_label : qs_ref;
    Label& qr_mut = ep != nullptr ? ep->recv_label : proc->recv_label;
    const bool prov = obs::EventLog::enabled();
    const uint64_t pre_qs_rep = prov ? qs.rep_id() : 0;
    const uint64_t pre_qr_rep = prov ? qr_mut.rep_id() : 0;
    const LabelWorkStats fx_baseline = GetLabelWorkStats();
    uint64_t contam_work = 0;
    bool contaminates = NeedsContamination(qm.effective_send, qs, &contam_work);
    ChargeTo(Component::kKernelIpc, contam_work * costs::kLabelEntryCycles);
    if (IsTopLabel(qm.decont_send)) {
      if (contaminates) {
        Label contam = Label::Glb(qm.effective_send, qs.StarsOnly());
        qs.JoinInPlace(contam);
      }
    } else {
      // D_S may lower QS below ES at handles it names; re-examine just those
      // (Eq. 7's join term uses the *pre-meet* QS⋆). A D_S default below 3
      // lowers unboundedly many handles; take the literal path for that.
      if (!contaminates) {
        if (qm.decont_send.default_level() != Level::kL3) {
          contaminates = true;
        } else {
          for (Label::EntryIter it = qm.decont_send.IterateEntries(); !it.done();
               it.Advance()) {
            const Level qs_h = qs.Get(it.handle());
            if (LevelLeq(qs_h, it.level())) {
              continue;  // the meet does not lower this handle
            }
            const Level contam_h =
                qs_h == Level::kStar ? Level::kStar : qm.effective_send.Get(it.handle());
            if (!LevelLeq(contam_h, it.level())) {
              contaminates = true;
              break;
            }
          }
        }
      }
      if (contaminates) {
        Label contam = Label::Glb(qm.effective_send, qs.StarsOnly());
        qs.MeetInPlace(qm.decont_send);
        qs.JoinInPlace(contam);
      } else {
        qs.MeetInPlace(qm.decont_send);
      }
    }
    if (!IsBottomLabel(qm.decont_receive)) {
      qr_mut.JoinInPlace(qm.decont_receive);
    }
    ChargeLabelWorkSince(fx_baseline);

    if (prov) {
      // The receive-side label effects, as taint edges. Recorded after
      // the mutations so post reps are the labels the handler will run with.
      obs::EventLog& log = obs::EventLog::Get();
      if (contaminates) {
        log.Edge(obs::RecordKind::kContaminate, proc->name, qm.sender,
                 pre_qs_rep, qs.rep_id(), qm.effective_send,
                 qm.msg.trace_id);
      }
      if (!IsTopLabel(qm.decont_send)) {
        log.Edge(obs::RecordKind::kGrant, proc->name, qm.sender,
                 pre_qs_rep, qs.rep_id(), qm.decont_send,
                 qm.msg.trace_id);
      }
      if (!IsBottomLabel(qm.decont_receive)) {
        log.Edge(obs::RecordKind::kGrant, proc->name, qm.sender,
                 pre_qr_rep, qr_mut.rep_id(), qm.decont_receive,
                 qm.msg.trace_id);
      }
      if (!IsTopLabel(qm.msg.verify)) {
        // The verify label lowered the delivery bound: a declassification
        // the verify-port holder vouched for.
        log.Edge(obs::RecordKind::kDeclassify, proc->name, qm.sender,
                 pre_qs_rep, qs.rep_id(), qm.msg.verify,
                 qm.msg.trace_id);
      }
    }

    stats_.deliveries += 1;
    UpdatePeak();

    {
      obs::ProfSpan deliver_span;
      if (obs::CycleProfiler::enabled()) {
        deliver_span.Begin("deliver." + proc->name);
      }
      ScopedComponent scope(proc->component);
      ProcessContext ctx(this, proc, ep, created_ep);
      const uint64_t prev_trace = current_trace_id_;
      current_trace_id_ = qm.msg.trace_id;
      if (obs::EventLog::enabled() && qm.msg.trace_id != 0) {
        obs::EventLog::Get().Span(qm.msg.trace_id, "kernel", "kernel.deliver",
                                  proc->name, qm.effective_send);
      }
      proc->code->HandleMessage(ctx, qm.msg);
      current_trace_id_ = prev_trace;
    }

    delivered_in_batch += 1;

    // Post-handler lifecycle.
    if (proc->exited) {
      DestroyProcess(*proc);  // `proc` dangling; the batch necessarily ends
      break;
    }
    if (ep != nullptr) {
      if (ep->exited) {
        DestroyEventProcess(*proc, ep->id);
      } else {
        ReleaseQueueArenaIfIdle(*proc, *ep);
      }
    }
    UpdatePeak();

    // --- Batch continuation gate ------------------------------------------
    // Keep draining this port only when the unbatched scheduler's next
    // action would provably be this exact port, and mirror precisely the
    // state transitions and charges it would have made getting here. Two
    // such situations exist after a delivery:
    //
    //  (a) Nothing else is runnable and this port was not re-sent to: the
    //      unbatched Step would re-enqueue the port (net-zero set/queue
    //      churn), return, be called again, pop this process (one scheduler
    //      tick), pop this port, and deliver. Net state change: none.
    //  (b) The handler sent to this very port and nothing else: the run
    //      queue holds exactly this process and its pending list exactly
    //      this port. The unbatched Step would pop both (one tick) and
    //      deliver. Mirror the pops.
    //
    // Anything else — another runnable process, another pending port — and
    // the unbatched pump would go elsewhere first, so the batch ends.
    if (delivered_in_batch >= pump_batch_limit_) {
      break;
    }
    Vnode* next = FindLivePort(port_handle);
    if (next == nullptr || next->owner != owner_pid || next->queue.empty()) {
      break;
    }
    if (run_queue_.empty() && proc->pending_ports.empty()) {
      // (a) — no state to mirror.
    } else if (run_queue_.size() == 1 && run_queue_.front() == owner_pid &&
               proc->pending_ports.size() == 1 &&
               proc->pending_ports.front() == port_handle) {
      // (b) — mirror Step's pops.
      run_queue_.pop_front();
      proc->in_run_queue = false;
      proc->pending_ports.pop_front();
      proc->pending_port_set.erase(port_handle.value());
    } else {
      break;
    }
    ChargeTo(Component::kOther, costs::kSchedulerTickCycles);
    pv = next;
  }

  if (delivered_in_batch > 0) {
    static obs::Counter& batches = obs::Registry::Get().counter("pump.batches");
    static obs::CycleHistogram& per_batch =
        obs::Registry::Get().histogram("pump.msgs_per_batch");
    batches.Add();
    per_batch.Record(delivered_in_batch);
    return true;
  }
  return false;
}

void Kernel::AddQueueAccounting(QueuedMessage& qm) {
  mem_.queued_message_bytes +=
      qm.msg.words.size() * sizeof(uint64_t) + kQueuedMessageOverheadBytes;
  const uint64_t bytes = qm.msg.data.buffer_bytes();
  if (bytes == 0) {
    return;  // no buffer, or an empty one: nothing to charge
  }
  if (qm.msg.data.use_count() == 1) {
    qm.sole_buffer_bytes = bytes;
    mem_.queued_message_bytes += bytes;
    return;
  }
  auto& entry = queued_buf_refs_[qm.msg.data.buffer_id()];
  if (entry.first++ == 0) {
    entry.second = bytes;
    mem_.queued_message_bytes += bytes;
  }
}

void Kernel::SubQueueAccounting(const QueuedMessage& qm) {
  mem_.queued_message_bytes -=
      qm.msg.words.size() * sizeof(uint64_t) + kQueuedMessageOverheadBytes;
  if (qm.sole_buffer_bytes != 0) {
    mem_.queued_message_bytes -= qm.sole_buffer_bytes;
    return;
  }
  if (qm.msg.data.buffer_bytes() == 0) {
    return;
  }
  auto it = queued_buf_refs_.find(qm.msg.data.buffer_id());
  ASB_ASSERT(it != queued_buf_refs_.end() && it->second.first > 0);
  if (--it->second.first == 0) {
    mem_.queued_message_bytes -= it->second.second;
    queued_buf_refs_.erase(it);
  }
}

void Kernel::ReleaseQueueArenaIfIdle(Process& proc, EventProcess& ep) {
  if (!ep.has_queue_arena) {
    return;
  }
  // An event process that follows the ep_clean discipline releases its
  // queue arena between requests; one that never cleans (the paper's
  // worst-case "active session") keeps it, matching §9.1's extra
  // message-queue page per active session.
  if (!ep.ever_cleaned && !ep.private_pages.empty()) {
    return;
  }
  for (Handle h : ep.owned_ports) {
    const Vnode* v = FindVnode(h);
    if (v != nullptr && v->port_alive && !v->queue.empty()) {
      return;  // still has traffic; keep the arena
    }
  }
  ep.has_queue_arena = false;
  mem_.ep_queue_arena_bytes -= kPageSize;
  (void)proc;
}

void Kernel::DissociatePort(Vnode& v) {
  ASB_ASSERT(v.is_port);
  for (const QueuedMessage& qm : v.queue) {
    SubQueueAccounting(qm);
    stats_.drops_no_port += 1;
  }
  v.queue.clear();
  v.port_alive = false;
  v.owner = kNoProcess;
  v.owner_ep = kBaseContext;
  // The vnode's memory becomes reclaimable once no kernel references remain;
  // our labels hold handle values rather than vnode pointers, so reclaim now.
  mem_.vnodes -= 1;
  v.port_label = Label::Top();
  vnodes_.erase(v.handle.value());  // `v` is dangling after this line
}

void Kernel::DestroyEventProcess(Process& proc, EpId ep_id) {
  auto it = proc.eps.find(ep_id);
  ASB_ASSERT(it != proc.eps.end());
  EventProcess& ep = *it->second;
  // Dissociating while iterating would invalidate ep.owned_ports; copy.
  const std::vector<Handle> ports = ep.owned_ports;
  for (Handle h : ports) {
    Vnode* v = FindLivePort(h);
    if (v != nullptr) {
      DissociatePort(*v);
    }
  }
  mem_.overlay_page_slots -= ep.private_pages.size();
  if (ep.has_queue_arena) {
    mem_.ep_queue_arena_bytes -= kPageSize;
  }
  proc.eps.erase(it);
  stats_.eps_destroyed += 1;
  mem_.event_processes -= 1;
}

void Kernel::DestroyProcess(Process& proc) {
  const std::vector<EpId> ep_ids = [&] {
    std::vector<EpId> ids;
    ids.reserve(proc.eps.size());
    for (const auto& [id, ep] : proc.eps) {
      ids.push_back(id);
    }
    return ids;
  }();
  for (EpId id : ep_ids) {
    DestroyEventProcess(proc, id);
  }
  const std::vector<Handle> ports = proc.owned_ports;
  for (Handle h : ports) {
    Vnode* v = FindLivePort(h);
    if (v != nullptr) {
      DissociatePort(*v);
    }
  }
  mem_.modeled_user_heap_bytes -= static_cast<uint64_t>(proc.modeled_heap_bytes);
  mem_.processes -= 1;
  idle_hook_pids_.erase(std::remove(idle_hook_pids_.begin(), idle_hook_pids_.end(), proc.id),
                        idle_hook_pids_.end());
  processes_.erase(proc.id);  // `proc` is dangling after this line
}

Process* Kernel::FindProcess(ProcessId pid) {
  auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : it->second.get();
}

Process* Kernel::FindProcessByName(const std::string& name) {
  for (auto& [pid, proc] : processes_) {
    if (proc->name == name) {
      return proc.get();
    }
  }
  return nullptr;
}

const Label& Kernel::SendLabelOf(ProcessId pid, EpId ep) {
  Process* proc = FindProcess(pid);
  ASB_ASSERT(proc != nullptr);
  if (ep == kBaseContext) {
    return proc->send_label;
  }
  auto it = proc->eps.find(ep);
  ASB_ASSERT(it != proc->eps.end());
  return it->second->send_label;
}

const Label& Kernel::RecvLabelOf(ProcessId pid, EpId ep) {
  Process* proc = FindProcess(pid);
  ASB_ASSERT(proc != nullptr);
  if (ep == kBaseContext) {
    return proc->recv_label;
  }
  auto it = proc->eps.find(ep);
  ASB_ASSERT(it != proc->eps.end());
  return it->second->recv_label;
}

bool Kernel::PortAlive(Handle port) const {
  const Vnode* v = FindVnode(port);
  return v != nullptr && v->is_port && v->port_alive;
}

size_t Kernel::QueuedMessageCount(Handle port) const {
  const Vnode* v = FindVnode(port);
  return (v != nullptr && v->is_port) ? v->queue.size() : 0;
}

KernelMemReport Kernel::MemReport() const {
  KernelMemReport r;
  // Plain handles are charged as what they are — dense 16-byte table
  // slots — and only ports as the paper's 64-byte vnode; per-user bindings
  // are the flat tables' real bytes.
  r.vnode_bytes = (mem_.vnodes - mem_.plain_handles) * kVnodeBytes;
  r.handle_table_bytes = mem_.plain_handles * kHandleTableEntryBytes;
  r.binding_bytes = static_cast<uint64_t>(GetBindingMemStats().live_bytes);
  r.session_bytes = static_cast<uint64_t>(GetSessionParkStats().live_bytes);
  r.process_bytes = mem_.processes * kProcessKernelBytes;
  r.ep_bytes = mem_.event_processes * kEpKernelBytes;
  r.label_bytes = static_cast<uint64_t>(GetLabelMemStats().live_bytes);
  const LabelInternStats& intern = GetLabelInternStats();
  r.label_intern_index_bytes =
      static_cast<uint64_t>(intern.live_canonical) * kLabelInternEntryBytes;
  r.label_dedup_saved_bytes = intern.bytes_saved;
  r.page_bytes = static_cast<uint64_t>(GetSimPageStats().live_pages) * kPageSize;
  r.overlay_slot_bytes = mem_.overlay_page_slots * kOverlayPageSlotBytes;
  r.queue_bytes = mem_.queued_message_bytes;
  r.queue_arena_bytes = mem_.ep_queue_arena_bytes;
  r.modeled_heap_bytes = mem_.modeled_user_heap_bytes;
  r.store_bytes = static_cast<uint64_t>(GetStoreMemStats().live_bytes);
  return r;
}

void Kernel::UpdatePeak() {
  const uint64_t total = MemReport().total_bytes();
  if (total > peak_total_bytes_) {
    peak_total_bytes_ = total;
  }
}

void Kernel::ResetPeakTotalBytes() { peak_total_bytes_ = MemReport().total_bytes(); }

}  // namespace asbestos
