// Kernel memory accounting: the bookkeeping behind Figure 6. Object
// lifecycles must balance — what a process/EP/port/label allocates must
// disappear when it dies — and the report must attribute bytes to the right
// category.
#include <gtest/gtest.h>

#include "src/kernel/kernel.h"
#include "tests/test_util.h"

namespace asbestos {
namespace {

using testing::ScriptedProcess;

TEST(MemStatsTest, ProcessLifecycleBalances) {
  Kernel kernel(11);
  const uint64_t before = kernel.MemReport().total_bytes();
  SpawnArgs args;
  args.name = "ephemeral";
  const ProcessId pid = kernel.CreateProcess(std::make_unique<ScriptedProcess>(), args);
  kernel.WithProcessContext(pid, [&](ProcessContext& ctx) {
    ctx.NewHandle();
    const Handle p = ctx.NewPort(Label::Top());
    (void)p;
    const uint64_t addr = ctx.AllocPages(2);
    ctx.WriteMem(addr, "data", 4);
    ctx.ModelHeapBytes(1000);
  });
  EXPECT_GT(kernel.MemReport().total_bytes(), before);
  kernel.WithProcessContext(pid, [&](ProcessContext& ctx) { ctx.Exit(); });
  const KernelMemReport after = kernel.MemReport();
  EXPECT_EQ(after.process_bytes, 0u);
  EXPECT_EQ(after.modeled_heap_bytes, 0u);
  EXPECT_EQ(after.page_bytes, 0u) << "simulated pages die with the address space";
  // The plain (non-port) handle's dense slot survives: compartments outlive
  // their creators (labels elsewhere may still reference the handle). The
  // port's vnode is gone.
  EXPECT_EQ(after.handle_table_bytes, kHandleTableEntryBytes);
  EXPECT_EQ(after.vnode_bytes, 0u);
}

TEST(MemStatsTest, EventProcessLifecycleBalances) {
  Kernel kernel(12);
  Handle service;
  SpawnArgs args;
  args.name = "worker";
  kernel.CreateProcess(
      std::make_unique<ScriptedProcess>(
          [&](ProcessContext& ctx) {
            service = ctx.NewPort(Label::Top());
            ASB_ASSERT(ctx.SetPortLabel(service, Label::Top()) == Status::kOk);
            ctx.EnterEventRealm();
          },
          [&](ProcessContext& ctx, const Message& msg) {
            if (msg.type == 1) {
              ctx.EpExit();
              return;
            }
            ctx.WriteMem(0x50000, "session", 7);  // one private page
          }),
      args);
  SpawnArgs dargs;
  dargs.name = "driver";
  const ProcessId driver = kernel.CreateProcess(std::make_unique<ScriptedProcess>(), dargs);

  const uint64_t before = kernel.MemReport().total_bytes();
  kernel.WithProcessContext(driver, [&](ProcessContext& ctx) {
    ASSERT_EQ(ctx.Send(service, Message()), Status::kOk);
  });
  kernel.RunUntilIdle();
  const KernelMemReport with_ep = kernel.MemReport();
  EXPECT_EQ(with_ep.ep_bytes, kEpKernelBytes);
  EXPECT_GE(with_ep.page_bytes, kPageSize) << "the EP's private page is real";
  EXPECT_GT(with_ep.total_bytes(), before);

  // Kill the EP via its own port.
  Process* worker = kernel.FindProcessByName("worker");
  ASSERT_NE(worker, nullptr);
  ASSERT_EQ(worker->eps.size(), 1u);
  // Address the EP through the service port again? The EP owns no port here;
  // a second base-port message would fork a new EP. Send the exit request to
  // the same EP is impossible without its port, so exit the whole process.
  kernel.WithProcessContext(worker->id, [&](ProcessContext& ctx) { ctx.Exit(); });
  const KernelMemReport after = kernel.MemReport();
  EXPECT_EQ(after.ep_bytes, 0u);
  EXPECT_EQ(after.page_bytes, 0u);
  EXPECT_EQ(after.queue_arena_bytes, 0u);
}

TEST(MemStatsTest, QueueBytesTrackPendingMessages) {
  Kernel kernel(13);
  std::vector<testing::RecorderProcess::Received> got;
  SpawnArgs rargs;
  rargs.name = "rx";
  const ProcessId rx = kernel.CreateProcess(
      std::make_unique<testing::RecorderProcess>(&got), rargs);
  Handle port;
  kernel.WithProcessContext(rx, [&](ProcessContext& ctx) {
    port = ctx.NewPort(Label::Top());
    ASSERT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
  });
  SpawnArgs sargs;
  sargs.name = "tx";
  const ProcessId tx = kernel.CreateProcess(std::make_unique<ScriptedProcess>(), sargs);
  const uint64_t before = kernel.MemReport().queue_bytes;
  kernel.WithProcessContext(tx, [&](ProcessContext& ctx) {
    Message m;
    m.data = std::string(1000, 'x');
    ASSERT_EQ(ctx.Send(port, std::move(m)), Status::kOk);
  });
  const uint64_t queued = kernel.MemReport().queue_bytes;
  EXPECT_GE(queued - before, 1000u);
  kernel.RunUntilIdle();
  EXPECT_EQ(kernel.MemReport().queue_bytes, before) << "delivery drains the queue bytes";
}

TEST(MemStatsTest, QueueBytesCountFanOutPayloadBufferOnce) {
  // A 1→K fan-out of one Payload sits in K queues but is one buffer in
  // memory; queue_bytes charges the per-message envelope K times and the
  // payload buffer exactly once (see Kernel::AddQueueAccounting).
  constexpr size_t kFanOut = 4;
  constexpr size_t kBodyBytes = 4096;
  Kernel kernel(14);
  std::vector<testing::RecorderProcess::Received> got;
  SpawnArgs rargs;
  rargs.name = "rx";
  const ProcessId rx = kernel.CreateProcess(
      std::make_unique<testing::RecorderProcess>(&got), rargs);
  std::vector<Handle> ports;
  kernel.WithProcessContext(rx, [&](ProcessContext& ctx) {
    for (size_t k = 0; k < kFanOut; ++k) {
      const Handle p = ctx.NewPort(Label::Top());
      ASSERT_EQ(ctx.SetPortLabel(p, Label::Top()), Status::kOk);
      ports.push_back(p);
    }
  });
  SpawnArgs sargs;
  sargs.name = "tx";
  const ProcessId tx = kernel.CreateProcess(std::make_unique<ScriptedProcess>(), sargs);
  const uint64_t before = kernel.MemReport().queue_bytes;
  const Payload body(std::string(kBodyBytes, 'x'));
  kernel.WithProcessContext(tx, [&](ProcessContext& ctx) {
    for (const Handle p : ports) {
      Message m;
      m.data = body;  // refcount share: K queue entries, one buffer
      ASSERT_EQ(ctx.Send(p, std::move(m)), Status::kOk);
    }
  });
  const uint64_t queued = kernel.MemReport().queue_bytes - before;
  EXPECT_EQ(queued, kFanOut * kQueuedMessageOverheadBytes + kBodyBytes)
      << "K envelopes, ONE payload buffer";
  kernel.RunUntilIdle();
  EXPECT_EQ(got.size(), kFanOut);
  EXPECT_EQ(kernel.MemReport().queue_bytes, before) << "delivery drains every entry";
}

// queue_bytes must be exact however a payload buffer is held: alone by its
// queued message (tracked in the message), or shared with another queued
// message or with the sender (refcounted by the kernel) — and it must return
// exactly to its baseline however the messages leave the queue.
enum class QueueExit { kDelivery, kClosePort, kProcessExit };
constexpr QueueExit kQueueExits[] = {QueueExit::kDelivery, QueueExit::kClosePort,
                                     QueueExit::kProcessExit};

class QueueAccountingWorld {
 public:
  explicit QueueAccountingWorld(size_t port_count) : kernel_(16) {
    SpawnArgs rargs;
    rargs.name = "rx";
    rx_ = kernel_.CreateProcess(std::make_unique<testing::RecorderProcess>(&got_), rargs);
    kernel_.WithProcessContext(rx_, [&](ProcessContext& ctx) {
      for (size_t k = 0; k < port_count; ++k) {
        const Handle p = ctx.NewPort(Label::Top());
        ASB_ASSERT(ctx.SetPortLabel(p, Label::Top()) == Status::kOk);
        ports_.push_back(p);
      }
    });
    SpawnArgs sargs;
    sargs.name = "tx";
    tx_ = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), sargs);
    baseline_ = kernel_.MemReport().queue_bytes;
  }

  void Send(size_t port, Payload data, MessageWords words = {}) {
    kernel_.WithProcessContext(tx_, [&](ProcessContext& ctx) {
      Message m;
      m.words = std::move(words);
      m.data = std::move(data);
      ASSERT_EQ(ctx.Send(ports_[port], std::move(m)), Status::kOk);
    });
  }

  // queue_bytes above the baseline.
  uint64_t Queued() { return kernel_.MemReport().queue_bytes - baseline_; }

  void ClosePort(size_t port) {
    kernel_.WithProcessContext(
        rx_, [&](ProcessContext& ctx) { ASSERT_EQ(ctx.ClosePort(ports_[port]), Status::kOk); });
  }

  void Drain(QueueExit how) {
    switch (how) {
      case QueueExit::kDelivery:
        kernel_.RunUntilIdle();
        break;
      case QueueExit::kClosePort:
        for (size_t k = 0; k < ports_.size(); ++k) {
          ClosePort(k);
        }
        break;
      case QueueExit::kProcessExit:
        kernel_.WithProcessContext(rx_, [](ProcessContext& ctx) { ctx.Exit(); });
        break;
    }
  }

  size_t delivered() const { return got_.size(); }

 private:
  Kernel kernel_;
  std::vector<testing::RecorderProcess::Received> got_;
  ProcessId rx_ = kNoProcess;
  ProcessId tx_ = kNoProcess;
  std::vector<Handle> ports_;
  uint64_t baseline_ = 0;
};

TEST(MemStatsTest, QueueBytesExactForSoleOwnerPayload) {
  for (const QueueExit how : kQueueExits) {
    QueueAccountingWorld world(1);
    world.Send(0, std::string(1000, 'x'), {7, 8, 9});
    world.Send(0, std::string());  // an empty buffer: the envelope only
    EXPECT_EQ(world.Queued(), 2 * kQueuedMessageOverheadBytes + 3 * sizeof(uint64_t) + 1000);
    world.Drain(how);
    EXPECT_EQ(world.Queued(), 0u) << static_cast<int>(how);
    EXPECT_EQ(world.delivered(), how == QueueExit::kDelivery ? 2u : 0u);
  }
}

// Each queued word is charged 8 bytes whether it sits inline in the message
// (up to two) or in a heap array (three or more).
TEST(MemStatsTest, QueueBytesCountEveryWordInlineOrNot) {
  const MessageWords kWords[] = {{11}, {11, 22}, {11, 22, 33}};
  for (const QueueExit how : kQueueExits) {
    QueueAccountingWorld world(1);
    uint64_t expected = 0;
    for (const MessageWords& words : kWords) {
      world.Send(0, Payload(), words);
      expected += kQueuedMessageOverheadBytes + words.size() * sizeof(uint64_t);
      EXPECT_EQ(world.Queued(), expected) << words.size() << " words";
    }
    world.Drain(how);
    EXPECT_EQ(world.Queued(), 0u) << static_cast<int>(how);
    EXPECT_EQ(world.delivered(), how == QueueExit::kDelivery ? 3u : 0u);
  }
}

TEST(MemStatsTest, QueueBytesExactForPayloadQueuedAtTwoPorts) {
  constexpr uint64_t kBody = 4096;
  for (const QueueExit how : kQueueExits) {
    QueueAccountingWorld world(2);
    Payload body(std::string(kBody, 'y'));
    world.Send(0, body);
    world.Send(1, std::move(body));  // the sender keeps no copy
    EXPECT_EQ(world.Queued(), 2 * kQueuedMessageOverheadBytes + kBody) << "one buffer";
    if (how == QueueExit::kClosePort) {
      // The buffer stays charged while the other queue still holds it.
      world.ClosePort(0);
      EXPECT_EQ(world.Queued(), kQueuedMessageOverheadBytes + kBody);
      world.ClosePort(1);
    } else {
      world.Drain(how);
    }
    EXPECT_EQ(world.Queued(), 0u) << static_cast<int>(how);
  }
}

TEST(MemStatsTest, QueueBytesExactForPayloadTheSenderKeeps) {
  constexpr uint64_t kBody = 2048;
  for (const QueueExit how : kQueueExits) {
    QueueAccountingWorld world(1);
    auto kept = std::make_unique<Payload>(std::string(kBody, 'z'));
    world.Send(0, *kept);
    EXPECT_EQ(world.Queued(), kQueuedMessageOverheadBytes + kBody);
    // Dropping the sender's copy leaves the queued message the buffer's only
    // holder; the charge neither changes now nor leaks at dequeue.
    kept.reset();
    EXPECT_EQ(world.Queued(), kQueuedMessageOverheadBytes + kBody);
    world.Drain(how);
    EXPECT_EQ(world.Queued(), 0u) << static_cast<int>(how);
  }
}

TEST(MemStatsTest, PeakTracksHighWaterMark) {
  Kernel kernel(14);
  SpawnArgs args;
  args.name = "spiky";
  const ProcessId pid = kernel.CreateProcess(std::make_unique<ScriptedProcess>(), args);
  kernel.ResetPeakTotalBytes();
  const uint64_t baseline = kernel.peak_total_bytes();
  kernel.WithProcessContext(pid, [&](ProcessContext& ctx) {
    const uint64_t addr = ctx.AllocPages(8);
    for (int i = 0; i < 8; ++i) {
      ctx.WriteMem(addr + static_cast<uint64_t>(i) * kPageSize, "x", 1);
    }
    ctx.ModelHeapBytes(50000);
    ctx.ModelHeapBytes(-50000);
    ctx.FreePages(addr, 8);
  });
  EXPECT_GE(kernel.peak_total_bytes(), baseline + 8 * kPageSize + 50000)
      << "the peak must remember the spike after it subsides";
  EXPECT_LT(kernel.MemReport().total_bytes(), kernel.peak_total_bytes());
}

TEST(MemStatsTest, LabelBytesAreLive) {
  Kernel kernel(15);
  const uint64_t before = kernel.MemReport().label_bytes;
  SpawnArgs args;
  args.name = "labeled";
  const ProcessId pid = kernel.CreateProcess(std::make_unique<ScriptedProcess>(), args);
  kernel.WithProcessContext(pid, [&](ProcessContext& ctx) {
    for (int i = 0; i < 200; ++i) {
      ctx.NewHandle();  // each adds a ⋆ entry to the send label
    }
  });
  EXPECT_GT(kernel.MemReport().label_bytes, before);
  kernel.WithProcessContext(pid, [&](ProcessContext& ctx) { ctx.Exit(); });
  // The process's labels are gone; factory-default labels may remain live
  // elsewhere, so compare against the entry-laden level, not exact equality.
  EXPECT_LT(kernel.MemReport().label_bytes, before + 400);
}

// The OKDB read fan-out (§7.5): a sender holding ⋆ for many users sends one
// message per row, each contaminated with its owner's {uT 3, ⋆}, and the
// kernel drops the rows the reader may not see. Each message snapshots its
// ES = PS ⊔ CS; the rows of one owner share one canonical ES rep while they
// are queued, so the label heap of the fan-out grows with the owners, not
// with the rows.
TEST(MemStatsTest, FanOutRowsShareOneEffectiveSendPerOwner) {
  constexpr int kHandles = 600;
  constexpr int kOwners = 10;
  constexpr int kRows = 1000;
  Kernel kernel(33);
  std::vector<testing::RecorderProcess::Received> got;
  SpawnArgs rargs;
  rargs.name = "reader";
  const ProcessId rx = kernel.CreateProcess(
      std::make_unique<testing::RecorderProcess>(&got), rargs);
  Handle port;
  kernel.WithProcessContext(rx, [&](ProcessContext& ctx) {
    port = ctx.NewPort(Label::Top());
    ASSERT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
  });
  SpawnArgs sargs;
  sargs.name = "dbproxy";
  const ProcessId tx = kernel.CreateProcess(std::make_unique<ScriptedProcess>(), sargs);
  std::vector<Label> taints;
  kernel.WithProcessContext(tx, [&](ProcessContext& ctx) {
    for (int i = 0; i < kHandles; ++i) {
      const Handle h = ctx.NewHandle();  // a ⋆ entry in the send label
      if (i % (kHandles / kOwners) == 0) {
        taints.push_back(Label({{h, Level::kL3}}, Level::kStar));
      }
    }
  });
  ASSERT_EQ(taints.size(), static_cast<size_t>(kOwners));

  // What one send-time ES clone of the sender's label costs: a rep and the
  // one chunk the taint rewrites.
  const Label& ps = kernel.SendLabelOf(tx);
  ASSERT_GE(ps.entry_count(), 500u);
  int64_t clone_bytes = 0;
  {
    const int64_t live = GetLabelMemStats().live_bytes;
    Label clone = ps;
    clone.Set(taints[0].Entries()[0].first, Level::kL3);
    clone_bytes = GetLabelMemStats().live_bytes - live;
  }
  ASSERT_GT(clone_bytes, 0);

  const KernelMemReport before = kernel.MemReport();
  const uint64_t drops_before = kernel.stats().drops_label_check;
  kernel.WithProcessContext(tx, [&](ProcessContext& ctx) {
    for (int row = 0; row < kRows; ++row) {
      SendArgs args;
      args.contaminate = taints[row % kOwners];
      Message m;
      m.data = "row";
      ASSERT_EQ(ctx.Send(port, std::move(m), args), Status::kOk);
    }
  });
  const KernelMemReport queued = kernel.MemReport();
  EXPECT_EQ(kernel.QueuedMessageCount(port), static_cast<size_t>(kRows));
  const uint64_t label_growth = (queued.label_bytes + queued.label_intern_index_bytes) -
                                (before.label_bytes + before.label_intern_index_bytes);
  RecordProperty("label_growth", std::to_string(label_growth));
  EXPECT_LE(label_growth, kOwners * (clone_bytes + kLabelInternEntryBytes))
      << "queued rows of one owner must share one effective-send label";

  kernel.RunUntilIdle();
  EXPECT_TRUE(got.empty()) << "the reader may see none of the rows";
  EXPECT_EQ(kernel.stats().drops_label_check, drops_before + kRows);
  const KernelMemReport after = kernel.MemReport();
  EXPECT_EQ(after.label_bytes, before.label_bytes);
  EXPECT_EQ(after.label_intern_index_bytes, before.label_intern_index_bytes);
  EXPECT_EQ(after.queue_bytes, before.queue_bytes);
}

// --- Million-compartment scale: accounting invariants ----------------------

// total_bytes() must be exactly the sum of every constituent field (and
// nothing else) — a new field that forgets to join the sum, or a field
// counted twice, breaks the Figure-6 and bench_scale numbers silently.
TEST(MemStatsTest, TotalBytesIsExactlyTheSumOfItsFields) {
  Kernel kernel(31);
  SpawnArgs args;
  args.name = "holder";
  const ProcessId pid = kernel.CreateProcess(std::make_unique<ScriptedProcess>(), args);
  kernel.WithProcessContext(pid, [&](ProcessContext& ctx) {
    ctx.NewHandle();  // plain handles: dense slots, not vnodes
    ctx.NewHandle();
    const Handle port = ctx.NewPort(Label::Top());
    ASB_ASSERT(ctx.SetPortLabel(port, Label::Top()) == Status::kOk);
    ctx.AllocPages(1);
    ctx.ModelHeapBytes(512);
  });

  const KernelMemReport r = kernel.MemReport();
  const uint64_t sum = r.vnode_bytes + r.process_bytes + r.ep_bytes + r.label_bytes +
                       r.label_intern_index_bytes + r.page_bytes + r.overlay_slot_bytes +
                       r.queue_bytes + r.queue_arena_bytes + r.modeled_heap_bytes +
                       r.store_bytes + r.session_bytes + r.binding_bytes +
                       r.handle_table_bytes;
  EXPECT_EQ(r.total_bytes(), sum);
  EXPECT_EQ(r.handle_table_bytes, 2 * kHandleTableEntryBytes)
      << "plain handles must be charged as dense slots";
}

// Dedup savings are informational (bytes never allocated): cumulative,
// monotone, and excluded from total_bytes().
TEST(MemStatsTest, DedupSavedBytesAreMonotoneAndOutsideTheTotal) {
  Kernel kernel(32);
  SpawnArgs args;
  args.name = "deduper";
  const ProcessId pid = kernel.CreateProcess(std::make_unique<ScriptedProcess>(), args);
  const uint64_t saved0 = kernel.MemReport().label_dedup_saved_bytes;
  kernel.WithProcessContext(pid, [&](ProcessContext& ctx) {
    // Two independently built, extensionally equal labels: canonicalizing
    // the second must be a dedup hit against the first's live rep (sharing
    // one Label object would be a mere refcount bump, not a dedup).
    const Handle tag = ctx.NewHandle();
    Label first = Label::Top();
    first.Set(tag, Level::kL1);
    first.Canonicalize();
    Label second = Label::Top();
    second.Set(tag, Level::kL1);
    second.Canonicalize();
    ASB_ASSERT(first.rep_id() == second.rep_id());
    const Handle p1 = ctx.NewPort(first);
    (void)p1;
  });
  const KernelMemReport r1 = kernel.MemReport();
  EXPECT_GT(r1.label_dedup_saved_bytes, saved0) << "identical labels must dedup";

  // Saved bytes never shrink, even as live labels are torn down.
  kernel.WithProcessContext(pid, [&](ProcessContext& ctx) { ctx.Exit(); });
  const KernelMemReport r2 = kernel.MemReport();
  EXPECT_GE(r2.label_dedup_saved_bytes, r1.label_dedup_saved_bytes);

  // And they are not part of the live total: the sum of constituents (which
  // omits the saved counter) still reproduces total_bytes() exactly.
  const uint64_t sum = r2.vnode_bytes + r2.process_bytes + r2.ep_bytes + r2.label_bytes +
                       r2.label_intern_index_bytes + r2.page_bytes + r2.overlay_slot_bytes +
                       r2.queue_bytes + r2.queue_arena_bytes + r2.modeled_heap_bytes +
                       r2.store_bytes + r2.session_bytes + r2.binding_bytes +
                       r2.handle_table_bytes;
  EXPECT_EQ(r2.total_bytes(), sum);
}

}  // namespace
}  // namespace asbestos
