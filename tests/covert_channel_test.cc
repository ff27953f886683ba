// Paper Section 8: covert channels. Asbestos does not eliminate covert
// channels; it *enumerates* them and closes the ones exploitable from a
// single process. These tests document both sides: the design points that
// close channels (encrypted handle values, unreliable send, closed-by-default
// ports) and the two inherent storage channels the paper admits to (labels
// observable through lack of communication, scheduling order), demonstrating
// that each requires at least two cooperating processes.
#include <gtest/gtest.h>

#include <set>

#include "src/kernel/kernel.h"
#include "src/obs/event_log.h"
#include "tests/test_util.h"

namespace asbestos {
namespace {

using testing::RecorderProcess;
using testing::ScriptedProcess;

class CovertChannelTest : public ::testing::Test {
 protected:
  Kernel kernel_{0xc0def11eULL};
  std::vector<RecorderProcess::Received> received_;

  ProcessId MakeProcess(const std::string& name) {
    SpawnArgs args;
    args.name = name;
    return kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), args);
  }

  std::pair<ProcessId, Handle> MakeRecorder(const std::string& name) {
    SpawnArgs args;
    args.name = name;
    const ProcessId pid =
        kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), args);
    Handle port;
    kernel_.WithProcessContext(pid, [&](ProcessContext& ctx) {
      port = ctx.NewPort(Label::Top());
      EXPECT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
    });
    return {pid, port};
  }
};

TEST_F(CovertChannelTest, HandleValuesDoNotRevealAllocationCount) {
  // "Handles are generated by incrementing a 61-bit counter, which is a
  // storage channel. However, since the kernel encrypts the counter value to
  // produce handles, the user-visible sequence of handles does not convey
  // exploitable information."
  const ProcessId a = MakeProcess("a");
  const ProcessId b = MakeProcess("b");
  std::vector<uint64_t> a_before;
  std::vector<uint64_t> a_after;
  kernel_.WithProcessContext(a, [&](ProcessContext& ctx) {
    for (int i = 0; i < 32; ++i) {
      a_before.push_back(ctx.NewHandle().value());
    }
  });
  // b allocates a *lot* in between.
  kernel_.WithProcessContext(b, [&](ProcessContext& ctx) {
    for (int i = 0; i < 1000; ++i) {
      ctx.NewHandle();
    }
  });
  kernel_.WithProcessContext(a, [&](ProcessContext& ctx) {
    for (int i = 0; i < 32; ++i) {
      a_after.push_back(ctx.NewHandle().value());
    }
  });
  // If handles were the raw counter, after-values would all exceed
  // before-values by ≥1000. Encrypted values interleave unpredictably.
  int after_larger = 0;
  for (int i = 0; i < 32; ++i) {
    if (a_after[i] > a_before[i]) {
      ++after_larger;
    }
  }
  EXPECT_GT(after_larger, 4);
  EXPECT_LT(after_larger, 28) << "ordering must not reveal the allocation gap";
}

TEST_F(CovertChannelTest, SendReportsSuccessRegardlessOfOutcome) {
  // Reliable delivery notification would let labels modulate an observable
  // bit. send must return the same answer whether the message is delivered,
  // dropped by labels, or sent into the void.
  auto [rx, open_port] = MakeRecorder("rx");
  (void)rx;
  Handle closed_port;
  kernel_.WithProcessContext(rx, [&](ProcessContext& ctx) {
    closed_port = ctx.NewPort(Label::Top());  // stays closed: pR(p) = 0
  });
  const ProcessId tx = MakeProcess("tx");
  kernel_.WithProcessContext(tx, [&](ProcessContext& ctx) {
    EXPECT_EQ(ctx.Send(open_port, Message{}), Status::kOk);
    EXPECT_EQ(ctx.Send(closed_port, Message{}), Status::kOk);
    EXPECT_EQ(ctx.Send(Handle::FromValue(0xbad), Message{}), Status::kOk);
    // Even privilege violations are silent.
    SendArgs args;
    args.decont_send = Label({{Handle::FromValue(0x777), Level::kStar}}, Level::kL3);
    EXPECT_EQ(ctx.Send(open_port, Message{}, args), Status::kOk);
  });
  kernel_.RunUntilIdle();
  EXPECT_EQ(received_.size(), 1u) << "exactly the one permitted message arrived";
}

TEST_F(CovertChannelTest, PortNamesAreUnpredictable) {
  // "the ability to create a port with a specific name would be a covert
  // channel" — port names come from the same encrypted sequence as handles.
  const ProcessId a = MakeProcess("a");
  std::set<uint64_t> values;
  uint64_t max_gap = 0;
  uint64_t prev = 0;
  kernel_.WithProcessContext(a, [&](ProcessContext& ctx) {
    for (int i = 0; i < 64; ++i) {
      const uint64_t v = ctx.NewPort(Label::Top()).value();
      EXPECT_TRUE(values.insert(v).second);
      if (prev != 0) {
        max_gap = std::max(max_gap, v > prev ? v - prev : prev - v);
      }
      prev = v;
    }
  });
  EXPECT_GT(max_gap, 1ULL << 40) << "consecutive port names must be far apart";
}

TEST_F(CovertChannelTest, LabelObservationChannelNeedsTwoProcesses) {
  // The paper's B0/B1 heartbeat channel: tainted A contaminates one of two
  // colluding untainted processes; C learns a bit from which heartbeat
  // stops. We reproduce it to document that it (a) works and (b) requires
  // two cooperating processes beyond A — the design goal was only that *one*
  // process cannot leak ("at least two cooperating processes are required").
  const ProcessId a = MakeProcess("A");
  Handle taint;
  kernel_.WithProcessContext(a, [&](ProcessContext& ctx) {
    taint = ctx.NewHandle();
    EXPECT_EQ(ctx.SetSendLevel(taint, Level::kL3), Status::kOk);  // A is tainted
  });

  auto [c, c_port] = MakeRecorder("C");
  (void)c;

  // B0 and B1: untainted heartbeaters with open ports and permissive
  // receive labels (they accept anything — they are colluders).
  Handle b_ports[2];
  ProcessId b_pids[2];
  for (int i = 0; i < 2; ++i) {
    SpawnArgs args;
    args.name = i == 0 ? "B0" : "B1";
    args.recv_label = Label(Level::kL3);  // accepts arbitrary taint
    b_pids[i] = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), args);
    kernel_.WithProcessContext(b_pids[i], [&](ProcessContext& ctx) {
      b_ports[i] = ctx.NewPort(Label::Top());
      EXPECT_EQ(ctx.SetPortLabel(b_ports[i], Label::Top()), Status::kOk);
    });
  }

  // A transmits the bit 1 by contaminating B1.
  kernel_.WithProcessContext(a, [&](ProcessContext& ctx) {
    EXPECT_EQ(ctx.Send(b_ports[1], Message{}), Status::kOk);
  });
  kernel_.RunUntilIdle();

  // Both Bs heartbeat to C. B1's heartbeat now carries A's taint and C
  // (default receive label) never sees it: the missing heartbeat is the bit.
  for (int i = 0; i < 2; ++i) {
    kernel_.WithProcessContext(b_pids[i], [&](ProcessContext& ctx) {
      Message hb;
      hb.data = i == 0 ? "B0" : "B1";
      EXPECT_EQ(ctx.Send(c_port, std::move(hb)), Status::kOk);
    });
  }
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].msg.data, "B0") << "C decodes the bit from which heartbeat survived";
  // The channel exists — as the paper concedes ("inherent to any system with
  // run-time checking of dynamic labels") — but it consumed two colluding
  // processes (B0, B1), which is exactly what restricting fork rates bounds.
}

TEST_F(CovertChannelTest, SingleProcessCannotProbeItsOwnDrops) {
  // A lone tainted process gets no observable signal about whether its sends
  // are delivered: same return codes, no label changes, no errors.
  auto [rx, port] = MakeRecorder("innocent");
  (void)rx;
  const ProcessId lone = MakeProcess("lone");
  Handle taint;
  Label before_send;
  Label before_recv;
  kernel_.WithProcessContext(lone, [&](ProcessContext& ctx) {
    taint = ctx.NewHandle();
    EXPECT_EQ(ctx.SetSendLevel(taint, Level::kL3), Status::kOk);
    before_send = ctx.send_label();
    before_recv = ctx.recv_label();
    EXPECT_EQ(ctx.Send(port, Message{}), Status::kOk);  // will be dropped
  });
  kernel_.RunUntilIdle();
  kernel_.WithProcessContext(lone, [&](ProcessContext& ctx) {
    EXPECT_TRUE(ctx.send_label().Equals(before_send));
    EXPECT_TRUE(ctx.recv_label().Equals(before_recv));
  });
  EXPECT_TRUE(received_.empty());
}

TEST_F(CovertChannelTest, EventProcessesReduceConcurrentStorageChannels) {
  // §8: "Event processes reduce concurrency, thereby also reducing the
  // number of send labels and program counters available as storage
  // channels at any given time." Quantify: N sessions as event processes
  // add N×44 bytes of kernel state and N send labels inside ONE schedulable
  // process, versus N full processes each with its own PC and 320-byte
  // structure.
  EXPECT_LT(kEpKernelBytes * 10, kProcessKernelBytes * 2);
  // The structural point: an event-process worker is a single process to
  // the scheduler — tests/event_process_test.cc covers the semantics.
}

TEST_F(CovertChannelTest, TraceSpansAreNotACountingChannel) {
  // The observability plane (src/obs) records system history, and history
  // is state: if a low-clearance reader could count trace events — even
  // without reading them — the *number of secret requests* would leak the
  // same way port-existence would. The reader therefore filters by each
  // trace's gate (the lub of everything it recorded), so a secret trace's
  // early untainted events (its netd accept, before any contamination) are
  // invisible too.
  obs::EventLog& log = obs::EventLog::Get();
  obs::EventLog::SetEnabled(true);
  log.Clear();
  const Label secret({{Handle::FromValue(99), Level::kL3}}, Level::kStar);

  // Ten "secret requests": each starts uncontaminated, then touches data
  // at {h 3}. One public request for contrast.
  for (int i = 0; i < 10; ++i) {
    const uint64_t tid = log.MintTraceId();
    log.Span(tid, "netd", "netd.accept", "", Label::Bottom());
    log.Span(tid, "worker", "worker.request", "", secret);
  }
  const uint64_t pub = log.MintTraceId();
  log.Span(pub, "netd", "netd.accept", "", Label::Bottom());

  // A reader at default clearance learns nothing that distinguishes "ten
  // secret requests happened" from "none did": same visible events, same
  // visible count.
  obs::Reader low(Label::DefaultReceive());
  EXPECT_EQ(low.VisibleCount(obs::kSpans), 1u);
  ASSERT_EQ(low.Visible(obs::kSpans).size(), 1u);
  EXPECT_EQ(low.Visible(obs::kSpans)[0].trace_id, pub);

  // A reader cleared for {h 3} sees the full history.
  obs::Reader high(Label::Top());
  EXPECT_EQ(high.VisibleCount(obs::kSpans), 21u);

  log.Clear();
  obs::EventLog::SetEnabled(false);
}

TEST_F(CovertChannelTest, EdgesAndRefusalsAreNotACountingChannel) {
  // Taint provenance is history about *labels themselves* — "who got
  // tainted with u" is at least as secret as u — so the same discipline
  // applies: a low-clearance reader must not be able to count edges or
  // refusals, and once a trace produced one secret-gated record, even its
  // later public records stay out of the low reader's count.
  obs::EventLog& log = obs::EventLog::Get();
  obs::EventLog::SetEnabled(true);
  log.Clear();
  const Label secret({{Handle::FromValue(99), Level::kL3}}, Level::kL1);

  // Ten "secret requests": each contaminates a worker at {h 3} and then
  // emits a public-gated adoption on the SAME trace. One public request.
  for (uint64_t i = 0; i < 10; ++i) {
    const uint64_t tid = 1000 + i;
    log.Edge(obs::RecordKind::kContaminate, "worker", "dbproxy", 0, 0, secret, tid);
    log.Edge(obs::RecordKind::kAdopt, "store.shard0", "primary", 0, 0, Label::Bottom(), tid);
    log.Refusal("kernel.delivery", "worker", "ES(99) = 3 exceeds bound 2", 99, Level::kL3,
                Level::kL2, secret, Label::DefaultReceive(), tid);
  }
  log.Edge(obs::RecordKind::kContaminate, "echo", "netd", 0, 0, Label::Bottom(), 2000);

  // A reader at default clearance learns nothing that distinguishes "ten
  // secret requests happened" from "none did": one visible edge, zero
  // refusals, and the counts agree with the visible sets exactly.
  obs::Reader low(Label::DefaultReceive());
  EXPECT_EQ(low.VisibleCount(obs::kEdges), 1u);
  ASSERT_EQ(low.Visible(obs::kEdges).size(), 1u);
  EXPECT_EQ(low.Visible(obs::kEdges)[0].trace_id, 2000u);
  EXPECT_EQ(low.VisibleCount(obs::kRefusals), 0u);
  EXPECT_TRUE(low.Visible(obs::kRefusals).empty());
  // WhyTainted refuses partial answers: the chain exists but is above the
  // reader, so the answer is empty, not truncated.
  EXPECT_TRUE(low.WhyTainted("worker", 99).empty());

  // A reader cleared for {h 3} sees the full history.
  obs::Reader high(Label::Top());
  EXPECT_EQ(high.VisibleCount(obs::kEdges), 21u);
  EXPECT_EQ(high.VisibleCount(obs::kRefusals), 10u);
  EXPECT_EQ(high.WhyTainted("worker", 99).size(), 1u);

  log.Clear();
  obs::EventLog::SetEnabled(false);
}

TEST_F(CovertChannelTest, RetiredSecretTraceIsNotCountable) {
  // Bounding the log's memory must not reopen the counting channel. Once
  // every record of a secret trace is evicted its gate is dropped too — so
  // a late public record of that trace (the reply span of a long request)
  // must be gated at ⊤, not read as a fresh public trace.
  obs::EventLog& log = obs::EventLog::Get();
  obs::EventLog::SetEnabled(true);
  log.Clear();
  log.SetCapacity(4);
  const Label secret({{Handle::FromValue(99), Level::kL3}}, Level::kStar);
  const uint64_t tid = log.MintTraceId();
  log.Span(tid, "netd", "netd.accept", "", Label::Bottom());
  log.Span(tid, "worker", "worker.request", "", secret);
  // Public cover traffic evicts every record of the secret trace.
  for (int i = 0; i < 4; ++i) {
    log.Span(log.MintTraceId(), "netd", "netd.accept", "", Label::Bottom());
  }
  ASSERT_EQ(log.live_gates(), 4u) << "the secret trace's gate was retired";

  log.Span(tid, "netd", "netd.reply", "", Label::Bottom());
  // The late span evicted one public span: a low reader counts exactly the
  // three public spans left, as if the secret request never replied.
  obs::Reader low(Label::DefaultReceive());
  EXPECT_FALSE(low.CanObserveTrace(tid));
  EXPECT_EQ(low.VisibleCount(), 3u);
  for (const obs::Record& r : low.Visible()) {
    EXPECT_NE(r.trace_id, tid);
  }
  obs::Reader top(Label::Top());
  EXPECT_EQ(top.VisibleCount(), 4u);
  EXPECT_EQ(top.Visible().back().trace_id, tid);

  log.SetCapacity(8192);
  log.Clear();
  obs::EventLog::SetEnabled(false);
}

}  // namespace
}  // namespace asbestos
