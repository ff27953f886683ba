// The full OKWS web server on Asbestos (paper §7), driven over the simulated
// wire: boot the process suite, log in users, exercise session state,
// database-backed notes, decentralized declassification via a profile
// service, and show that users are isolated even though they share worker
// processes and one database.
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/okws/okws_world.h"
#include "src/okws/services.h"

namespace {

using namespace asbestos;  // NOLINT: example brevity

HttpLoadClient::Result Fetch(OkwsWorld& world, const std::string& target,
                             const std::string& user, const std::string& pass) {
  HttpLoadClient client(&world.net(), 80, 4);
  client.Enqueue(OkwsWorld::MakeRequest(target, user, pass), 0);
  world.RunClient(&client);
  if (client.results().empty()) {
    return {};
  }
  return client.results()[0];
}

void Show(const char* what, const HttpLoadClient::Result& r) {
  std::printf("  %-46s -> %d %s\n", what, r.status,
              r.body.size() > 48 ? (r.body.substr(0, 45) + "...").c_str() : r.body.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool events = false;
  bool dump_metrics = false;
  bool profile = false;
  const char* metrics_file = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--events") == 0) {
      events = true;
    } else if (std::strcmp(argv[i], "--dump-metrics") == 0) {
      dump_metrics = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    } else if (std::strcmp(argv[i], "--metrics-file") == 0 && i + 1 < argc) {
      metrics_file = argv[++i];  // snapshot written here at exit (CI smoke)
    } else {
      std::fprintf(stderr,
                   "usage: %s [--events] [--dump-metrics] [--profile] "
                   "[--metrics-file PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (events) {
    asbestos::obs::EventLog::SetEnabled(true);
  }
  if (profile) {
    asbestos::obs::CycleProfiler::SetEnabled(true);
  }

  std::printf("== OKWS on Asbestos: end-to-end demo ==\n\n");

  OkwsWorldConfig config;
  config.users = {{"alice", "wonderland"}, {"bob", "builder"}};
  config.services.push_back({"echo", [] { return std::make_unique<EchoService>(); }, false, {}});
  config.services.push_back(
      {"store", [] { return std::make_unique<StorageService>(); }, false, {}});
  config.services.push_back(
      {"notes", [] { return std::make_unique<NotesService>(); }, false, {}});
  config.services.push_back(
      {"profile", [] { return std::make_unique<ProfileService>(); }, true, {}});
  config.services.push_back(
      {"passwd", [] { return std::make_unique<PasswdService>(); }, false, {}});
  config.extra_tables = {NotesService::kTableSql, ProfileService::kTableSql};

  OkwsWorld world(std::move(config));
  world.PumpUntilReady();
  std::printf("booted: launcher, netd, ok-demux, idd, ok-dbproxy, 5 workers\n\n");

  std::printf("basic requests and authentication:\n");
  Show("GET /echo (alice)", Fetch(world, "/echo?n=20", "alice", "wonderland"));
  Show("GET /echo (bad password)", Fetch(world, "/echo", "alice", "queen-of-hearts"));
  Show("GET /nosuch (alice)", Fetch(world, "/nosuch", "alice", "wonderland"));

  std::printf("\nsession state lives in per-user event processes (§7.3):\n");
  Show("GET /store?d=teacup (alice)", Fetch(world, "/store?d=teacup", "alice", "wonderland"));
  Show("GET /store (alice, next connection)", Fetch(world, "/store", "alice", "wonderland"));
  Show("GET /store (bob sees his own state)", Fetch(world, "/store", "bob", "builder"));

  std::printf("\ndatabase rows are tainted per user (§7.5):\n");
  Show("alice adds a note", Fetch(world, "/notes?op=add&text=buy+tarts", "alice", "wonderland"));
  Show("bob adds a note", Fetch(world, "/notes?op=add&text=fix+roof", "bob", "builder"));
  Show("alice lists notes", Fetch(world, "/notes?op=list", "alice", "wonderland"));
  Show("bob lists notes (no tarts!)", Fetch(world, "/notes?op=list", "bob", "builder"));

  std::printf("\ndecentralized declassification via the profile worker (§7.6):\n");
  Show("alice publishes her profile",
       Fetch(world, "/profile?op=set&text=Curiouser+and+curiouser", "alice", "wonderland"));
  Show("bob reads alice's public profile",
       Fetch(world, "/profile?op=get&who=alice", "bob", "builder"));

  std::printf("\npassword changes go through idd with a speaks-for proof (§5.4):\n");
  Show("alice changes her password",
       Fetch(world, "/passwd?old=wonderland&new=looking-glass", "alice", "wonderland"));
  Show("old password now fails", Fetch(world, "/echo", "alice", "wonderland"));
  Show("new password works", Fetch(world, "/echo", "alice", "looking-glass"));

  const KernelStats& stats = world.kernel().stats();
  std::printf("\nkernel totals: %llu deliveries, %llu label-check drops, "
              "%llu event processes created\n",
              (unsigned long long)stats.deliveries,
              (unsigned long long)stats.drops_label_check,
              (unsigned long long)stats.eps_created);
  std::printf("every cross-user denial above was kernel label enforcement, not "
              "application politeness.\n");

  if (events) {
    // Run one more request and print its span chain alone: netd.accept ->
    // demux.dispatch -> worker.request -> dbproxy.stmt -> worker.respond ->
    // netd.reply. Everything is read through a full-clearance reader (a
    // low-clearance reader would see, and count, nothing high).
    const obs::EventLog& log = obs::EventLog::Get();
    const uint64_t first_seq = log.total_appended();
    std::printf("\nspan timeline for one request (--events):\n");
    Show("GET /notes?op=list (alice)",
         Fetch(world, "/notes?op=list", "alice", "looking-glass"));
    obs::Reader reader(Label::Top());
    for (const obs::Record& r : reader.Visible(obs::kSpans)) {
      if (r.seq >= first_seq) {
        std::printf("  trace=%llu @%-8llu %-8s %-16s %-32s label=%s\n",
                    (unsigned long long)r.trace_id, (unsigned long long)r.at_cycles,
                    r.subject.c_str(), r.name.c_str(), r.detail.c_str(),
                    r.label.ToString().c_str());
      }
    }

    // Answer "why is this process tainted?" for the newest contamination:
    // walk its taint back hop by hop to the origin, then list the refusals.
    const obs::Record* newest = nullptr;
    for (const obs::Record& r : log.records()) {
      if (r.kind == obs::RecordKind::kContaminate) {
        newest = &r;
      }
    }
    if (newest != nullptr) {
      uint64_t handle = 0;
      for (const auto& [h, level] : newest->label.Entries()) {
        if (LevelLeq(Level::kL2, level)) {
          handle = h.value();
          break;
        }
      }
      std::printf("\nWhyTainted(%s, handle %llu):\n", newest->subject.c_str(),
                  (unsigned long long)handle);
      for (const obs::TaintHop& hop : reader.WhyTainted(newest->subject, handle)) {
        std::printf("  #%-6llu @%-8llu %s\n", (unsigned long long)hop.edge.seq,
                    (unsigned long long)hop.edge.at_cycles, hop.via.c_str());
      }
    }
    const std::vector<obs::Record> refusals = reader.Visible(obs::kRefusals);
    std::printf("\nrefusals (%zu retained):\n", refusals.size());
    for (const obs::Record& r : refusals) {
      std::printf("  #%-6llu %-24s %-10s %s\n", (unsigned long long)r.seq, r.name.c_str(),
                  r.subject.c_str(), r.detail.c_str());
    }
  }

  if (profile) {
    std::printf("\ncollapsed-stack flamegraph (--profile):\n%s",
                obs::CycleProfiler::Get().CollapsedStacks().c_str());
  }

  if (dump_metrics) {
    std::printf("\nmetrics snapshot (--dump-metrics):\n%s\n",
                obs::Registry::Get().SnapshotJson().c_str());
  }
  if (metrics_file != nullptr &&
      !obs::Registry::Get().WriteSnapshotFile(metrics_file)) {
    std::fprintf(stderr, "failed to write %s\n", metrics_file);
    return 1;
  }
  return 0;
}
