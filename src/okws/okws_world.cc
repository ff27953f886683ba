#include "src/okws/okws_world.h"

#include "src/base/strings.h"

namespace asbestos {

OkwsWorld::OkwsWorld(OkwsWorldConfig config) : kernel_(config.boot_key) {
  // Boot the launcher first: it mints the verification handles, including
  // the one netd uses to authenticate LISTEN requests from ok-demux. The
  // boot loader keeps its own copy of the two stores it reads below.
  const DurableOptions idd_options = config.idd_options;
  const DurableOptions dbproxy_options = config.dbproxy_options;
  auto launcher_code =
      std::make_unique<LauncherProcess>(std::move(static_cast<OkwsLauncherConfig&>(config)));
  launcher_ = launcher_code.get();
  SpawnArgs largs;
  largs.name = "launcher";
  largs.component = Component::kOther;
  if (!idd_options.store_dir.empty()) {
    // The boot loader seeds the launcher with ⋆ for every uT/uG recovered
    // from idd's durable cache, making it entitled to re-grant them at
    // spawn. This is the root of the durable trust chain: only the trusted
    // boot path may resurrect privilege, exactly as it assigns labels
    // verbatim at boot. (This transient open duplicates the recovery idd's
    // own constructor performs; boot-time only, and bounded by compaction.)
    const Label stars = IddProcess::RecoveredStars(idd_options);
    for (Label::EntryIter it = stars.IterateEntries(); !it.done(); it.Advance()) {
      if (it.level() == Level::kStar) {
        largs.send_label.Set(it.handle(), Level::kStar);
        // The generator must never re-issue a recovered uT/uG this boot.
        kernel_.ReserveRecoveredHandle(it.handle());
      }
    }
  }
  launcher_pid_ = kernel_.CreateProcess(std::move(launcher_code), std::move(largs));

  // netd is a system component created by the boot loader (paper Fig. 1),
  // told which process may attach listeners.
  auto netd_code = std::make_unique<NetdProcess>(&net_);
  netd_ = netd_code.get();
  SpawnArgs nargs;
  nargs.name = "netd";
  nargs.component = Component::kNetwork;
  nargs.env = {{"demux_verify", launcher_->demux_verify_value()}};
  // idd's and ok-dbproxy's replication endpoints attach their own
  // listeners; netd must recognize their verification handles alongside
  // demux's, one "repl_verify<k>" key each, numbered from 1.
  int repl_listeners = 0;
  const auto authorize_listener = [&](const DurableOptions& options, const char* name) {
    if (options.replication.enabled()) {
      nargs.env["repl_verify" + std::to_string(++repl_listeners)] = launcher_->verify_value(name);
    }
  };
  authorize_listener(idd_options, "idd");
  authorize_listener(dbproxy_options, "dbproxy");
  netd_pid_ = kernel_.CreateProcess(std::move(netd_code), std::move(nargs));

  // Tell the launcher where netd's control port is.
  kernel_.WithProcessContext(launcher_pid_, [&](ProcessContext& ctx) {
    launcher_->ProvideNetd(ctx, netd_->control_port().value());
  });
}

DemuxProcess* OkwsWorld::demux() {
  Process* p = kernel_.FindProcessByName("demux");
  return p == nullptr ? nullptr : dynamic_cast<DemuxProcess*>(p->code.get());
}

void OkwsWorld::Pump() {
  kernel_.WithProcessContext(netd_pid_, [&](ProcessContext& ctx) { netd_->PollNetwork(ctx); });
  kernel_.RunUntilIdle();
}

void OkwsWorld::PumpUntilReady() {
  for (int i = 0; i < 10000 && !launcher_->ready(); ++i) {
    Pump();
  }
  ASB_ASSERT(launcher_->ready() && "OKWS failed to boot");
}

void OkwsWorld::RunClient(HttpLoadClient* client) {
  uint64_t last_progress = ~0ULL;
  int stagnant = 0;
  while (!client->idle()) {
    client->Step();
    Pump();
    const uint64_t progress =
        kernel_.stats().deliveries + client->results().size() + client->failures();
    if (progress == last_progress) {
      if (++stagnant > 1000) {
        break;  // wedged: let the caller's assertions report what is missing
      }
    } else {
      stagnant = 0;
      last_progress = progress;
    }
  }
}

std::string OkwsWorld::MakeRequest(const std::string& target, const std::string& user,
                                   const std::string& pass) {
  return StrFormat(
      "GET %s HTTP/1.0\r\nAuthorization: %s:%s\r\nUser-Agent: loadgen\r\n\r\n",
      target.c_str(), user.c_str(), pass.c_str());
}

}  // namespace asbestos
