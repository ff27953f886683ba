#include "src/okws/launcher.h"

#include "src/okws/demux.h"
#include "src/okws/idd.h"
#include "src/db/dbproxy.h"

namespace asbestos {

using okws_proto::MessageType;

void LauncherProcess::Start(ProcessContext& ctx) {
  port_ = ctx.NewPort(Label::Top());
  ASB_ASSERT(ctx.SetPortLabel(port_, Label::Top()) == Status::kOk);

  // One verification handle per child (paper §7.1). Creating them makes the
  // launcher the ⋆-holder, entitled to spawn children carrying them at 0.
  verify_["dbproxy"] = ctx.NewHandle();
  verify_["idd"] = ctx.NewHandle();
  verify_["demux"] = ctx.NewHandle();
  for (const OkwsServiceSpec& svc : config_.services) {
    verify_["worker:" + svc.name] = ctx.NewHandle();
  }

  const auto spawn_child = [&](const std::string& name, Component component,
                               std::unique_ptr<ProcessCode> code,
                               std::map<std::string, uint64_t> extra_env,
                               const Label& extra_stars = Label::Top()) {
    SpawnArgs args;
    args.name = name;
    args.component = component;
    args.send_label = Label({{verify_.at(name), Level::kL0}}, Level::kL1);
    // Pass down recovered ⋆ privileges (the boot loader granted them to us;
    // §5.3: privilege is distributed by forking).
    for (Label::EntryIter it = extra_stars.IterateEntries(); !it.done(); it.Advance()) {
      if (it.level() == Level::kStar) {
        args.send_label.Set(it.handle(), Level::kStar);
      }
    }
    args.env = std::move(extra_env);
    args.env["launcher_port"] = port_.value();
    args.env["self_verify"] = verify_.at(name).value();
    auto result = ctx.Spawn(std::move(code), std::move(args));
    ASB_ASSERT(result.ok());
  };

  spawn_child("dbproxy", Component::kOkdb,
              std::make_unique<DbproxyProcess>(config_.dbproxy_options), {});
  auto idd = std::make_unique<IddProcess>(config_.users, config_.extra_tables,
                                          config_.idd_options);
  const Label idd_stars = idd->recovered_stars();
  spawn_child("idd", Component::kOkws, std::move(idd), {}, idd_stars);

  // Construct (but do not yet spawn) demux: recovering its durable session
  // table now tells us which uT/uG ⋆ it must be re-granted at spawn. Those
  // handles are a subset of idd's recovered identities, whose ⋆ the boot
  // loader already folded into our send label.
  demux_code_ = std::make_unique<DemuxProcess>(config_.demux_options);
  demux_stars_ = demux_code_->recovered_stars();
}

bool LauncherProcess::CheckRegistration(const Message& msg, const std::string& name) const {
  auto it = verify_.find(name);
  if (it == verify_.end()) {
    return false;
  }
  // §7.1: the component proves it is the process we spawned by presenting
  // its verification handle at level 0 in V.
  return LevelLeq(msg.verify.Get(it->second), Level::kL0);
}

void LauncherProcess::MaybeWireIdd(ProcessContext& ctx) {
  if (idd_wired_ || !dbproxy_priv_.valid() || !idd_wire_.valid()) {
    return;
  }
  idd_wired_ = true;
  // Hand idd the capability to ok-dbproxy's privileged port.
  Message wire;
  wire.type = boot_proto::kWire;
  wire.data = "dbpriv";
  wire.words = {dbproxy_priv_.value()};
  SendArgs args;
  args.decont_send = Label({{dbproxy_priv_, Level::kStar}}, Level::kL3);
  ctx.Send(idd_wire_, std::move(wire), args);
}

void LauncherProcess::MaybeSpawnDemux(ProcessContext& ctx) {
  if (demux_spawned_ || !idd_ready_ || !netd_ctl_.valid()) {
    return;
  }
  demux_spawned_ = true;
  SpawnArgs args;
  args.name = "demux";
  args.component = Component::kOkws;
  args.send_label = Label({{verify_.at("demux"), Level::kL0}}, Level::kL1);
  // Re-grant the ⋆ set demux's recovered sessions need (§5.3: privilege is
  // distributed by forking; empty unless session persistence is configured).
  for (Label::EntryIter it = demux_stars_.IterateEntries(); !it.done(); it.Advance()) {
    if (it.level() == Level::kStar) {
      args.send_label.Set(it.handle(), Level::kStar);
    }
  }
  args.env = {{"launcher_port", port_.value()},
              {"self_verify", verify_.at("demux").value()},
              {"netd_ctl", netd_ctl_.value()},
              {"idd_login", idd_login_.value()},
              {"tcp_port", config_.tcp_port}};
  ASB_ASSERT(demux_code_ != nullptr);
  auto result = ctx.Spawn(std::move(demux_code_), std::move(args));
  ASB_ASSERT(result.ok());
}

void LauncherProcess::OnDemuxRegistered(ProcessContext& ctx) {
  // Tell ok-demux which workers to expect, then start them.
  for (const OkwsServiceSpec& svc : config_.services) {
    Message expect;
    expect.type = MessageType::kExpectWorker;
    expect.data = svc.name;
    expect.words = {verify_.at("worker:" + svc.name).value(), svc.declassifier ? 1ULL : 0ULL};
    ctx.Send(demux_wire_, std::move(expect));
  }
  Message done;
  done.type = boot_proto::kWire;
  done.data = "expectations-complete";
  ctx.Send(demux_wire_, std::move(done));

  workers_spawned_ = true;
  for (const OkwsServiceSpec& svc : config_.services) {
    const std::string vname = "worker:" + svc.name;
    SpawnArgs args;
    args.name = "worker-" + svc.name;
    args.component = Component::kOkws;
    args.send_label = Label({{verify_.at(vname), Level::kL0}}, Level::kL1);
    args.env = {{"launcher_port", port_.value()},
                {"self_verify", verify_.at(vname).value()},
                {"demux_register", demux_register_.value()},
                {"demux_session", demux_session_.value()},
                {"dbproxy_query", dbproxy_query_.value()},
                {"idd_login", idd_login_.value()}};
    auto result =
        ctx.Spawn(std::make_unique<WorkerProcess>(svc.name, svc.factory(), svc.worker_options),
                  std::move(args));
    ASB_ASSERT(result.ok());
  }
}

void LauncherProcess::ProvideNetd(ProcessContext& ctx, uint64_t netd_ctl_value) {
  netd_ctl_ = Handle::FromValue(netd_ctl_value);
  MaybeWireNetd(ctx, idd_wire_, config_.idd_options, &idd_netd_wired_);
  MaybeWireNetd(ctx, dbproxy_wire_, config_.dbproxy_options, &dbproxy_netd_wired_);
  MaybeSpawnDemux(ctx);
}

void LauncherProcess::MaybeWireNetd(ProcessContext& ctx, Handle child_wire,
                                    const DurableOptions& options, bool* wired) {
  // The child's replication endpoint cannot learn the control port from its
  // spawn env the way demux's does. Handle values confer no authority —
  // netd's listener check is what gates the LISTEN itself.
  if (*wired || !netd_ctl_.valid() || !child_wire.valid() || !options.replication.enabled()) {
    return;
  }
  *wired = true;
  Message wire;
  wire.type = boot_proto::kWire;
  wire.data = "netd";
  wire.words = {netd_ctl_.value()};
  ctx.Send(child_wire, std::move(wire));
}

void LauncherProcess::HandleMessage(ProcessContext& ctx, const Message& msg) {
  if (msg.port != port_) {
    return;
  }
  if (msg.type == boot_proto::kRegister) {
    if (msg.data == "dbproxy" && CheckRegistration(msg, "dbproxy") && msg.words.size() >= 2) {
      dbproxy_query_ = Handle::FromValue(msg.words[0]);
      dbproxy_priv_ = Handle::FromValue(msg.words[1]);
      if (msg.words.size() >= 3) {
        dbproxy_wire_ = Handle::FromValue(msg.words[2]);
      }
      MaybeWireIdd(ctx);
      MaybeWireNetd(ctx, dbproxy_wire_, config_.dbproxy_options, &dbproxy_netd_wired_);
    } else if (msg.data == "idd" && CheckRegistration(msg, "idd") && msg.words.size() >= 2) {
      idd_login_ = Handle::FromValue(msg.words[0]);
      idd_wire_ = Handle::FromValue(msg.words[1]);
      MaybeWireIdd(ctx);
      MaybeWireNetd(ctx, idd_wire_, config_.idd_options, &idd_netd_wired_);
    } else if (msg.data == "demux" && CheckRegistration(msg, "demux") &&
               msg.words.size() >= 3) {
      demux_register_ = Handle::FromValue(msg.words[0]);
      demux_session_ = Handle::FromValue(msg.words[1]);
      demux_wire_ = Handle::FromValue(msg.words[2]);
      OnDemuxRegistered(ctx);
    }
    return;
  }
  if (msg.type == boot_proto::kReady) {
    if (msg.data == "idd") {
      idd_ready_ = true;
      MaybeSpawnDemux(ctx);
    } else if (msg.data == "demux") {
      ready_ = true;
    }
    return;
  }
}

}  // namespace asbestos
