// The OKWS launcher (paper §7.1).
//
// Spawns ok-dbproxy, idd, ok-demux, and the site's workers, giving each a
// process-specific verification handle at level 0 in its send label. It
// collects the children's registrations (verifying each V), wires services
// to one another (idd ↔ ok-dbproxy's privileged port, ok-demux ↔ idd/netd),
// tells ok-demux which workers to expect (name, verification handle,
// declassifier status), and reports readiness.
//
// netd is a system component created by the boot loader (the world), not by
// the launcher; the boot loader tells the launcher where netd's control
// port lives via ProvideNetd().
#ifndef SRC_OKWS_LAUNCHER_H_
#define SRC_OKWS_LAUNCHER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/db/dbproxy.h"
#include "src/kernel/kernel.h"
#include "src/okws/demux.h"
#include "src/okws/idd.h"
#include "src/okws/protocol.h"
#include "src/okws/worker.h"

namespace asbestos {

struct OkwsServiceSpec {
  std::string name;  // URL path component, e.g. "store"
  std::function<std::unique_ptr<Service>()> factory;
  bool declassifier = false;
  WorkerOptions worker_options;
};

struct OkwsLauncherConfig {
  uint16_t tcp_port = 80;
  std::vector<OkwsServiceSpec> services;
  std::vector<UserCred> users;
  std::vector<std::string> extra_tables;  // CREATE TABLE statements for worker data
  // Durable identity cache (src/store). When set, the boot loader must have
  // folded IddProcess::RecoveredStars(idd_options) into this launcher's send
  // label, so it is entitled to re-grant the recovered uT/uG ⋆ set to idd.
  DurableOptions idd_options;
  // Durable session table for ok-demux. Requires idd_options.store_dir on
  // the same boot: the ⋆ set demux needs for its recovered sessions comes
  // out of idd's recovered identity bindings via the launcher.
  DurableOptions demux_options;
  // Durable SQL tables (hidden USER_ID column and per-user label bindings
  // included) for ok-dbproxy.
  DurableOptions dbproxy_options;
};

class LauncherProcess : public ProcessCode {
 public:
  explicit LauncherProcess(OkwsLauncherConfig config) : config_(std::move(config)) {}

  void Start(ProcessContext& ctx) override;
  void HandleMessage(ProcessContext& ctx, const Message& msg) override;

  // Boot-loader call: netd's control port, once the world has created netd.
  void ProvideNetd(ProcessContext& ctx, uint64_t netd_ctl_value);

  bool ready() const { return ready_; }
  uint64_t demux_verify_value() const { return verify_.at("demux").value(); }
  // Any child's verification-handle value (e.g. "idd" for the world to
  // authorize idd's replication listener with netd); 0 when unknown.
  uint64_t verify_value(const std::string& name) const {
    auto it = verify_.find(name);
    return it == verify_.end() ? 0 : it->second.value();
  }

 private:
  void MaybeWireIdd(ProcessContext& ctx);
  // The late kWire "netd" to a replicating child spawned before netd existed
  // (idd, ok-dbproxy): sent once, as soon as both the child's wire port and
  // netd's control port are known.
  void MaybeWireNetd(ProcessContext& ctx, Handle child_wire, const DurableOptions& options,
                     bool* wired);
  void MaybeSpawnDemux(ProcessContext& ctx);
  void OnDemuxRegistered(ProcessContext& ctx);
  bool CheckRegistration(const Message& msg, const std::string& name) const;

  OkwsLauncherConfig config_;
  Handle port_;
  std::map<std::string, Handle> verify_;  // component name → verification handle
  // Demux is constructed at launcher start (so its recovered sessions' ⋆
  // set is known) but spawned only once idd is ready and netd is wired.
  std::unique_ptr<DemuxProcess> demux_code_;
  Label demux_stars_ = Label::Top();

  // Discovered component ports.
  Handle dbproxy_query_;
  Handle dbproxy_priv_;
  Handle dbproxy_wire_;
  Handle idd_login_;
  Handle idd_wire_;
  Handle demux_register_;
  Handle demux_session_;
  Handle demux_wire_;
  Handle netd_ctl_;

  bool idd_wired_ = false;
  bool idd_netd_wired_ = false;
  bool dbproxy_netd_wired_ = false;
  bool idd_ready_ = false;
  bool demux_spawned_ = false;
  bool workers_spawned_ = false;
  bool ready_ = false;
};

}  // namespace asbestos

#endif  // SRC_OKWS_LAUNCHER_H_
