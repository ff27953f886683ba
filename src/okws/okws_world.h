// OkwsWorld: the whole machine — SimNet wire, kernel, netd, and the OKWS
// process suite — plus the pump loop that stands in for hardware (NIC
// interrupts driving netd, then the scheduler running until idle).
#ifndef SRC_OKWS_OKWS_WORLD_H_
#define SRC_OKWS_OKWS_WORLD_H_

#include <memory>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/net/client.h"
#include "src/net/netd.h"
#include "src/net/simnet.h"
#include "src/okws/launcher.h"

namespace asbestos {

// The launcher's configuration plus the kernel's boot key. Every launcher
// field (services, users, the idd / demux / dbproxy stores) means what it
// means in OkwsLauncherConfig.
struct OkwsWorldConfig : OkwsLauncherConfig {
  uint64_t boot_key = 0x0451;
};

class OkwsWorld {
 public:
  explicit OkwsWorld(OkwsWorldConfig config);

  Kernel& kernel() { return kernel_; }
  SimNet& net() { return net_; }
  NetdProcess* netd() { return netd_; }
  ProcessId netd_pid() const { return netd_pid_; }
  LauncherProcess* launcher() { return launcher_; }
  // The demux the launcher spawned (nullptr before PumpUntilReady).
  DemuxProcess* demux();

  // One machine iteration: NIC interrupt into netd, then run to idle.
  void Pump();
  // Boots the server suite; panics if it fails to come up.
  void PumpUntilReady();
  // Drives the client and the machine until the client has no work left.
  void RunClient(HttpLoadClient* client);

  // Builds "GET <target> HTTP/1.0" with user:pass authorization.
  static std::string MakeRequest(const std::string& target, const std::string& user,
                                 const std::string& pass);

 private:
  SimNet net_;
  Kernel kernel_;
  NetdProcess* netd_ = nullptr;
  LauncherProcess* launcher_ = nullptr;
  ProcessId netd_pid_ = kNoProcess;
  ProcessId launcher_pid_ = kNoProcess;
};

}  // namespace asbestos

#endif  // SRC_OKWS_OKWS_WORLD_H_
