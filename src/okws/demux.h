// ok-demux: accepts connections from netd, authenticates users against idd,
// and hands connections to service workers (paper §7.2-7.3, Figure 5).
//
// Per connection: netd grants uC ⋆ (step 2); demux peeks at the request
// until it can parse the service name and credentials (step 3); idd grants
// uT ⋆ / uG ⋆ on success (step 4); demux grants netd uT ⋆ so the connection
// may carry u-tainted data (step 5); demux forwards uC to the worker —
// contaminating it with uT 3, or granting uT ⋆ when the worker is a
// declassifier (steps 6 and §7.6).
//
// The session table (§7.3) maps (user, service) to the event process port
// uW registered by the worker; follow-up connections skip idd entirely and
// go straight to the existing event process.
//
// Persistence (src/store): with a store directory configured, every session
// (key → uT/uG + credential) is logged durably and recovered on
// restart, so a reboot is invisible to logged-in browsers: a follow-up
// connection authenticates against the recovered session and skips idd
// entirely. What does NOT survive is the worker event process — uW dies
// with the boot — so the first post-reboot connection of a session forks a
// fresh event process at the service port (and re-registers its uW). The
// privilege to speak for the recovered uT/uG comes down the trusted boot
// chain exactly as idd's does: demux session persistence requires idd's
// durable identity cache on the same boot, whose RecoveredStars the boot
// loader folded into the launcher, and the launcher re-grants the session
// handles' ⋆ to demux at spawn.
#ifndef SRC_OKWS_DEMUX_H_
#define SRC_OKWS_DEMUX_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/http/http.h"
#include "src/kernel/kernel.h"
#include "src/okws/protocol.h"
#include "src/replication/backing.h"

namespace asbestos {

class DemuxProcess : public ProcessCode {
 public:
  // The session store: store_dir empty = volatile session table, as in the
  // seed. Replication attaches its listener with demux's own verification
  // label, which netd already accepts.
  explicit DemuxProcess(const DurableOptions& options = {});

  void Start(ProcessContext& ctx) override;
  void HandleMessage(ProcessContext& ctx, const Message& msg) override;
  // Group commit and ship (DurableBacking::OnIdle).
  void OnIdle(ProcessContext& ctx) override { backing_.OnIdle(ctx); }
  bool HasOnIdle() const override { return true; }

  // {uT ⋆, uG ⋆} over every recovered session, default 3: the ⋆ set the
  // launcher must hold (from idd's RecoveredStars) and re-grant at spawn for
  // the recovered sessions to keep working.
  Label recovered_stars() const;

  Handle register_port() const { return register_port_; }
  Handle session_port() const { return session_port_; }
  size_t session_count() const { return sessions_.size(); }
  uint64_t rejected_connections() const { return rejected_; }
  const DurableStore* store() const { return backing_.store(); }
  const ReplicationEndpoint* replication() const { return backing_.replication(); }

 private:
  struct WorkerInfo {
    std::string service;
    uint64_t verify_value = 0;
    bool declassifier = false;
    Handle service_port;  // invalid until the worker registers
  };

  struct Session {
    Handle uw;        // the worker event process's port; invalid after reboot
    Handle taint;     // uT
    Handle grant;     // uG
    std::string password;  // credential the session was opened with
  };

  struct ConnState {
    Handle uc;
    uint64_t bytes_seen = 0;
    HttpRequestParser parser;
    std::string username;
    std::string password;
    std::string service;
    Handle taint;
    Handle grant;
    bool awaiting_login = false;
  };

  void SendPeekRead(ProcessContext& ctx, uint64_t cookie, ConnState& conn);
  void OnRequestParsed(ProcessContext& ctx, uint64_t cookie, ConnState& conn);
  void OnLoginResult(ProcessContext& ctx, uint64_t cookie, const Message& msg);
  // Steps 5-6: taint netd for this connection and hand it to the worker.
  void ForwardToWorker(ProcessContext& ctx, uint64_t cookie, ConnState& conn);
  void RejectConnection(ProcessContext& ctx, ConnState& conn, int status,
                        const std::string& reason);
  void CheckAllWorkersRegistered(ProcessContext& ctx);
  void PersistSession(const std::string& key, const Session& s);

  Handle register_port_;  // public: worker registration
  Handle notify_port_;    // capability-held by netd: conn notifications + read replies
  Handle session_port_;   // capability-held by idd and workers
  Handle wire_port_;      // capability-held by the launcher
  Handle launcher_port_;
  Handle netd_ctl_;
  Handle idd_login_;
  uint64_t self_verify_ = 0;

  std::map<std::string, WorkerInfo> workers_;          // by service name
  std::map<uint64_t, ConnState> conns_;                // by cookie
  std::map<std::string, Session> sessions_;            // by user + "\x1f" + service
  DurableBacking backing_;
  uint64_t next_cookie_ = 1;
  uint64_t rejected_ = 0;
  bool expectations_complete_ = false;
  bool ready_sent_ = false;
};

}  // namespace asbestos

#endif  // SRC_OKWS_DEMUX_H_
