// idd: the OKWS identity server (paper §7.4).
//
// Associates persistent user identification (username, password, user ID,
// stored in the password table through ok-dbproxy's privileged port) with
// the per-boot taint and grant handles uT and uG. On a successful login it
// grants the caller both handles at ⋆ and raises the caller's receive label
// for uT (D_R), and teaches ok-dbproxy the binding (kBind). Handles are
// cached forever ("never cleans its cache"); only first-time logins touch
// the database.
//
// Persistence (src/store): with a store directory configured, every
// username → (uT, uG, user id, password) binding is logged durably and
// recovered on restart, making uT/uG effectively boot-stable: the handle
// values come from the kernel's Feistel-encrypted counter, so as long as the
// machine reboots with the same boot key they remain unique and
// unpredictable, and a recovered idd can keep honoring them without
// re-minting. Privilege does not recover by itself — the ⋆ idd held for
// each uT/uG died with the old boot — so the trusted boot chain re-grants
// it: the boot loader reads the store (RecoveredStars), folds the ⋆ set
// into the launcher's send label, and the launcher passes it down when
// spawning idd (§5.3: privilege is distributed by forking).
#ifndef SRC_OKWS_IDD_H_
#define SRC_OKWS_IDD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/db/binding_table.h"
#include "src/kernel/kernel.h"
#include "src/okws/protocol.h"
#include "src/replication/backing.h"

namespace asbestos {

class IddProcess : public ProcessCode {
 public:
  // `extra_tables` are privileged CREATE TABLE statements run at seeding
  // time (worker tables gain their hidden USER_ID column in ok-dbproxy).
  explicit IddProcess(std::vector<UserCred> users, std::vector<std::string> extra_tables = {},
                      const DurableOptions& options = {});

  void Start(ProcessContext& ctx) override;
  void HandleMessage(ProcessContext& ctx, const Message& msg) override;
  // Group commit and ship (DurableBacking::OnIdle).
  void OnIdle(ProcessContext& ctx) override { backing_.OnIdle(ctx); }
  bool HasOnIdle() const override { return true; }

  // The ⋆ entries a recovered cache needs: {uT ⋆, uG ⋆, …} over every stored
  // identity, default 3. The boot loader folds this into the launcher's send
  // label so the launcher is entitled to grant it to idd at spawn. Takes the
  // full options (not just the dir) because this transient open is the FIRST
  // open of a fresh boot: it must request the same shard count idd will, or
  // it would stamp the store with the wrong layout.
  static Label RecoveredStars(const DurableOptions& options);
  // Same, computed from this instance's already-recovered cache.
  Label recovered_stars() const;

  Handle login_port() const { return login_port_; }
  size_t cached_identities() const { return cache_.size(); }
  // Test/observability accessor for a cached binding's handle values.
  bool LookupCachedIdentity(const std::string& username, Handle* taint, Handle* grant,
                            int64_t* user_id) const;
  const DurableStore* store() const { return backing_.store(); }
  const ReplicationEndpoint* replication() const { return backing_.replication(); }

 private:
  // (uT, uG, user_id); the verified password rides the table's aux slot.
  using CachedId = BindingTable::Entry;

  struct PendingLogin {
    std::string username;
    std::string password;
    Handle reply;
    uint64_t caller_cookie = 0;
    // Accumulated DB reply: (password, user_id) when the row arrived.
    bool row_seen = false;
    std::string db_password;
    int64_t db_user_id = 0;
  };

  void BeginSeeding(ProcessContext& ctx);
  // Phase 2 of seeding, once the password table's CREATE and the row probe
  // both resolved: `fresh` means the probe saw an EMPTY table and the user
  // rows must be inserted. A persistent dbproxy that recovered its rows
  // already holds them (re-inserting would duplicate every row on every
  // reboot); probing actual rows — rather than trusting the CREATE's
  // kAlreadyExists — also reseeds a table whose schema record was flushed
  // by a crash before its first row batch was.
  void ContinueSeeding(ProcessContext& ctx, bool fresh);
  void HandleLogin(ProcessContext& ctx, const Message& msg);
  void HandleChangePw(ProcessContext& ctx, const Message& msg);
  void FinishLogin(ProcessContext& ctx, uint64_t qid, PendingLogin& p);
  void GrantIdentity(ProcessContext& ctx, const CachedId& id, Handle reply, uint64_t cookie);
  void ReplyLoginFailed(ProcessContext& ctx, Handle reply, uint64_t cookie);
  void SendPrivQuery(ProcessContext& ctx, uint64_t qid, const std::string& sql);
  void PersistIdentity(const std::string& username, const CachedId& id,
                       const std::string& password);
  void SendBind(ProcessContext& ctx, const CachedId& id, const std::string& username);

  std::vector<UserCred> users_;
  std::vector<std::string> extra_tables_;
  Handle login_port_;
  Handle wire_port_;
  Handle launcher_port_;
  Handle dbpriv_port_;
  Handle demux_session_port_;  // learned from login replies; for invalidations
  // username → handles + user id, password interned alongside: one flat
  // table in place of the former cache_/passwords_/user_ids_ map trio
  // (user_ids_ was write-only and is simply gone).
  BindingTable cache_;
  std::map<uint64_t, PendingLogin> pending_;   // by private query cookie
  DurableBacking backing_;
  uint64_t next_qid_ = 1;
  uint64_t seed_outstanding_ = 0;
  uint64_t seed_create_qid_ = 0;  // the password-table CREATE's query id
  uint64_t seed_probe_qid_ = 0;   // the row-existence probe's query id
  bool seed_probe_sent_ = false;
  bool seed_probe_row_seen_ = false;
  bool seed_phase2_sent_ = false;
  bool seeded_ = false;
};

}  // namespace asbestos

#endif  // SRC_OKWS_IDD_H_
