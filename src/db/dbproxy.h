// ok-dbproxy: the trusted, privileged database interface (paper §7.5-7.6).
//
// It interposes on all OKWS database access, converting Asbestos labels into
// database-native enforcement:
//
//  * Every worker-accessible table silently gains a hidden USER_ID column
//    that workers can neither name nor change.
//  * Writes must carry a verification label bounded by {uT 3, uG 0, 2}: the
//    sender is contaminated by nothing but its own user's data (uT 3 is the
//    only level-3 entry) and speaks for the user (uG at 0). The proxy then
//    stamps every written row with the user's ID.
//  * Reads return each row in its own message, contaminated with the owning
//    user's taint handle at 3, followed by one untainted completion
//    message. The *kernel* filters rows: a worker whose receive label only
//    accommodates its own user's taint simply never receives other users'
//    rows, and cannot tell how many were sent.
//  * Declassified rows have USER_ID = 0 and come back untainted. Writing
//    one requires proving declassification privilege: V(uT) = ⋆.
//
// idd speaks to the proxy over a separate privileged port, granted as a
// capability through the launcher at boot; privileged queries bypass
// rewriting (idd owns the password table) and carry user-taint grants
// (kBind) that teach the proxy each user's handles.
#ifndef SRC_DB_DBPROXY_H_
#define SRC_DB_DBPROXY_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/db/binding_table.h"
#include "src/db/sql_engine.h"
#include "src/kernel/kernel.h"
#include "src/replication/backing.h"

namespace asbestos {

namespace dbproxy_proto {
enum MessageType : uint64_t {
  kQuery = 1,  // data: "<username>\n<sql>"; words: [cookie, flags]
  kRow = 2,    // words: [cookie]; data: encoded row; C_S: owner's taint
  kDone = 3,   // words: [cookie, status, rows_affected]
  kBind = 4,   // idd → priv port; words: [uT, uG, user_id]; data: username;
               // D_S must grant uT ⋆, D_R must raise our QR(uT) to 3
  kBindR = 5,  // words: [status]
};
constexpr uint64_t kFlagDeclassify = 1;  // write rows as public (needs V(uT) = ⋆)
// 2 is unassigned (a retired flag). A query whose flags word holds any bit
// but kFlagDeclassify is refused with kInvalidArgs, so an unknown bit never
// comes to mean something new.
}  // namespace dbproxy_proto

// Row wire format: each field is "<type>:<len>:<bytes>" with type i/t/n.
std::string EncodeDbRow(const std::vector<SqlValue>& row);
bool DecodeDbRow(std::string_view data, std::vector<SqlValue>* out);

// Persistence (src/store): with a store directory configured, the proxy's
// entire database state — schema statements in creation order, every
// table's rows INCLUDING the hidden USER_ID column, and the per-user label
// bindings (username → uT/uG/user_id, stored under each user's own taint
// label) — is kept in a DurableBacking and recovered on restart, like the
// file server's, idd's and demux's state. Replication needs the launcher's
// late kWire "netd", as idd's does. Binding records recover the proxy's
// per-row taint stamping directly from its own trusted store, the
// same pattern as idd trusting its recovered identity cache; a recovered
// binding's uT ⋆ privilege itself still travels the live kBind path when
// idd replays bindings at boot.
class DbproxyProcess : public ProcessCode {
 public:
  explicit DbproxyProcess(const DurableOptions& options = {});

  void Start(ProcessContext& ctx) override;
  void HandleMessage(ProcessContext& ctx, const Message& msg) override;
  // Group commit and ship (DurableBacking::OnIdle).
  void OnIdle(ProcessContext& ctx) override { backing_.OnIdle(ctx); }
  bool HasOnIdle() const override { return true; }

  Handle query_port() const { return query_port_; }
  Handle priv_port() const { return priv_port_; }
  const SqlDatabase& database() const { return db_; }
  const DurableStore* store() const { return backing_.store(); }
  const ReplicationEndpoint* replication() const { return backing_.replication(); }
  size_t recovered_bindings() const { return bindings_.size(); }

 private:
  // username → (uT, uG, user_id), plus the user-id lookup the row-taint
  // path needs — one interned flat table instead of the former
  // std::map<std::string, Binding> / std::map<int64_t, Binding> pair.
  using Binding = BindingTable::Entry;

  void HandleBind(ProcessContext& ctx, const Message& msg);
  void HandleQuery(ProcessContext& ctx, const Message& msg, bool privileged);
  void ReplyDone(ProcessContext& ctx, Handle reply, uint64_t cookie, Status status,
                 uint64_t rows_affected);
  // Charges OKDB cycles for executor work.
  void ChargeQuery(ProcessContext& ctx, const QueryResult& r);
  bool StatementTouchesUserId(const SqlStatement& stmt) const;

  // --- Persistence ----------------------------------------------------------
  // Schema statements replay in creation order; table records rewrite the
  // affected table's full row image (bounded by auto-compaction); binding
  // records carry the user's labels.
  void PersistSchema(const std::string& sql);
  void PersistTable(const std::string& table);
  void PersistBinding(const std::string& username, const Binding& b);
  // Statement executed + persisted (post-rewrite): the one funnel the
  // privileged and worker query paths share.
  void PersistAfterExecute(const SqlStatement& stmt, const std::string& original_sql);

  SqlDatabase db_;
  Handle query_port_;
  Handle priv_port_;
  Handle wire_port_;  // launcher kWire target (late netd capability)
  BindingTable bindings_;
  int64_t modeled_db_bytes_ = 0;
  DurableBacking backing_;
  uint64_t schema_seq_ = 0;  // next schema record ordinal
};

}  // namespace asbestos

#endif  // SRC_DB_DBPROXY_H_
