// A labeled file server: the multi-user file server of paper §5.2/§5.4.
//
// Files carry a secrecy compartment (read replies are contaminated with it)
// and an integrity requirement (writes must prove, via the verification
// label V, that the writer's send label is low enough). Compartments are
// decentralized: whoever creates a file grants the file server ⋆ for the
// secrecy handle (D_S) and raises the server's receive label for it (D_R),
// both on the CREATE message itself — so the server serves any compartment
// without a central administrator, exactly the §5.3 pattern.
//
// Protocol (all to the server's public port; replies to msg.reply_port):
//   kCreate: data: path; words: [cookie, secrecy_h, secrecy_level,
//            integrity_h, integrity_level] (handle 0 = none)
//   kRead:   data: path; words: [cookie]
//   kWrite:  data: path '\n' contents; words: [cookie]; V checked
//   kUnlink: data: path; words: [cookie]; V checked like a write
//
// Persistence (src/store): constructed with a store directory, the server
// logs every create/write/unlink through its DurableBacking — value = contents,
// secrecy label = the exact contamination label applied to read replies,
// integrity label = the exact bound checked against writers' V — and
// recovers its whole file table, labels included, on restart. The store is
// sharded (DurableOptions::shards) so the file table spreads across
// independent logs, and durability is group-committed: mutations append
// without fsyncing, and the kernel's end-of-pump OnIdle hook flushes every
// dirty shard once per pump iteration. Privilege does not recover by
// itself: the ⋆ and receive-label grants that arrived on CREATE messages
// died with the old boot, so the boot loader must re-apply them when
// re-creating the server (RecoverySpawnArgs), the durable equivalent of the
// paper's trusted boot-time label assignment.
#ifndef SRC_FS_FILE_SERVER_H_
#define SRC_FS_FILE_SERVER_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/kernel/kernel.h"
#include "src/replication/backing.h"

namespace asbestos {

namespace fs_proto {
enum MessageType : uint64_t {
  kCreate = 1,
  kCreateR = 2,  // words: [cookie, status]
  kRead = 3,
  kReadR = 4,    // words: [cookie, status]; data: contents; C_S: file secrecy
  kWrite = 5,
  kWriteR = 6,   // words: [cookie, status]
  kUnlink = 7,
  kUnlinkR = 8,  // words: [cookie, status]
};
}  // namespace fs_proto

using FileServerOptions = DurableOptions;

class FileServerProcess : public ProcessCode {
 public:
  // Opens (or creates) the durable store under options.store_dir and
  // recovers the file table from it (DurableBacking's fail-stop policy: a
  // file server booted against corrupt state must not limp on empty).
  explicit FileServerProcess(const FileServerOptions& options = {});

  void Start(ProcessContext& ctx) override;
  void HandleMessage(ProcessContext& ctx, const Message& msg) override;
  // Group commit and ship (DurableBacking::OnIdle).
  void OnIdle(ProcessContext& ctx) override { backing_.OnIdle(ctx); }
  bool HasOnIdle() const override { return true; }

  // Boot-loader helper: spawn labels for a recovered server — ⋆ for every
  // recovered secrecy compartment (so serving it does not taint the server)
  // and a receive label raised to each file's secrecy level (so tainted
  // writes reach it). These re-apply what the original CREATE messages
  // granted via D_S/D_R; only the trusted boot path may do this.
  SpawnArgs RecoverySpawnArgs(std::string name) const;

  // Boot-loader helper: retire every recovered secrecy/integrity handle from
  // the kernel's generator so no new compartment can collide with one a
  // durable file still names.
  void ReserveRecoveredHandles(Kernel& kernel) const;

  Handle service_port() const { return port_; }
  size_t file_count() const { return files_.size(); }
  bool persistent() const { return backing_.durable(); }
  const DurableStore* store() const { return backing_.store(); }
  const ReplicationEndpoint* replication() const { return backing_.replication(); }

 private:
  struct File {
    std::string contents;
    Handle secrecy;            // invalid = public
    Level secrecy_level = Level::kL3;
    Handle integrity;          // invalid = anyone may write
    Level integrity_level = Level::kL0;
  };

  void Reply(ProcessContext& ctx, const Message& msg, uint64_t type, uint64_t cookie,
             Status status, std::string data = "", const SendArgs& args = SendArgs());
  bool WriteAllowed(const File& f, const Message& msg) const;
  // The contamination label read replies carry: {secrecy_h level, ⋆}.
  static Label SecrecyLabelOf(const File& f);
  // The verification bound writes must satisfy: {integrity_h level, 3}.
  static Label IntegrityLabelOf(const File& f);
  void PersistFile(const std::string& path, const File& f);

  Handle port_;
  std::map<std::string, File> files_;
  DurableBacking backing_;
};

}  // namespace asbestos

#endif  // SRC_FS_FILE_SERVER_H_
