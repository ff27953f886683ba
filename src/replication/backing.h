// DurableBacking: the one way a labeled service is durable and replicated.
//
// The file server (§5.2–5.4), idd's identity bindings (§7.4), ok-demux's
// session table (§7.3) and ok-dbproxy's tables all keep their state the
// same way, so they all go through this one narrow set of operations over
// labeled records instead of each owning a DurableStore and a
// ReplicationEndpoint by hand:
//
//   open     DurableStore::Open under options.store_dir, then every
//            recovered record handed to the owner's callback (constructor);
//   commit   Put/Erase append to the key's shard log without fsyncing;
//            OnIdle runs SyncPipelined and then PumpShip, so the batch
//            handed to the device flusher is the batch handed to the wire;
//   ship     StartReplication attaches the netd listener once the owner
//            holds netd's control port; HandleMessage consumes the
//            replication-plane traffic first in the owner's HandleMessage.
//
// An empty store_dir makes the backing volatile: no store, no endpoint,
// and every operation a no-op, so a volatile service runs as in the seed.
//
// I/O-failure policy: fail-stop. Any non-OK result from Open, Put, Erase
// (kNotFound aside: erasing a never-persisted key is fine) or
// SyncPipelined panics with a message naming the service, the operation
// and the Status. A server that cannot persist a mutation it has already
// applied in memory, or boots against state it cannot read, must stop
// rather than acknowledge work a reboot would lose or limp on empty. A
// follower's replica store shares the policy through DurableFailStop.
#ifndef SRC_REPLICATION_BACKING_H_
#define SRC_REPLICATION_BACKING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "src/kernel/kernel.h"
#include "src/replication/endpoint.h"
#include "src/store/store.h"

namespace asbestos {

struct DurableOptions {
  std::string store_dir;  // empty = volatile, in-memory only
  // Shard count for a store created at store_dir; existing stores keep the
  // count stamped at creation (see StoreOptions::shards).
  uint32_t shards = 4;
  // WAL shipping to followers (src/replication). Requires store_dir.
  ReplicationOptions replication;
};

// The fail-stop panic: "<service> durable store: <op> failed: <STATUS> (<n>)".
[[noreturn]] void DurableFailStop(const std::string& service, const char* op, Status status);

class DurableBacking {
 public:
  using RecordFn = std::function<void(const std::string& key, const StoreRecord& record)>;

  DurableBacking() = default;  // volatile
  // Opens (or creates) the store under options.store_dir and hands every
  // recovered record to `recover`. `service` names the owner in panics.
  DurableBacking(std::string service, const DurableOptions& options,
                 const RecordFn& recover);

  // False when volatile. Owners test it before building a record's value
  // and labels, so a volatile service does no label work for persistence.
  bool durable() const { return store_ != nullptr; }

  // Commit. No-ops when volatile.
  void Put(std::string_view key, std::string_view value, const Label& secrecy,
           const Label& integrity);
  void Erase(std::string_view key);
  // Group commit, pipelined (see DurableStore::SyncPipelined for the
  // two-batch crash window), then ship the flushed batch.
  void OnIdle(ProcessContext& ctx);

  // Ship. No-ops without replication.
  void StartReplication(ProcessContext& ctx, Handle netd_ctl, uint64_t self_verify);
  // True when `msg` was replication-plane traffic (listener replies,
  // follower acks) and has been consumed.
  bool HandleMessage(ProcessContext& ctx, const Message& msg);

  const DurableStore* store() const { return store_.get(); }
  const ReplicationEndpoint* replication() const { return repl_.get(); }

 private:
  std::string service_;
  std::unique_ptr<DurableStore> store_;
  std::unique_ptr<ReplicationEndpoint> repl_;
};

}  // namespace asbestos

#endif  // SRC_REPLICATION_BACKING_H_
