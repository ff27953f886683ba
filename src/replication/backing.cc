#include "src/replication/backing.h"

#include "src/base/panic.h"
#include "src/base/strings.h"

namespace asbestos {

DurableBacking::DurableBacking(std::string service, const DurableOptions& options,
                               const RecordFn& recover)
    : service_(std::move(service)) {
  if (options.store_dir.empty()) {
    if (options.replication.enabled()) {
      ASB_PANIC(StrFormat("%s: replication requires a store_dir", service_.c_str()).c_str());
    }
    return;
  }
  StoreOptions sopts;
  sopts.dir = options.store_dir;
  sopts.shards = options.shards;
  auto store = DurableStore::Open(std::move(sopts));
  if (!store.ok()) {
    DurableFailStop(service_, "open", store.status());
  }
  store_ = store.take();
  store_->ForEach(recover);
  if (options.replication.enabled()) {
    repl_ = std::make_unique<ReplicationEndpoint>(store_.get(), options.replication);
  }
}

void DurableFailStop(const std::string& service, const char* op, Status status) {
  ASB_PANIC(StrFormat("%s durable store: %s failed: %s (%d)", service.c_str(), op,
                      StatusString(status), static_cast<int>(status))
                .c_str());
}

void DurableBacking::Put(std::string_view key, std::string_view value, const Label& secrecy,
                         const Label& integrity) {
  if (store_ == nullptr) {
    return;
  }
  const Status s = store_->Put(key, value, secrecy, integrity);
  if (s != Status::kOk) {
    DurableFailStop(service_, "put", s);
  }
}

void DurableBacking::Erase(std::string_view key) {
  if (store_ == nullptr) {
    return;
  }
  const Status s = store_->Erase(key);
  if (s != Status::kOk && s != Status::kNotFound) {
    DurableFailStop(service_, "erase", s);
  }
}

void DurableBacking::OnIdle(ProcessContext& ctx) {
  if (store_ != nullptr) {
    // The returned status acknowledges the previous round's flush.
    const Status s = store_->SyncPipelined();
    if (s != Status::kOk) {
      DurableFailStop(service_, "sync", s);
    }
  }
  if (repl_ != nullptr) {
    repl_->PumpShip(ctx);  // the flushed batch is also the shipped batch
  }
}

void DurableBacking::StartReplication(ProcessContext& ctx, Handle netd_ctl,
                                      uint64_t self_verify) {
  if (repl_ == nullptr) {
    return;
  }
  ASB_ASSERT(netd_ctl.valid() && "replication requires the netd control port");
  repl_->Start(ctx, netd_ctl, self_verify);
}

bool DurableBacking::HandleMessage(ProcessContext& ctx, const Message& msg) {
  return repl_ != nullptr && repl_->HandleMessage(ctx, msg);
}

}  // namespace asbestos
