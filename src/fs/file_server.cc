#include "src/fs/file_server.h"

#include "src/base/panic.h"
#include "src/sim/costs.h"

namespace asbestos {

using fs_proto::MessageType;

FileServerProcess::FileServerProcess(const FileServerOptions& options) {
  backing_ = DurableBacking("fs", options, [this](const std::string& path,
                                                  const StoreRecord& record) {
    File f;
    f.contents = record.value;
    // The stored labels carry the compartments as their sole explicit entry.
    // A level equal to the label's default (secrecy ⋆, integrity 3) encodes
    // as no entry at all — and is exactly the case where the compartment is
    // behaviorally vacuous (contaminating with {⋆} is a no-op; V(h) ≤ 3
    // always holds), so recovering such a file as unrestricted is lossless.
    Label::EntryIter s = record.secrecy.IterateEntries();
    if (!s.done()) {
      f.secrecy = s.handle();
      f.secrecy_level = s.level();
    }
    Label::EntryIter v = record.integrity.IterateEntries();
    if (!v.done()) {
      f.integrity = v.handle();
      f.integrity_level = v.level();
    }
    files_.emplace(path, std::move(f));
  });
}

Label FileServerProcess::SecrecyLabelOf(const File& f) {
  if (!f.secrecy.valid()) {
    return Label::Bottom();
  }
  return Label({{f.secrecy, f.secrecy_level}}, Level::kStar);
}

Label FileServerProcess::IntegrityLabelOf(const File& f) {
  if (!f.integrity.valid()) {
    return Label::Top();
  }
  return Label({{f.integrity, f.integrity_level}}, Level::kL3);
}

void FileServerProcess::PersistFile(const std::string& path, const File& f) {
  if (backing_.durable()) {
    backing_.Put(path, f.contents, SecrecyLabelOf(f), IntegrityLabelOf(f));
  }
}

void FileServerProcess::ReserveRecoveredHandles(Kernel& kernel) const {
  for (const auto& [path, f] : files_) {
    kernel.ReserveRecoveredHandle(f.secrecy);
    kernel.ReserveRecoveredHandle(f.integrity);
  }
}

SpawnArgs FileServerProcess::RecoverySpawnArgs(std::string name) const {
  SpawnArgs args;
  args.name = std::move(name);
  for (const auto& [path, f] : files_) {
    if (!f.secrecy.valid()) {
      continue;
    }
    args.send_label.Set(f.secrecy, Level::kStar);
    if (LevelLeq(args.recv_label.Get(f.secrecy), f.secrecy_level)) {
      args.recv_label.Set(f.secrecy, f.secrecy_level);
    }
  }
  return args;
}

void FileServerProcess::Start(ProcessContext& ctx) {
  port_ = ctx.NewPort(Label::Top());
  ASB_ASSERT(ctx.SetPortLabel(port_, Label::Top()) == Status::kOk);
  backing_.StartReplication(ctx, Handle::FromValue(ctx.GetEnv("netd_ctl")),
                            ctx.GetEnv("self_verify"));
}

void FileServerProcess::Reply(ProcessContext& ctx, const Message& msg, uint64_t type,
                              uint64_t cookie, Status status, std::string data,
                              const SendArgs& args) {
  if (!msg.reply_port.valid()) {
    return;
  }
  Message r;
  r.type = type;
  r.words = {cookie, static_cast<uint64_t>(-static_cast<int>(status))};
  r.data = std::move(data);
  ctx.Send(msg.reply_port, std::move(r), args);
}

bool FileServerProcess::WriteAllowed(const File& f, const Message& msg) const {
  if (!f.integrity.valid()) {
    return true;
  }
  // The writer must prove, via V, that it speaks for the integrity
  // compartment: V(h) ≤ required level, and the kernel already verified
  // ES ⊑ V (§5.4).
  return LevelLeq(msg.verify.Get(f.integrity), f.integrity_level);
}

void FileServerProcess::HandleMessage(ProcessContext& ctx, const Message& msg) {
  if (backing_.HandleMessage(ctx, msg)) {
    return;  // replication-plane traffic
  }
  ctx.ChargeCycles(costs::kNetdRequestCycles);  // generic service handling cost
  const uint64_t cookie = msg.words.empty() ? 0 : msg.words[0];
  switch (msg.type) {
    case MessageType::kCreate: {
      if (msg.words.size() < 5 || msg.data.empty()) {
        Reply(ctx, msg, MessageType::kCreateR, cookie, Status::kInvalidArgs);
        return;
      }
      if (files_.count(msg.data) != 0) {
        Reply(ctx, msg, MessageType::kCreateR, cookie, Status::kAlreadyExists);
        return;
      }
      File f;
      f.secrecy = Handle::FromValue(msg.words[1]);
      f.secrecy_level = static_cast<Level>(msg.words[2] <= 4 ? msg.words[2] : 4);
      f.integrity = Handle::FromValue(msg.words[3]);
      f.integrity_level = static_cast<Level>(msg.words[4] <= 4 ? msg.words[4] : 4);
      if (f.secrecy.valid()) {
        // The creator must have granted us declassification privilege for
        // the secrecy compartment (D_S on this very message) — otherwise
        // serving this file would progressively taint the server. It must
        // also have raised our receive label (D_R) so tainted writes reach
        // us at all.
        if (ctx.send_label().Get(f.secrecy) != Level::kStar ||
            !Label({{f.secrecy, f.secrecy_level}}, Level::kStar).Leq(ctx.recv_label())) {
          Reply(ctx, msg, MessageType::kCreateR, cookie, Status::kAccessDenied);
          return;
        }
      }
      PersistFile(msg.data, f);
      files_.emplace(msg.data, std::move(f));
      Reply(ctx, msg, MessageType::kCreateR, cookie, Status::kOk);
      return;
    }
    case MessageType::kRead: {
      auto it = files_.find(msg.data);
      if (it == files_.end()) {
        Reply(ctx, msg, MessageType::kReadR, cookie, Status::kNotFound);
        return;
      }
      const File& f = it->second;
      SendArgs args;
      if (f.secrecy.valid()) {
        // Contaminate the reply with the file's compartment: whoever reads
        // u's file becomes tainted with uT (§5.2, "Discretionary
        // contamination").
        args.contaminate = SecrecyLabelOf(f);
      }
      Reply(ctx, msg, MessageType::kReadR, cookie, Status::kOk, f.contents, args);
      return;
    }
    case MessageType::kWrite: {
      const size_t nl = msg.data.find('\n');
      if (nl == std::string::npos) {
        Reply(ctx, msg, MessageType::kWriteR, cookie, Status::kInvalidArgs);
        return;
      }
      const std::string path = msg.data.substr(0, nl);
      auto it = files_.find(path);
      if (it == files_.end()) {
        Reply(ctx, msg, MessageType::kWriteR, cookie, Status::kNotFound);
        return;
      }
      if (!WriteAllowed(it->second, msg)) {
        Reply(ctx, msg, MessageType::kWriteR, cookie, Status::kAccessDenied);
        return;
      }
      it->second.contents = msg.data.substr(nl + 1);
      PersistFile(path, it->second);
      Reply(ctx, msg, MessageType::kWriteR, cookie, Status::kOk);
      return;
    }
    case MessageType::kUnlink: {
      auto it = files_.find(msg.data);
      if (it == files_.end()) {
        Reply(ctx, msg, MessageType::kUnlinkR, cookie, Status::kNotFound);
        return;
      }
      if (!WriteAllowed(it->second, msg)) {
        Reply(ctx, msg, MessageType::kUnlinkR, cookie, Status::kAccessDenied);
        return;
      }
      backing_.Erase(msg.data);
      files_.erase(it);
      Reply(ctx, msg, MessageType::kUnlinkR, cookie, Status::kOk);
      return;
    }
    default:
      return;
  }
}

}  // namespace asbestos
