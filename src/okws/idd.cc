#include "src/okws/idd.h"

#include "src/base/panic.h"
#include "src/base/strings.h"
#include "src/db/dbproxy.h"
#include "src/sim/costs.h"
#include "src/store/label_codec.h"

namespace asbestos {

using okws_proto::MessageType;

namespace {

// Durable identity record value: varint uT, varint uG, varint user id,
// length-prefixed password. The record's secrecy label is {uT 3, ⋆} (it is
// the user's private data) and its integrity label is {uG 0, 3} (only a
// uG-speaker may rewrite it), so the store's labels carry the same meaning
// the live binding does.
std::string EncodeIdentityValue(Handle taint, Handle grant, int64_t user_id,
                                const std::string& password) {
  std::string out;
  codec::AppendVarint(taint.value(), &out);
  codec::AppendVarint(grant.value(), &out);
  codec::AppendVarint(static_cast<uint64_t>(user_id), &out);
  codec::AppendString(password, &out);
  return out;
}

bool DecodeIdentityValue(std::string_view value, Handle* taint, Handle* grant, int64_t* user_id,
                         std::string* password) {
  size_t pos = 0;
  uint64_t t = 0;
  uint64_t g = 0;
  uint64_t uid = 0;
  std::string_view pw;
  if (!IsOk(codec::ReadVarint(value, &pos, &t)) || !IsOk(codec::ReadVarint(value, &pos, &g)) ||
      !IsOk(codec::ReadVarint(value, &pos, &uid)) ||
      !IsOk(codec::ReadString(value, &pos, &pw)) || pos != value.size() ||
      t == 0 || t > Handle::kMaxValue || g == 0 || g > Handle::kMaxValue) {
    return false;
  }
  *taint = Handle::FromValue(t);
  *grant = Handle::FromValue(g);
  *user_id = static_cast<int64_t>(uid);
  password->assign(pw);
  return true;
}

std::string SqlQuote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') {
      out += "''";
    } else {
      out.push_back(c);
    }
  }
  out += "'";
  return out;
}

}  // namespace

IddProcess::IddProcess(std::vector<UserCred> users, std::vector<std::string> extra_tables,
                       const DurableOptions& options)
    : users_(std::move(users)), extra_tables_(std::move(extra_tables)) {
  backing_ = DurableBacking("idd", options, [this](const std::string& username,
                                                   const StoreRecord& record) {
    CachedId id;
    std::string password;
    if (!DecodeIdentityValue(record.value, &id.taint, &id.grant, &id.user_id, &password)) {
      return;  // skip records this build cannot parse; never refuse to boot
    }
    cache_.Put(username, id, password);
  });
}

void IddProcess::PersistIdentity(const std::string& username, const CachedId& id,
                                 const std::string& password) {
  if (!backing_.durable()) {
    return;
  }
  const Label secrecy({{id.taint, Level::kL3}}, Level::kStar);
  const Label integrity({{id.grant, Level::kL0}}, Level::kL3);
  backing_.Put(username, EncodeIdentityValue(id.taint, id.grant, id.user_id, password), secrecy,
               integrity);
}

Label IddProcess::recovered_stars() const {
  Label stars = Label::Top();
  cache_.ForEach([&stars](std::string_view, const CachedId& id, std::string_view) {
    stars.Set(id.taint, Level::kStar);
    stars.Set(id.grant, Level::kStar);
  });
  return stars;
}

Label IddProcess::RecoveredStars(const DurableOptions& options) {
  Label stars = Label::Top();
  DurableOptions store_only;  // a transient open: nothing to ship
  store_only.store_dir = options.store_dir;
  store_only.shards = options.shards;
  DurableBacking("idd", store_only, [&stars](const std::string&, const StoreRecord& record) {
    Handle taint;
    Handle grant;
    int64_t user_id = 0;
    std::string password;
    if (DecodeIdentityValue(record.value, &taint, &grant, &user_id, &password)) {
      stars.Set(taint, Level::kStar);
      stars.Set(grant, Level::kStar);
    }
  });
  return stars;
}

bool IddProcess::LookupCachedIdentity(const std::string& username, Handle* taint, Handle* grant,
                                      int64_t* user_id) const {
  const CachedId* id = cache_.Find(username);
  if (id == nullptr) {
    return false;
  }
  *taint = id->taint;
  *grant = id->grant;
  *user_id = id->user_id;
  return true;
}

void IddProcess::SendBind(ProcessContext& ctx, const CachedId& id, const std::string& username) {
  // Teach ok-dbproxy the binding, handing it uT ⋆ (it is privileged with
  // respect to every user taint, §7.5) and the ability to receive
  // uT-tainted queries.
  Message bind;
  bind.type = dbproxy_proto::kBind;
  bind.data = username;
  bind.words = {id.taint.value(), id.grant.value(), static_cast<uint64_t>(id.user_id)};
  SendArgs bind_args;
  bind_args.decont_send = Label({{id.taint, Level::kStar}, {id.grant, Level::kStar}}, Level::kL3);
  bind_args.decont_receive = Label({{id.taint, Level::kL3}}, Level::kStar);
  ctx.Send(dbpriv_port_, std::move(bind), bind_args);
}

void IddProcess::Start(ProcessContext& ctx) {
  login_port_ = ctx.NewPort(Label::Top());
  ASB_ASSERT(ctx.SetPortLabel(login_port_, Label::Top()) == Status::kOk);
  wire_port_ = ctx.NewPort(Label::Top());  // stays closed: launcher only
  launcher_port_ = Handle::FromValue(ctx.GetEnv("launcher_port"));
  ASB_ASSERT(launcher_port_.valid());

  // One-shot identification to the launcher (verification handle still at 0
  // because nothing has been received yet), granting the launcher our wire
  // port as a capability for everything that follows.
  Message reg;
  reg.type = boot_proto::kRegister;
  reg.data = "idd";
  reg.words = {login_port_.value(), wire_port_.value()};
  SendArgs args;
  args.verify = Label({{Handle::FromValue(ctx.GetEnv("self_verify")), Level::kL0}}, Level::kL3);
  args.decont_send = Label({{wire_port_, Level::kStar}}, Level::kL3);
  ctx.Send(launcher_port_, std::move(reg), args);

  // Recovered identities: re-accept each user's taint, as the original
  // FinishLogin did. Requires ⋆ on uT, which the launcher re-granted at
  // spawn from the store's recovered privilege set.
  cache_.ForEach([&ctx](std::string_view, const CachedId& id, std::string_view) {
    ASB_ASSERT(ctx.SetReceiveLevel(id.taint, Level::kL3) == Status::kOk);
  });
}

void IddProcess::SendPrivQuery(ProcessContext& ctx, uint64_t qid, const std::string& sql) {
  Message q;
  q.type = dbproxy_proto::kQuery;
  q.words = {qid, 0};
  q.data = "\n" + sql;  // privileged path ignores the username line
  q.reply_port = login_port_;
  ctx.Send(dbpriv_port_, std::move(q));
}

void IddProcess::BeginSeeding(ProcessContext& ctx) {
  // The password table deliberately has no index on USERNAME: first-time
  // logins pay a scan, reproducing the paper's growing OKDB cost
  // (Figure 9; see README "Host time").
  //
  // Against a persistent dbproxy the table may already exist WITH its rows;
  // once the CREATE resolves, a row probe decides whether to insert
  // (ContinueSeeding). User ids are assigned deterministically from config
  // order either way, so they agree with whatever a recovered table holds.
  seed_create_qid_ = next_qid_++;
  SendPrivQuery(ctx, seed_create_qid_,
                "CREATE TABLE okws_users (username TEXT, password TEXT, userid INTEGER)");
  ++seed_outstanding_;
}

void IddProcess::ContinueSeeding(ProcessContext& ctx, bool fresh) {
  for (const std::string& sql : extra_tables_) {
    // Harmless against a recovered schema: an existing table answers
    // kAlreadyExists and the reply is counted like any other.
    SendPrivQuery(ctx, next_qid_++, sql);
    ++seed_outstanding_;
  }
  if (!fresh) {
    return;  // recovered password table: the rows are already in it
  }
  std::string values;
  size_t batched = 0;
  for (size_t i = 0; i < users_.size(); ++i) {
    const int64_t uid = static_cast<int64_t>(i) + 1;
    if (!values.empty()) {
      values += ", ";
    }
    values += StrFormat("(%s, %s, %lld)", SqlQuote(users_[i].username).c_str(),
                        SqlQuote(users_[i].password).c_str(), static_cast<long long>(uid));
    if (++batched == 500 || i + 1 == users_.size()) {
      SendPrivQuery(ctx, next_qid_++,
                    "INSERT INTO okws_users (username, password, userid) VALUES " + values);
      ++seed_outstanding_;
      values.clear();
      batched = 0;
    }
  }
}

void IddProcess::GrantIdentity(ProcessContext& ctx, const CachedId& id, Handle reply,
                               uint64_t cookie) {
  // Paper Fig. 5 step 4: grant uT ⋆ and uG ⋆; also raise the caller's
  // receive label so user-tainted traffic (session registrations, tainted
  // rows) can reach it.
  Message r;
  r.type = MessageType::kLoginR;
  r.words = {cookie, 0, id.taint.value(), id.grant.value(),
             static_cast<uint64_t>(id.user_id)};
  SendArgs args;
  args.decont_send = Label({{id.taint, Level::kStar}, {id.grant, Level::kStar}}, Level::kL3);
  args.decont_receive = Label({{id.taint, Level::kL3}}, Level::kStar);
  ctx.Send(reply, std::move(r), args);
}

void IddProcess::ReplyLoginFailed(ProcessContext& ctx, Handle reply, uint64_t cookie) {
  Message r;
  r.type = MessageType::kLoginR;
  r.words = {cookie, static_cast<uint64_t>(-static_cast<int>(Status::kAccessDenied)), 0, 0, 0};
  ctx.Send(reply, std::move(r));
}

void IddProcess::HandleLogin(ProcessContext& ctx, const Message& msg) {
  ctx.ChargeCycles(costs::kIddLoginCycles);
  if (!msg.reply_port.valid()) {
    return;
  }
  // Remember where ok-demux listens so password changes can invalidate its
  // cached sessions (the kLogin's D_S granted us the capability).
  demux_session_port_ = msg.reply_port;
  const uint64_t cookie = msg.words.empty() ? 0 : msg.words[0];
  const size_t nl = msg.data.find('\n');
  if (nl == std::string::npos) {
    ReplyLoginFailed(ctx, msg.reply_port, cookie);
    return;
  }
  const std::string username = msg.data.substr(0, nl);
  const std::string password = msg.data.substr(nl + 1);

  if (const CachedId* cached = cache_.Find(username); cached != nullptr) {
    // Handles are cached, but the password must still match. idd verified
    // this user against the database at first login and tracks password
    // changes itself, so the check is local.
    if (cache_.AuxOf(username) == std::string_view(password)) {
      GrantIdentity(ctx, *cached, msg.reply_port, cookie);
    } else {
      ReplyLoginFailed(ctx, msg.reply_port, cookie);
    }
    return;
  }

  // First-time login: one database query (paper §7.4).
  const uint64_t qid = next_qid_++;
  PendingLogin p;
  p.username = username;
  p.password = password;
  p.reply = msg.reply_port;
  p.caller_cookie = cookie;
  pending_.emplace(qid, std::move(p));
  SendPrivQuery(ctx, qid,
                "SELECT password, userid FROM okws_users WHERE username = " + SqlQuote(username));
}

void IddProcess::FinishLogin(ProcessContext& ctx, uint64_t qid, PendingLogin& p) {
  if (!p.row_seen || p.db_password != p.password) {
    ReplyLoginFailed(ctx, p.reply, p.caller_cookie);
    pending_.erase(qid);
    return;
  }
  // A concurrent login for the same user may have populated the cache while
  // our database query was in flight; reuse its handles.
  if (const CachedId* existing = cache_.Find(p.username); existing != nullptr) {
    GrantIdentity(ctx, *existing, p.reply, p.caller_cookie);
    pending_.erase(qid);
    return;
  }
  CachedId id;
  id.taint = ctx.NewHandle();
  id.grant = ctx.NewHandle();
  id.user_id = p.db_user_id;
  cache_.Put(p.username, id, p.password);
  PersistIdentity(p.username, id, p.password);
  // idd must remain reachable from uT-tainted processes (e.g. the password
  // worker proves uG over a tainted channel), so accept this user's taint.
  // It cannot stick: we hold uT at ⋆.
  ASB_ASSERT(ctx.SetReceiveLevel(id.taint, Level::kL3) == Status::kOk);

  SendBind(ctx, id, p.username);

  GrantIdentity(ctx, id, p.reply, p.caller_cookie);
  pending_.erase(qid);
}

void IddProcess::HandleChangePw(ProcessContext& ctx, const Message& msg) {
  ctx.ChargeCycles(costs::kIddLoginCycles);
  const uint64_t cookie = msg.words.empty() ? 0 : msg.words[0];
  const std::vector<std::string> parts = Split(msg.data, '\n');
  Message r;
  r.type = MessageType::kChangePwR;
  r.words = {cookie, static_cast<uint64_t>(-static_cast<int>(Status::kAccessDenied))};
  if (parts.size() == 3 && msg.reply_port.valid()) {
    const std::string& username = parts[0];
    const std::string& old_pw = parts[1];
    const std::string& new_pw = parts[2];
    const CachedId* cached = cache_.Find(username);
    // The caller must prove it speaks for the user: V(uG) ≤ 0 (§5.4). The
    // kernel already verified ES ⊑ V.
    if (cached != nullptr && cache_.AuxOf(username) == std::string_view(old_pw) &&
        LevelLeq(msg.verify.Get(cached->grant), Level::kL0)) {
      ASB_ASSERT(cache_.SetAux(username, new_pw));
      PersistIdentity(username, *cached, new_pw);
      SendPrivQuery(ctx, next_qid_++,
                    "UPDATE okws_users SET password = " + SqlQuote(new_pw) +
                        " WHERE username = " + SqlQuote(username));
      ++seed_outstanding_;  // swallow the kDone like a seeding reply
      r.words[1] = 0;
      // Sessions opened under the old password must not keep working.
      if (demux_session_port_.valid()) {
        Message inval;
        inval.type = MessageType::kSessionInvalidate;
        inval.data = username;
        ctx.Send(demux_session_port_, std::move(inval));
      }
    }
  }
  if (msg.reply_port.valid()) {
    ctx.Send(msg.reply_port, std::move(r));
  }
}

void IddProcess::HandleMessage(ProcessContext& ctx, const Message& msg) {
  if (backing_.HandleMessage(ctx, msg)) {
    return;  // replication-plane traffic
  }
  if (msg.port == wire_port_) {
    if (msg.type == boot_proto::kWire && msg.data == "dbpriv" && !msg.words.empty()) {
      dbpriv_port_ = Handle::FromValue(msg.words[0]);
      BeginSeeding(ctx);
      // Replay recovered bindings so ok-dbproxy regains uT ⋆ and the
      // USER_ID associations it held before the reboot.
      cache_.ForEach([this, &ctx](std::string_view username, const CachedId& id,
                                  std::string_view) {
        SendBind(ctx, id, std::string(username));
      });
    } else if (msg.type == boot_proto::kWire && msg.data == "netd" && !msg.words.empty()) {
      // The launcher's late wire: netd is up, attach the replication
      // listener (idd spawns before the boot loader creates netd, so this
      // capability cannot ride the spawn env the way demux's does).
      backing_.StartReplication(ctx, Handle::FromValue(msg.words[0]), ctx.GetEnv("self_verify"));
    }
    return;
  }
  if (msg.port != login_port_) {
    return;
  }
  switch (msg.type) {
    case MessageType::kLogin:
      HandleLogin(ctx, msg);
      return;
    case MessageType::kChangePw:
      HandleChangePw(ctx, msg);
      return;
    case dbproxy_proto::kRow: {
      const uint64_t qid = msg.words.empty() ? 0 : msg.words[0];
      if (qid != 0 && qid == seed_probe_qid_) {
        seed_probe_row_seen_ = true;  // the recovered table has rows
        return;
      }
      auto it = pending_.find(qid);
      if (it == pending_.end()) {
        return;
      }
      std::vector<SqlValue> row;
      if (DecodeDbRow(msg.data, &row) && row.size() == 2) {
        it->second.row_seen = true;
        it->second.db_password = row[0].AsText();
        it->second.db_user_id = row[1].AsInt();
      }
      return;
    }
    case dbproxy_proto::kDone: {
      const uint64_t qid = msg.words.empty() ? 0 : msg.words[0];
      auto it = pending_.find(qid);
      if (it != pending_.end()) {
        FinishLogin(ctx, qid, it->second);
        return;
      }
      if (qid == seed_create_qid_ && !seed_probe_sent_) {
        // Whatever the CREATE said, ask the table itself whether it holds
        // rows — a crash can persist the schema without the first row
        // batch, and then kAlreadyExists alone would skip reseeding forever.
        seed_probe_sent_ = true;
        seed_probe_qid_ = next_qid_++;
        SendPrivQuery(ctx, seed_probe_qid_, "SELECT userid FROM okws_users LIMIT 1");
        ++seed_outstanding_;
      } else if (qid == seed_probe_qid_ && !seed_phase2_sent_) {
        seed_phase2_sent_ = true;
        ContinueSeeding(ctx, /*fresh=*/!seed_probe_row_seen_);
      }
      if (seed_outstanding_ > 0 && --seed_outstanding_ == 0 && !seeded_) {
        seeded_ = true;
        Message ready;
        ready.type = boot_proto::kReady;
        ready.data = "idd";
        ctx.Send(launcher_port_, std::move(ready));
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace asbestos
