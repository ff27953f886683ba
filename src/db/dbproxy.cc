#include "src/db/dbproxy.h"

#include <algorithm>
#include <charconv>

#include "src/base/panic.h"
#include "src/base/strings.h"
#include "src/kernel/bootstrap.h"
#include "src/kernel/label_checks.h"
#include "src/obs/event_log.h"
#include "src/sim/costs.h"
#include "src/store/label_codec.h"

namespace asbestos {

using dbproxy_proto::MessageType;

namespace {

constexpr char kUserIdColumn[] = "USER_ID";
constexpr char kUserTable[] = "OKWS_USERS";

// Store key prefixes. Schema keys embed a zero-padded ordinal so replay
// order (sorted keys) is creation order.
constexpr char kSchemaPrefix[] = "schema/";
constexpr char kTablePrefix[] = "table/";
constexpr char kBindPrefix[] = "bind/";

// The hidden-column rewrite: every worker-accessible table silently gains
// USER_ID. One helper so the live priv path and recovery replay are
// guaranteed to produce the same schema.
void AddHiddenUserIdColumn(CreateTableStmt* create) {
  if (create->table == kUserTable) {
    return;
  }
  SqlColumnDef uid;
  uid.name = kUserIdColumn;
  uid.type = SqlType::kInteger;
  create->columns.push_back(std::move(uid));
}

// Appends the first `columns` fields of `row` (a SqlRowView, a SELECT's
// SqlRowRef, or a vector of values), each "<type>:<len>:<bytes>".
template <typename Row>
void AppendDbRow(const Row& row, size_t columns, std::string* out) {
  for (size_t c = 0; c < columns; ++c) {
    const SqlValue& v = row[c];
    SqlValue::IntText buf;
    const std::string_view text = v.TextView(buf);
    SqlValue::IntText len;
    char* len_end = std::to_chars(len.data(), len.data() + len.size(), text.size()).ptr;
    out->push_back(v.is_null() ? 'n' : (v.is_int() ? 'i' : 't'));
    out->push_back(':');
    out->append(len.data(), len_end);
    out->push_back(':');
    out->append(text);
  }
}

}  // namespace

std::string EncodeDbRow(const std::vector<SqlValue>& row) {
  std::string out;
  AppendDbRow(row, row.size(), &out);
  return out;
}

bool DecodeDbRow(std::string_view data, std::vector<SqlValue>* out) {
  out->clear();
  size_t i = 0;
  while (i < data.size()) {
    if (data.size() - i < 2 || data[i + 1] != ':') {
      return false;
    }
    const char type = data[i];
    i += 2;
    const size_t colon = data.find(':', i);
    if (colon == std::string_view::npos) {
      return false;
    }
    uint64_t len = 0;
    if (!ParseUint64(data.substr(i, colon - i), &len)) {
      return false;
    }
    i = colon + 1;
    if (len > data.size() - i) {
      return false;
    }
    const std::string_view bytes = data.substr(i, len);
    i += len;
    if (type == 'n') {
      out->emplace_back();
    } else if (type == 'i') {
      // The whole field must be one in-range int64: no wrap-around of an
      // over-long magnitude, and INT64_MIN parses without negating.
      int64_t v = 0;
      const char* end = bytes.data() + bytes.size();
      const std::from_chars_result r = std::from_chars(bytes.data(), end, v);
      if (r.ec != std::errc() || r.ptr != end) {
        return false;
      }
      out->emplace_back(SqlValue(v));
    } else if (type == 't') {
      out->emplace_back(SqlValue(std::string(bytes)));
    } else {
      return false;
    }
  }
  return true;
}

DbproxyProcess::DbproxyProcess(const DurableOptions& options) {
  std::vector<std::pair<std::string, std::string>> schema;  // key → sql
  std::vector<std::pair<std::string, std::string>> tables;  // name → rows
  backing_ = DurableBacking("dbproxy", options, [&](const std::string& key,
                                                    const StoreRecord& record) {
    if (key.rfind(kSchemaPrefix, 0) == 0) {
      schema.emplace_back(key, record.value);
    } else if (key.rfind(kTablePrefix, 0) == 0) {
      tables.emplace_back(key.substr(sizeof(kTablePrefix) - 1), record.value);
    } else if (key.rfind(kBindPrefix, 0) == 0) {
      Binding b;
      size_t pos = 0;
      uint64_t taint = 0;
      uint64_t grant = 0;
      uint64_t uid = 0;
      if (!IsOk(codec::ReadVarint(record.value, &pos, &taint)) ||
          !IsOk(codec::ReadVarint(record.value, &pos, &grant)) ||
          !IsOk(codec::ReadVarint(record.value, &pos, &uid)) || pos != record.value.size()) {
        return;  // skip records this build cannot parse; never refuse to boot
      }
      b.taint = Handle::FromValue(taint);
      b.grant = Handle::FromValue(grant);
      b.user_id = static_cast<int64_t>(uid);
      bindings_.Put(key.substr(sizeof(kBindPrefix) - 1), b);
    }
  });
  // Schema replays in creation order (keys embed the ordinal; ForEach walks
  // shard by shard, so sort globally first).
  std::sort(schema.begin(), schema.end());
  for (const auto& [key, sql] : schema) {
    auto parsed = ParseSql(sql);
    if (!parsed.ok()) {
      continue;
    }
    SqlStatement stmt = parsed.take();
    if (auto* create = std::get_if<CreateTableStmt>(&stmt)) {
      AddHiddenUserIdColumn(create);
    }
    (void)db_.ExecuteStmt(stmt);
  }
  schema_seq_ = schema.size();
  // Row images re-insert at full width (USER_ID included).
  for (const auto& [table, blob] : tables) {
    SqlTable* t = db_.FindTable(table);
    if (t == nullptr) {
      continue;  // row image for a table whose schema record was lost
    }
    InsertStmt ins;
    ins.table = table;
    for (const SqlColumnDef& c : t->columns()) {
      ins.columns.push_back(c.name);
    }
    size_t pos = 0;
    uint64_t count = 0;
    if (!IsOk(codec::ReadVarint(blob, &pos, &count))) {
      continue;
    }
    for (uint64_t i = 0; i < count; ++i) {
      std::string_view encoded;
      if (!IsOk(codec::ReadString(blob, &pos, &encoded))) {
        break;
      }
      std::vector<SqlValue> row;
      if (DecodeDbRow(encoded, &row) && row.size() == ins.columns.size()) {
        ins.rows.push_back(std::move(row));
      }
    }
    if (!ins.rows.empty()) {
      (void)db_.ExecuteStmt(SqlStatement(std::move(ins)));
    }
  }
}

void DbproxyProcess::PersistSchema(const std::string& sql) {
  const auto seq = static_cast<unsigned long long>(schema_seq_++);
  backing_.Put(StrFormat("%s%06llu", kSchemaPrefix, seq), sql, Label::Bottom(), Label::Top());
}

void DbproxyProcess::PersistTable(const std::string& table) {
  const SqlTable* t = db_.FindTable(table);
  if (t == nullptr) {
    return;
  }
  // The full-width rows, hidden USER_ID column included: exactly what must
  // survive the reboot. A varint row count, then each encoded row
  // length-prefixed, in the order an unordered SELECT * returns them.
  std::string image;
  std::string row_bytes;
  codec::AppendVarint(t->row_count(), &image);
  t->ForEachRow([&](const SqlRowView row) {
    row_bytes.clear();
    AppendDbRow(row, row.size(), &row_bytes);
    codec::AppendString(row_bytes, &image);
  });
  backing_.Put(std::string(kTablePrefix) + table, image, Label::Bottom(), Label::Top());
}

void DbproxyProcess::PersistBinding(const std::string& username, const Binding& b) {
  if (!backing_.durable()) {
    return;
  }
  std::string value;
  codec::AppendVarint(b.taint.value(), &value);
  codec::AppendVarint(b.grant.value(), &value);
  codec::AppendVarint(static_cast<uint64_t>(b.user_id), &value);
  // The binding record carries the user's own labels: secrecy names uT (the
  // binding exists to taint u's rows), integrity names uG (only u's grant
  // compartment vouches for it) — the same shape idd persists.
  const Label secrecy({{b.taint, Level::kL3}}, Level::kStar);
  const Label integrity({{b.grant, Level::kL0}}, Level::kL3);
  backing_.Put(std::string(kBindPrefix) + username, value, secrecy, integrity);
}

void DbproxyProcess::PersistAfterExecute(const SqlStatement& stmt,
                                         const std::string& original_sql) {
  if (!backing_.durable()) {
    return;
  }
  if (std::holds_alternative<CreateTableStmt>(stmt) ||
      std::holds_alternative<CreateIndexStmt>(stmt)) {
    // Persist the ORIGINAL text: recovery re-applies the same hidden-column
    // rewrite the live path did, so the replayed schema is identical.
    PersistSchema(original_sql);
    return;
  }
  if (const auto* ins = std::get_if<InsertStmt>(&stmt)) {
    PersistTable(ins->table);
  } else if (const auto* upd = std::get_if<UpdateStmt>(&stmt)) {
    PersistTable(upd->table);
  } else if (const auto* del = std::get_if<DeleteStmt>(&stmt)) {
    PersistTable(del->table);
  }
}

void DbproxyProcess::Start(ProcessContext& ctx) {
  query_port_ = ctx.NewPort(Label::Top());
  ASB_ASSERT(ctx.SetPortLabel(query_port_, Label::Top()) == Status::kOk);
  // The privileged port stays closed: new_port left it at {priv 0, 3}, so
  // only ⋆-holders (idd, via the launcher's capability grant) can reach it.
  priv_port_ = ctx.NewPort(Label::Top());
  wire_port_ = ctx.NewPort(Label::Top());  // stays closed: launcher only

  // When a launcher started us, identify ourselves once (§7.1) and grant it
  // the privileged-port capability to pass on to idd, plus our wire port
  // for late capabilities (netd's control port, once the boot loader has
  // created netd — the proxy spawns first, like idd).
  if (ctx.HasEnv("launcher_port")) {
    Message reg;
    reg.type = boot_proto::kRegister;
    reg.data = "dbproxy";
    reg.words = {query_port_.value(), priv_port_.value(), wire_port_.value()};
    SendArgs args;
    args.verify =
        Label({{Handle::FromValue(ctx.GetEnv("self_verify")), Level::kL0}}, Level::kL3);
    args.decont_send = Label({{priv_port_, Level::kStar}, {wire_port_, Level::kStar}},
                             Level::kL3);
    ctx.Send(Handle::FromValue(ctx.GetEnv("launcher_port")), std::move(reg), args);
  }
}

void DbproxyProcess::ChargeQuery(ProcessContext& ctx, const QueryResult& r) {
  ctx.ChargeCycles(costs::kDbQueryBaseCycles + r.rows_visited * costs::kDbRowVisitCycles +
                   r.index_probes * costs::kDbIndexProbeCycles);
}

void DbproxyProcess::ReplyDone(ProcessContext& ctx, Handle reply, uint64_t cookie, Status status,
                               uint64_t rows_affected) {
  if (!reply.valid()) {
    return;
  }
  Message m;
  m.type = MessageType::kDone;
  m.words = {cookie, static_cast<uint64_t>(-static_cast<int>(status)), rows_affected};
  ctx.Send(reply, std::move(m));
}

void DbproxyProcess::HandleBind(ProcessContext& ctx, const Message& msg) {
  if (msg.words.size() < 3 || msg.data.empty()) {
    return;
  }
  Binding b;
  b.taint = Handle::FromValue(msg.words[0]);
  b.grant = Handle::FromValue(msg.words[1]);
  b.user_id = static_cast<int64_t>(msg.words[2]);
  // The kBind message's D_S granted us uT ⋆ and its D_R raised our receive
  // label — verify we really hold the privilege before trusting the binding.
  if (ctx.send_label().Get(b.taint) != Level::kStar) {
    return;
  }
  bindings_.Put(msg.data.str(), b);
  PersistBinding(msg.data, b);
  if (msg.reply_port.valid()) {
    Message r;
    r.type = MessageType::kBindR;
    r.words = {0};
    ctx.Send(msg.reply_port, std::move(r));
  }
}

bool DbproxyProcess::StatementTouchesUserId(const SqlStatement& stmt) const {
  const auto touches = [](const std::vector<SqlPredicate>& where) {
    for (const SqlPredicate& p : where) {
      if (p.column == kUserIdColumn) {
        return true;
      }
    }
    return false;
  };
  if (const auto* s = std::get_if<SelectStmt>(&stmt)) {
    if (touches(s->where) || s->order_by == kUserIdColumn) {
      return true;
    }
    for (const std::string& c : s->columns) {
      if (c == kUserIdColumn) {
        return true;
      }
    }
    return false;
  }
  if (const auto* s = std::get_if<InsertStmt>(&stmt)) {
    for (const std::string& c : s->columns) {
      if (c == kUserIdColumn) {
        return true;
      }
    }
    return false;
  }
  if (const auto* s = std::get_if<UpdateStmt>(&stmt)) {
    for (const auto& [c, v] : s->sets) {
      if (c == kUserIdColumn) {
        return true;
      }
    }
    return touches(s->where);
  }
  if (const auto* s = std::get_if<DeleteStmt>(&stmt)) {
    return touches(s->where);
  }
  return false;
}

void DbproxyProcess::HandleQuery(ProcessContext& ctx, const Message& msg, bool privileged) {
  ctx.ChargeCycles(costs::kDbProxyMessageCycles);
  const uint64_t cookie = msg.words.empty() ? 0 : msg.words[0];
  const uint64_t flags = msg.words.size() > 1 ? msg.words[1] : 0;
  const size_t nl = msg.data.find('\n');
  // Only kFlagDeclassify is defined: an unknown bit is refused, never ignored.
  if ((flags & ~dbproxy_proto::kFlagDeclassify) != 0 || nl == std::string::npos) {
    ReplyDone(ctx, msg.reply_port, cookie, Status::kInvalidArgs, 0);
    return;
  }
  const std::string username = msg.data.substr(0, nl);
  const std::string sql = msg.data.substr(nl + 1);

  if (obs::EventLog::enabled() && msg.trace_id != 0) {
    // Statement text stays out of the ring (it may embed user data); the
    // span carries the verb and the requesting user only.
    const size_t sp = sql.find(' ');
    obs::EventLog::Get().Span(msg.trace_id, "dbproxy", "dbproxy.stmt",
                              sql.substr(0, sp) + " user=" + username,
                              ctx.send_label());
  }

  auto parsed = ParseSql(sql);
  if (!parsed.ok()) {
    ReplyDone(ctx, msg.reply_port, cookie, parsed.status(), 0);
    return;
  }
  SqlStatement stmt = parsed.take();

  if (privileged) {
    // idd's channel: execute verbatim, but still auto-add the hidden column
    // to newly created worker tables.
    if (auto* create = std::get_if<CreateTableStmt>(&stmt)) {
      AddHiddenUserIdColumn(create);
    }
    auto result = db_.ExecuteStmt(stmt);
    if (!result.ok()) {
      ReplyDone(ctx, msg.reply_port, cookie, result.status(), 0);
      return;
    }
    PersistAfterExecute(stmt, sql);
    ChargeQuery(ctx, result.value());
    const QueryResult& rows = result.value();
    for (size_t i = 0; i < rows.row_count(); ++i) {
      const SqlRowRef row = rows.row(i);
      std::string data;
      AppendDbRow(row, row.size(), &data);
      Message r;
      r.type = MessageType::kRow;
      r.words = {cookie};
      r.data = std::move(data);
      ctx.Send(msg.reply_port, std::move(r));
    }
    ReplyDone(ctx, msg.reply_port, cookie, Status::kOk, result.value().rows_affected);
    return;
  }

  // --- Worker path ------------------------------------------------------------
  const Binding* bound = bindings_.Find(username);
  if (bound == nullptr) {
    ReplyDone(ctx, msg.reply_port, cookie, Status::kAccessDenied, 0);
    return;
  }
  const Binding& binding = *bound;

  // Workers may neither name nor see the hidden column, nor touch the
  // password table, nor define schema.
  if (StatementTouchesUserId(stmt) ||
      std::holds_alternative<CreateTableStmt>(stmt) ||
      std::holds_alternative<CreateIndexStmt>(stmt)) {
    ReplyDone(ctx, msg.reply_port, cookie, Status::kAccessDenied, 0);
    return;
  }
  const auto table_of = [](const SqlStatement& s) -> std::string {
    if (const auto* sel = std::get_if<SelectStmt>(&s)) {
      return sel->table;
    }
    if (const auto* ins = std::get_if<InsertStmt>(&s)) {
      return ins->table;
    }
    if (const auto* upd = std::get_if<UpdateStmt>(&s)) {
      return upd->table;
    }
    return std::get<DeleteStmt>(s).table;
  };
  if (table_of(stmt) == kUserTable) {
    ReplyDone(ctx, msg.reply_port, cookie, Status::kAccessDenied, 0);
    return;
  }

  const bool is_write = !IsReadOnlySql(stmt);
  const bool declassify = (flags & dbproxy_proto::kFlagDeclassify) != 0;
  if (is_write) {
    // §7.5: the verify label must be bounded by {uT 3, uG 0, 2} — the sender
    // is tainted by nothing except its own user's data and speaks for the
    // user. The kernel already guaranteed ES ⊑ V.
    const Label bound({{binding.taint, Level::kL3}, {binding.grant, Level::kL0}}, Level::kL2);
    if (!msg.verify.Leq(bound) || !LevelLeq(msg.verify.Get(binding.grant), Level::kL0)) {
      if (obs::EventLog::enabled()) {
        const DeliveryRefusal why = ExplainDeliveryRefusal(
            msg.verify, bound, Label::Bottom(), Label::Top(), Label::Top());
        obs::EventLog::Get().Refusal(
            "dbproxy.verify_bound", "dbproxy",
            "write verify label exceeds the user's {uT 3, uG 0, 2} bound (§7.5)",
            why.handle, why.es_level, why.bound_level, msg.verify, bound,
            msg.trace_id);
      }
      ReplyDone(ctx, msg.reply_port, cookie, Status::kAccessDenied, 0);
      return;
    }
  }
  if (declassify) {
    // §7.6: declassified writes require declassification privilege, proven
    // by a verify label holding uT at ⋆.
    if (msg.verify.Get(binding.taint) != Level::kStar) {
      if (obs::EventLog::enabled()) {
        obs::EventLog::Get().Refusal(
            "dbproxy.declassify", "dbproxy",
            "declassified write without uT ⋆ in verify (§7.6)",
            binding.taint.value(), msg.verify.Get(binding.taint), Level::kStar,
            msg.verify, Label({{binding.taint, Level::kStar}}, Level::kL3),
            msg.trace_id);
      }
      ReplyDone(ctx, msg.reply_port, cookie, Status::kAccessDenied, 0);
      return;
    }
  }
  const int64_t stamp_id = declassify ? 0 : binding.user_id;

  if (auto* ins = std::get_if<InsertStmt>(&stmt)) {
    ins->columns.emplace_back(kUserIdColumn);
    for (auto& row : ins->rows) {
      row.emplace_back(SqlValue(stamp_id));
    }
  } else if (auto* upd = std::get_if<UpdateStmt>(&stmt)) {
    // Workers modify only their own rows (declassify additionally flips the
    // owner to "public").
    SqlPredicate own;
    own.column = kUserIdColumn;
    own.op = SqlCompare::kEq;
    own.literal = SqlValue(binding.user_id);
    upd->where.push_back(std::move(own));
    if (declassify) {
      upd->sets.emplace_back(kUserIdColumn, SqlValue(int64_t{0}));
    }
  } else if (auto* del = std::get_if<DeleteStmt>(&stmt)) {
    SqlPredicate own;
    own.column = kUserIdColumn;
    own.op = SqlCompare::kEq;
    own.literal = SqlValue(binding.user_id);
    del->where.push_back(std::move(own));
  } else if (auto* sel = std::get_if<SelectStmt>(&stmt)) {
    // Fetch the hidden owner column alongside the request so each row can
    // be tainted for its owner.
    if (sel->star) {
      SqlTable* t = db_.FindTable(sel->table);
      if (t == nullptr) {
        ReplyDone(ctx, msg.reply_port, cookie, Status::kNotFound, 0);
        return;
      }
      sel->star = false;
      for (const SqlColumnDef& c : t->columns()) {
        if (c.name != kUserIdColumn) {
          sel->columns.push_back(c.name);
        }
      }
    }
    sel->columns.emplace_back(kUserIdColumn);
  }

  auto result = db_.ExecuteStmt(stmt);
  if (!result.ok()) {
    ReplyDone(ctx, msg.reply_port, cookie, result.status(), 0);
    return;
  }
  PersistAfterExecute(stmt, sql);
  ChargeQuery(ctx, result.value());

  if (std::holds_alternative<SelectStmt>(stmt)) {
    const QueryResult& rows = result.value();
    for (size_t i = 0; i < rows.row_count(); ++i) {
      const SqlRowRef row = rows.row(i);
      const int64_t owner = row.back().AsInt();
      SendArgs args;
      if (owner != 0) {
        const Binding* owner_binding = bindings_.FindById(owner);
        if (owner_binding == nullptr || !owner_binding->taint.valid()) {
          continue;  // unknown owner: fail closed
        }
        // Each row is a separate message with the owner's taint (§7.5);
        // the kernel drops rows the receiver may not see.
        args.contaminate = Label({{owner_binding->taint, Level::kL3}}, Level::kStar);
      }
      std::string data;
      AppendDbRow(row, row.size() - 1, &data);  // strip the hidden column
      Message r;
      r.type = MessageType::kRow;
      r.words = {cookie};
      r.data = std::move(data);
      ctx.Send(msg.reply_port, std::move(r), args);
    }
  }
  // Untainted completion marker: "all data has been returned".
  ReplyDone(ctx, msg.reply_port, cookie, Status::kOk, result.value().rows_affected);

  const auto current_bytes = static_cast<int64_t>(db_.approx_bytes());
  ctx.ModelHeapBytes(current_bytes - modeled_db_bytes_);
  modeled_db_bytes_ = current_bytes;
}

void DbproxyProcess::HandleMessage(ProcessContext& ctx, const Message& msg) {
  if (backing_.HandleMessage(ctx, msg)) {
    return;  // replication-plane traffic
  }
  if (msg.port == wire_port_) {
    if (msg.type == boot_proto::kWire && msg.data == "netd" && !msg.words.empty()) {
      // The launcher's late wire: netd is up, attach the replication
      // listener (the proxy spawns before the boot loader creates netd, so
      // this capability cannot ride the spawn env the way demux's does).
      backing_.StartReplication(ctx, Handle::FromValue(msg.words[0]), ctx.GetEnv("self_verify"));
    }
    return;
  }
  if (msg.port == priv_port_) {
    if (msg.type == MessageType::kBind) {
      HandleBind(ctx, msg);
    } else if (msg.type == MessageType::kQuery) {
      HandleQuery(ctx, msg, /*privileged=*/true);
    }
    return;
  }
  if (msg.port == query_port_ && msg.type == MessageType::kQuery) {
    HandleQuery(ctx, msg, /*privileged=*/false);
  }
}

}  // namespace asbestos
