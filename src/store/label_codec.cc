#include "src/store/label_codec.h"

#include <utility>

namespace asbestos {
namespace codec {

namespace {

constexpr int kMaxVarintBytes = 10;  // ceil(64 / 7)

}  // namespace

void AppendVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

Status ReadVarint(std::string_view data, size_t* pos, uint64_t* out) {
  uint64_t value = 0;
  int shift = 0;
  for (int i = 0; i < kMaxVarintBytes; ++i) {
    if (*pos >= data.size()) {
      return Status::kBufferTooSmall;
    }
    const uint8_t byte = static_cast<uint8_t>(data[*pos]);
    ++*pos;
    // The 10th byte may only contribute the final value bit.
    if (i == kMaxVarintBytes - 1 && (byte & 0xfe) != 0) {
      return Status::kInvalidArgs;
    }
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // A final zero byte after a continuation adds no bits: the value has a
      // shorter spelling, and each value has exactly one.
      if (byte == 0 && i > 0) {
        return Status::kInvalidArgs;
      }
      *out = value;
      return Status::kOk;
    }
    shift += 7;
  }
  return Status::kInvalidArgs;
}

void AppendString(std::string_view s, std::string* out) {
  AppendVarint(s.size(), out);
  out->append(s.data(), s.size());
}

Status ReadString(std::string_view data, size_t* pos, std::string_view* out) {
  uint64_t len = 0;
  const Status s = ReadVarint(data, pos, &len);
  if (!IsOk(s)) {
    return s;
  }
  if (len > data.size() - *pos) {
    return Status::kBufferTooSmall;
  }
  *out = data.substr(*pos, len);
  *pos += len;
  return Status::kOk;
}

void AppendLabel(const Label& label, std::string* out) {
  out->push_back(static_cast<char>(LevelOrdinal(label.default_level())));

  // First pass: count maximal runs of equal level over the ordered entries.
  uint64_t runs = 0;
  {
    Level run_level = Level::kL3;
    bool in_run = false;
    for (Label::EntryIter it = label.IterateEntries(); !it.done(); it.Advance()) {
      if (!in_run || it.level() != run_level) {
        ++runs;
        run_level = it.level();
        in_run = true;
      }
    }
  }
  AppendVarint(runs, out);

  // Second pass: emit each run as (len<<3)|level, then its handle deltas.
  Label::EntryIter it = label.IterateEntries();
  uint64_t prev = 0;
  while (!it.done()) {
    const Level run_level = it.level();
    // Collect the run extent by buffering its deltas.
    std::string deltas;
    uint64_t len = 0;
    while (!it.done() && it.level() == run_level) {
      AppendVarint(it.handle().value() - prev, &deltas);
      prev = it.handle().value();
      ++len;
      it.Advance();
    }
    AppendVarint((len << 3) | LevelOrdinal(run_level), out);
    out->append(deltas);
  }
}

Status ReadLabel(std::string_view data, size_t* pos, Label* out) {
  if (*pos >= data.size()) {
    return Status::kBufferTooSmall;
  }
  const uint8_t def_ordinal = static_cast<uint8_t>(data[*pos]);
  ++*pos;
  if (def_ordinal > LevelOrdinal(Level::kL3)) {
    return Status::kInvalidArgs;
  }
  const Level def = static_cast<Level>(def_ordinal);

  uint64_t runs = 0;
  Status s = ReadVarint(data, pos, &runs);
  if (!IsOk(s)) {
    return s;
  }
  // Decode through LabelBuilder: every entry is validated here — level, run
  // length, strict handle monotonicity (delta ≥ 1 keeps the stream sorted
  // and non-overlapping across runs), 61-bit overflow — and then appended to
  // a flat buffer that Build() memcpys into chunks. The previous per-entry
  // Label::Set path paid O(chunk) per entry (~7 MB/s on 4k-entry labels);
  // this is the near-memcpy recovery path bench_store's BM_UnpickleLabel
  // tracks. On any failure *out is untouched.
  LabelBuilder builder(def);
  uint64_t handle = 0;
  uint8_t prev_level_ordinal = def_ordinal;  // no run may repeat this level
  for (uint64_t r = 0; r < runs; ++r) {
    uint64_t header = 0;
    s = ReadVarint(data, pos, &header);
    if (!IsOk(s)) {
      return s;
    }
    const uint8_t level_ordinal = header & 0x7;
    const uint64_t len = header >> 3;
    // A canonical encoding never stores default-valued entries or empty
    // runs, and its runs are maximal: two neighbours never share a level.
    if (level_ordinal > LevelOrdinal(Level::kL3) || level_ordinal == def_ordinal ||
        level_ordinal == prev_level_ordinal || len == 0) {
      return Status::kInvalidArgs;
    }
    prev_level_ordinal = level_ordinal;
    // Each delta is at least one byte, so a run longer than the remaining
    // buffer can never decode; failing here keeps a forged length from
    // driving a quadratic validate-per-entry loop over a short buffer.
    if (len > data.size() - *pos) {
      return Status::kBufferTooSmall;
    }
    const Level level = static_cast<Level>(level_ordinal);
    builder.Reserve(static_cast<size_t>(len));
    for (uint64_t i = 0; i < len; ++i) {
      uint64_t delta = 0;
      s = ReadVarint(data, pos, &delta);
      if (!IsOk(s)) {
        return s;
      }
      // Entries are strictly increasing, so a delta of zero (or one that
      // overflows the 61-bit handle space) marks corruption.
      if (delta == 0 || delta > Handle::kMaxValue - handle) {
        return Status::kInvalidArgs;
      }
      handle += delta;
      builder.Append(Handle::FromValue(handle), level);
    }
  }
  *out = builder.Build();
  return Status::kOk;
}

std::string PickleLabel(const Label& label) {
  std::string out;
  AppendLabel(label, &out);
  return out;
}

Status UnpickleLabel(std::string_view data, Label* out) {
  // Decoded aside, so that refusing trailing bytes leaves *out untouched too.
  size_t pos = 0;
  Label decoded;
  const Status s = ReadLabel(data, &pos, &decoded);
  if (!IsOk(s)) {
    return s;
  }
  if (pos != data.size()) {
    return Status::kInvalidArgs;
  }
  *out = std::move(decoded);
  return Status::kOk;
}

}  // namespace codec
}  // namespace asbestos
