// Binary label pickling (the durable twin of Label::ToString/Parse).
//
// The paper's persistent services (the file server of §5.2–5.4, the OKWS
// identity stack of §7.4–7.6) must write labels to storage and read them
// back losslessly across reboots. The text form is for humans; this codec is
// the storage form: compact, canonical, and strict about corrupt input.
//
// Encoded layout (all integers LEB128 varints unless noted):
//
//   ┌────────────┬───────────┬──────── R runs ────────────────────────────┐
//   │ default:u8 │ runs R    │ hdr=(len<<3)|level │ len handle deltas │ … │
//   └────────────┴───────────┴────────────────────────────────────────────┘
//
// Explicit entries are emitted in increasing handle order and grouped into
// maximal runs of equal level; each run stores its level once in the low 3
// bits of its header. Handles are delta-encoded (first delta from 0), so a
// dense compartment range costs ~1 byte per entry and a large ⋆-rich label
// (netd's or idd's send label) pays for its level bytes once per run, not
// once per entry — the binary twin of the chunk extrema trick in src/labels.
//
// Decoding is strict: truncated input returns kBufferTooSmall, corrupt input
// (bad level, level equal to the default, zero-length run, a run with its
// predecessor's level, zero delta, handle overflow past 61 bits, oversized
// or overlong varint) returns kInvalidArgs. Every label therefore has one
// accepted spelling, the one AppendLabel writes. Decoders never panic on
// untrusted bytes.
#ifndef SRC_STORE_LABEL_CODEC_H_
#define SRC_STORE_LABEL_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/base/status.h"
#include "src/labels/label.h"

namespace asbestos {
namespace codec {

// --- Primitives shared by the label codec, the WAL, and the snapshot ------

// LEB128: 7 value bits per byte, high bit = continuation. At most 10 bytes.
void AppendVarint(uint64_t v, std::string* out);
// Reads one varint at *pos, advancing it. kBufferTooSmall when the buffer
// ends mid-varint; kInvalidArgs when the encoding exceeds 10 bytes,
// overflows 64 bits, or is overlong (ends in a zero byte after a
// continuation byte, e.g. 85 00 for 5).
Status ReadVarint(std::string_view data, size_t* pos, uint64_t* out);

// Varint length prefix followed by the raw bytes.
void AppendString(std::string_view s, std::string* out);
Status ReadString(std::string_view data, size_t* pos, std::string_view* out);

// --- Labels ----------------------------------------------------------------

void AppendLabel(const Label& label, std::string* out);
Status ReadLabel(std::string_view data, size_t* pos, Label* out);

// Whole-buffer forms. Unpickle rejects trailing bytes (kInvalidArgs); like
// ReadLabel, it leaves *out untouched on any failure.
std::string PickleLabel(const Label& label);
Status UnpickleLabel(std::string_view data, Label* out);

}  // namespace codec
}  // namespace asbestos

#endif  // SRC_STORE_LABEL_CODEC_H_
