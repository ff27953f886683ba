// Codec for the demux session table's durable records.
//
// The primary's demux and a read-serving follower must agree on the session
// value format byte-for-byte: the follower ships the primary's WAL
// verbatim, so a format skew would misread every record. Keeping the codec
// in one translation unit makes that agreement structural.
#ifndef SRC_OKWS_SESSION_CODEC_H_
#define SRC_OKWS_SESSION_CODEC_H_

#include <string>
#include <string_view>

#include "src/labels/handle.h"

namespace asbestos {
namespace okws_session {

// (user, service) → session-table key. "\x1f" (ASCII unit separator) cannot
// appear in a parsed username or service name, so the key is unambiguous.
std::string Key(const std::string& user, const std::string& service);

// Durable session record value: varint uT, varint uG, length-prefixed
// password. uW is deliberately NOT stored — the worker event process it
// names dies with the boot, and a recovered session's first connection
// forks a fresh one. A session lives until a password change invalidates
// it (§7.3); the record carries no lifetime.
std::string EncodeValue(Handle taint, Handle grant, const std::string& password);
bool DecodeValue(std::string_view value, Handle* taint, Handle* grant,
                 std::string* password);

}  // namespace okws_session
}  // namespace asbestos

#endif  // SRC_OKWS_SESSION_CODEC_H_
