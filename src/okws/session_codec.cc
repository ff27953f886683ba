#include "src/okws/session_codec.h"

#include "src/store/label_codec.h"

namespace asbestos {
namespace okws_session {

std::string Key(const std::string& user, const std::string& service) {
  return user + "\x1f" + service;
}

std::string EncodeValue(Handle taint, Handle grant, const std::string& password) {
  std::string out;
  codec::AppendVarint(taint.value(), &out);
  codec::AppendVarint(grant.value(), &out);
  codec::AppendString(password, &out);
  return out;
}

bool DecodeValue(std::string_view value, Handle* taint, Handle* grant,
                 std::string* password) {
  size_t pos = 0;
  uint64_t t = 0;
  uint64_t g = 0;
  std::string_view pw;
  if (!IsOk(codec::ReadVarint(value, &pos, &t)) || !IsOk(codec::ReadVarint(value, &pos, &g)) ||
      !IsOk(codec::ReadString(value, &pos, &pw)) || pos != value.size() ||
      t == 0 || t > Handle::kMaxValue || g == 0 || g > Handle::kMaxValue) {
    return false;
  }
  *taint = Handle::FromValue(t);
  *grant = Handle::FromValue(g);
  password->assign(pw);
  return true;
}

}  // namespace okws_session
}  // namespace asbestos
