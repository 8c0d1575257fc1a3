#include "src/pland/protocol.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace karma::pland {

void after_read(const Response& response) {
  if (response.ok == response.error.has_value())
    throw std::runtime_error("a response carries an error exactly when not ok");
  const auto object = [](const api::RawJson& json) {
    return json.value && json.value->type == util::json::Value::Type::kObject;
  };
  const std::string& type = response.head.type;
  if (response.ok && ((type == "plan" && !object(response.plan)) ||
                      (type == "stats" && !object(response.stats)) ||
                      (type == "metrics" && !object(response.metrics)) ||
                      (type == "calibrate" && !response.calibration)))
    throw std::runtime_error("a '" + type + "' response lacks its result");
}

namespace {

/// Reads exactly `size` bytes. Returns bytes read (== size on success; 0 =
/// clean EOF before the first byte; anything else = truncated/error).
std::size_t read_all(int fd, char* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return got;
    }
    if (n == 0) return got;  // peer closed
    got += static_cast<std::size_t>(n);
  }
  return got;
}

}  // namespace

bool write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  const auto len = static_cast<std::uint32_t>(payload.size());
  // Little-endian by construction, independent of host order.
  char prefix[4] = {
      static_cast<char>(len & 0xff), static_cast<char>((len >> 8) & 0xff),
      static_cast<char>((len >> 16) & 0xff),
      static_cast<char>((len >> 24) & 0xff)};
  // Prefix and payload leave in one sendmsg, so the reader wakes once per
  // frame; a partial send resumes where it stopped.
  iovec parts[2] = {{prefix, sizeof prefix},
                    {const_cast<char*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = parts;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    // MSG_NOSIGNAL: a peer that hung up mid-response must surface as an
    // EPIPE return, never a process-killing SIGPIPE — one disconnecting
    // client cannot be allowed to take down the multi-tenant daemon (or a
    // client library's host process).
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    auto sent = static_cast<std::size_t>(n);
    for (; msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len;
         ++msg.msg_iov, --msg.msg_iovlen)
      sent -= msg.msg_iov->iov_len;
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
  return true;
}

ReadStatus read_frame(int fd, std::string* payload) {
  unsigned char prefix[4];
  const std::size_t got =
      read_all(fd, reinterpret_cast<char*>(prefix), sizeof prefix);
  if (got == 0) return ReadStatus::kEof;
  if (got != sizeof prefix) return ReadStatus::kError;
  const std::uint32_t len = static_cast<std::uint32_t>(prefix[0]) |
                            (static_cast<std::uint32_t>(prefix[1]) << 8) |
                            (static_cast<std::uint32_t>(prefix[2]) << 16) |
                            (static_cast<std::uint32_t>(prefix[3]) << 24);
  if (len > kMaxFrameBytes) return ReadStatus::kTooLarge;
  payload->resize(len);
  if (read_all(fd, payload->data(), len) != len) return ReadStatus::kError;
  return ReadStatus::kOk;
}

}  // namespace karma::pland
