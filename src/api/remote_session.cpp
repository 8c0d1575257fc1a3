#include "src/api/remote_session.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "src/pland/protocol.h"

namespace karma::api {

namespace {

PlanError unavailable(std::string message) {
  PlanError e;
  e.code = PlanErrorCode::kUnavailable;
  e.message = std::move(message);
  return e;
}

}  // namespace

Expected<RemoteSession, PlanError> RemoteSession::connect(
    const std::string& socket_path, std::string tenant) {
  sockaddr_un addr{};
  if (socket_path.empty() || socket_path.size() >= sizeof addr.sun_path)
    return unavailable("socket path empty or too long: '" + socket_path +
                       "'");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return unavailable("socket() failed");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return unavailable("cannot connect to karma-pland at '" + socket_path +
                       "': " + std::strerror(errno));
  }
  return RemoteSession(fd, std::move(tenant));
}

RemoteSession::RemoteSession(int fd, std::string tenant)
    : fd_(fd), tenant_(std::move(tenant)) {}

RemoteSession::RemoteSession(RemoteSession&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      tenant_(std::move(other.tenant_)),
      next_id_(other.next_id_) {}

RemoteSession& RemoteSession::operator=(RemoteSession&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    tenant_ = std::move(other.tenant_);
    next_id_ = other.next_id_;
  }
  return *this;
}

RemoteSession::~RemoteSession() {
  if (fd_ >= 0) ::close(fd_);
}

struct RemoteSession::Reply {
  std::string frame;
  util::json::Document root;
  pland::Response response;  ///< its RawJson members view `frame`/`root`
};

std::optional<PlanError> RemoteSession::call(
    pland::RequestOf<const PlanRequest*> request, Reply& reply) {
  std::lock_guard<std::mutex> lock(mu_);
  request.head.id = next_id_++;
  util::json::Writer w(std::move(frame_));
  JsonOut(w).put(request);
  frame_ = w.take();
  if (fd_ < 0 || !pland::write_frame(fd_, frame_))
    return unavailable("karma-pland connection failed");
  for (;;) {
    if (pland::read_frame(fd_, &reply.frame) != pland::ReadStatus::kOk)
      return unavailable("karma-pland connection failed mid-request");
    try {
      reply.root = util::json::parse(reply.frame);
      reply.response = {};
      JsonIn::read(reply.root, reply.response, reply.frame);
    } catch (const std::exception& ex) {
      return unavailable(std::string("malformed daemon response: ") +
                         ex.what());
    }
    // Not ours (a stale pipelined response): keep reading.
    if (reply.response.head.id != request.head.id) continue;
    if (!reply.response.ok) return std::move(*reply.response.error);
    return std::nullopt;
  }
}

Expected<std::string, PlanError> RemoteSession::plan_raw(
    const PlanRequest& request) {
  Reply reply;
  if (auto error = call({.head = {"plan"}, .tenant = tenant_,
                         .request = &request}, reply))
    return std::move(*error);
  // The span IS the leader's Plan::to_json() bytes — byte-identical for
  // every client fleet-wide.
  return std::string(reply.response.plan.text);
}

Expected<Plan, PlanError> RemoteSession::plan(const PlanRequest& request) {
  Reply reply;
  if (auto error = call({.head = {"plan"}, .tenant = tenant_,
                         .request = &request}, reply))
    return std::move(*error);
  return read_json<Plan>(*reply.response.plan.value, "RemoteSession::plan");
}

Expected<std::string, PlanError> RemoteSession::stats_json() {
  Reply reply;
  if (auto error = call({.head = {"stats"}}, reply)) return std::move(*error);
  return std::string(reply.response.stats.text);
}

Expected<std::string, PlanError> RemoteSession::metrics_json() {
  Reply reply;
  if (auto error = call({.head = {"metrics"}}, reply)) return std::move(*error);
  return std::string(reply.response.metrics.text);
}

Expected<std::string, PlanError> RemoteSession::calibrate(
    const std::string& table_json) {
  Reply reply;
  // A null table clears back to the analytic model.
  const std::string_view table =
      table_json.empty() ? std::string_view("null") : table_json;
  if (auto error = call({.head = {"calibrate"}, .table = {table}}, reply))
    return std::move(*error);
  return std::move(*reply.response.calibration);
}

bool RemoteSession::ping() {
  Reply reply;
  return !call({.head = {"ping"}}, reply) && reply.response.head.type == "pong";
}

bool RemoteSession::shutdown_server() {
  Reply reply;
  return !call({.head = {"shutdown"}}, reply) &&
         reply.response.head.type == "shutdown";
}

}  // namespace karma::api
