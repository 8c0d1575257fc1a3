// karma-pland: the cross-process planning daemon (DESIGN.md §12).
//
// Three layers of proof:
//   - DAEMON PROTOCOL: RemoteSession against an in-process Daemon —
//     plans byte-identical to the engine's own, hit-path accounting,
//     admission sheds with retry_after, stats, graceful shutdown.
//   - FLEET SINGLE-FLIGHT: two Engines sharing one cache dir run ONE
//     search between them (claim files; flock conflicts across fds even
//     in one process), and a SIGKILLed claim holder releases followers
//     (kernel drops the flock).
//   - MULTI-PROCESS STORM: fork+exec N karma-planctl clients at one
//     daemon — exactly one search fleet-wide, byte-identical artifacts
//     in every client's output file.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <filesystem>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/api/engine.h"
#include "src/api/remote_session.h"
#include "src/api/request_io.h"
#include "src/cache/disk_store.h"
#include "src/calib/table.h"
#include "src/cache/request_key.h"
#include "src/graph/model_zoo.h"
#include "src/pland/daemon.h"
#include "src/pland/protocol.h"
#include "src/util/json.h"

namespace karma {
namespace {

namespace fs = std::filesystem;

/// Tests must not inherit a developer's shared cache.
class KillCacheEnv : public ::testing::Environment {
 public:
  void SetUp() override { unsetenv("KARMA_CACHE_DIR"); }
};
const auto* const kEnv =
    ::testing::AddGlobalTestEnvironment(new KillCacheEnv);

struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("karma-pland-" + tag + "-" + std::to_string(::getpid())))
               .string();
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

api::PlanRequest resnet_request(std::int64_t batch = 512,
                                int anneal = 30) {
  api::PlanRequest request;
  request.model = graph::make_resnet50(batch);
  request.device = sim::v100_abci();
  request.planner.enable_recompute = true;
  request.planner.anneal_iterations = anneal;
  request.probe_feasible_batch = false;
  return request;
}

/// A started daemon on a fresh socket + cache dir, torn down with the
/// fixture.
struct DaemonFixture {
  explicit DaemonFixture(const std::string& tag,
                         pland::DaemonOptions options = {})
      : dir(tag) {
    options.socket_path = dir.path + "/pland.sock";
    if (options.engine.cache.cache_dir.empty())
      options.engine.cache.cache_dir = dir.path + "/cache";
    daemon = std::make_unique<pland::Daemon>(std::move(options));
  }
  TempDir dir;
  std::unique_ptr<pland::Daemon> daemon;
};

// ---------------------------------------------------------------------------
// Daemon protocol via RemoteSession
// ---------------------------------------------------------------------------

TEST(Daemon, RemotePlanIsByteIdenticalToTheEnginesOwn) {
  DaemonFixture fx("bytes");
  ASSERT_TRUE(fx.daemon->start());
  auto session =
      api::RemoteSession::connect(fx.daemon->socket_path(), "tenant-a");
  ASSERT_TRUE(session.has_value()) << session.error().message;

  const api::PlanRequest request = resnet_request();
  auto remote = session->plan_raw(request);
  ASSERT_TRUE(remote.has_value()) << remote.error().describe();
  // The wire bytes ARE the engine artifact (cache hit path, same engine).
  const auto local = fx.daemon->engine()->plan(request);
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(remote.value(), local.value().to_json());
  // And the parsed form round-trips.
  auto parsed = session->plan(request);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed.value().to_json(), local.value().to_json());
}

TEST(Daemon, WarmHitsAreServedOnTheHitPathAndCounted) {
  DaemonFixture fx("hits");
  ASSERT_TRUE(fx.daemon->start());
  auto session =
      api::RemoteSession::connect(fx.daemon->socket_path(), "hot");
  ASSERT_TRUE(session.has_value());

  const api::PlanRequest request = resnet_request();
  ASSERT_TRUE(session->plan_raw(request).has_value());  // cold: search
  ASSERT_TRUE(session->plan_raw(request).has_value());  // warm: hit path
  ASSERT_TRUE(session->plan_raw(request).has_value());  // warm again

  const pland::DaemonStats stats = fx.daemon->stats();
  EXPECT_EQ(stats.engine.searches, 1u);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].tenant, "hot");
  EXPECT_EQ(stats.tenants[0].hits, 2u);
  EXPECT_EQ(stats.tenants[0].admitted, 1u);
  EXPECT_EQ(stats.tenants[0].completed, 1u);
  EXPECT_EQ(stats.tenants[0].shed, 0u);
}

TEST(Daemon, AdmissionControlShedsWithRetryAfter) {
  pland::DaemonOptions options;
  options.max_queue_per_tenant = 0;  // every miss sheds immediately
  options.retry_after = 1.5;
  DaemonFixture fx("shed", std::move(options));
  ASSERT_TRUE(fx.daemon->start());
  auto session =
      api::RemoteSession::connect(fx.daemon->socket_path(), "flood");
  ASSERT_TRUE(session.has_value());

  auto outcome = session->plan(resnet_request());
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, api::PlanErrorCode::kOverloaded);
  EXPECT_DOUBLE_EQ(outcome.error().retry_after, 1.5);
  const pland::DaemonStats stats = fx.daemon->stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.engine.searches, 0u);  // shed before any search
}

TEST(Daemon, PingStatsAndRemoteShutdown) {
  DaemonFixture fx("ctl");
  ASSERT_TRUE(fx.daemon->start());
  auto session = api::RemoteSession::connect(fx.daemon->socket_path());
  ASSERT_TRUE(session.has_value());
  EXPECT_TRUE(session->ping());
  auto stats = session->stats_json();
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats.value().find("\"tenants\""), std::string::npos);

  EXPECT_TRUE(session->shutdown_server());
  fx.daemon->wait();  // the shutdown envelope resolves the wait
  EXPECT_FALSE(fx.daemon->running());
  // The socket is gone: new connections fail as kUnavailable.
  auto dead = api::RemoteSession::connect(fx.daemon->socket_path());
  ASSERT_FALSE(dead.has_value());
  EXPECT_EQ(dead.error().code, api::PlanErrorCode::kUnavailable);
}

TEST(Daemon, ShortLivedConnectionsAreReapedAndServiceContinues) {
  // Regression: reader threads and connection slots must be reclaimed as
  // clients hang up, not accumulated until shutdown. Churn through many
  // short-lived connections, then prove the daemon still serves and has
  // reaped the dead readers down to the one live connection.
  DaemonFixture fx("churn");
  ASSERT_TRUE(fx.daemon->start());
  constexpr int kChurn = 24;
  for (int i = 0; i < kChurn; ++i) {
    auto session =
        api::RemoteSession::connect(fx.daemon->socket_path(), "churn");
    ASSERT_TRUE(session.has_value()) << i;
    EXPECT_TRUE(session->ping()) << i;
  }  // ~RemoteSession closes the socket each round
  auto session =
      api::RemoteSession::connect(fx.daemon->socket_path(), "churn");
  ASSERT_TRUE(session.has_value());
  // The accept loop reaps on every poll tick (<= 200 ms apart).
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_LE(fx.daemon->open_connections(), 1u);
  EXPECT_TRUE(session->ping());
  EXPECT_EQ(fx.daemon->stats().connections,
            static_cast<std::uint64_t>(kChurn) + 1);
}

TEST(Daemon, SecondDaemonRefusesALiveSocket) {
  DaemonFixture fx("live");
  ASSERT_TRUE(fx.daemon->start());
  pland::DaemonOptions second;
  second.socket_path = fx.daemon->socket_path();
  second.engine.cache.cache_dir = fx.dir.path + "/cache2";
  pland::Daemon usurper(std::move(second));
  EXPECT_FALSE(usurper.start());
  EXPECT_TRUE(fx.daemon->running());
}

// ---------------------------------------------------------------------------
// The wire protocol, frame by frame
// ---------------------------------------------------------------------------

using util::json::Document;
using util::json::Value;

/// Connects a unix stream socket to `path`; -1 on failure.
int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// A daemon client that writes envelopes as literal text, including ones
/// RemoteSession would never write.
struct RawClient {
  explicit RawClient(const std::string& path) : fd(connect_unix(path)) {}
  ~RawClient() {
    if (fd >= 0) ::close(fd);
  }
  /// Sends `frame` and parses the one response frame (kept in `reply`).
  Document call(const std::string& frame) {
    EXPECT_TRUE(pland::write_frame(fd, frame));
    EXPECT_EQ(pland::read_frame(fd, &reply), pland::ReadStatus::kOk);
    return util::json::parse(reply);
  }
  int fd;
  std::string reply;
};

const std::string kInvalidRequest =
    api::plan_error_code_name(api::PlanErrorCode::kInvalidRequest);

TEST(Protocol, EnvelopesOfThePreviousClientAreStillAnswered) {
  // The request envelopes the client wrote before the envelopes were
  // derived from field lists, captured verbatim. Every member its client
  // read must keep its name, JSON type and presence in the answers.
  DaemonFixture fx("compat");
  ASSERT_TRUE(fx.daemon->start());
  RawClient client(fx.daemon->socket_path());
  const auto header = [](const Value& r, const char* type, std::int64_t id) {
    EXPECT_EQ(r.at("v").as_int(), 1);
    EXPECT_EQ(r.at("type").as_string(), type);
    EXPECT_EQ(r.at("id").as_int(), id);
    EXPECT_TRUE(r.at("ok").as_bool());
  };

  const api::PlanRequest request = resnet_request();
  Document r = client.call(
      R"({"v":1,"type":"plan","id":1,"tenant":"tenant-a","request":)" +
      api::request_to_json(request) + "}");
  header(r, "plan", 1);
  const auto local = fx.daemon->engine()->plan(request);
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(r.at("plan").span(client.reply), local.value().to_json());

  r = client.call(R"({"v":1,"type":"stats","id":2})");
  header(r, "stats", 2);
  EXPECT_EQ(r.at("stats").at("tenants").as_array().size(), 1u);
  r = client.call(R"({"v":1,"type":"metrics","id":3})");
  header(r, "metrics", 3);
  EXPECT_TRUE(r.at("metrics").has("counters"));
  r = client.call(R"({"v":1,"type":"ping","id":4})");
  header(r, "pong", 4);

  const std::string table =
      R"({"version":1,"factors":{"*":{"h2d":1.5,"d2h":1.5}},)"
      R"("sample_count":0,"rejected_outliers":0})";
  r = client.call(R"({"v":1,"type":"calibrate","id":6,"table":)" + table +
                  "}");
  header(r, "calibrate", 6);
  EXPECT_EQ(r.at("calibration").as_string(),
            calib::CalibrationTable::from_json(table).content_hash());
  EXPECT_EQ(r.at("calibration_version").as_int(), 1);
  r = client.call(R"({"v":1,"type":"calibrate","id":7,"table":null})");
  header(r, "calibrate", 7);
  EXPECT_EQ(r.at("calibration").as_string(), "");
  EXPECT_EQ(r.at("calibration_version").as_int(), 0);

  r = client.call(R"({"v":1,"type":"shutdown","id":5})");
  header(r, "shutdown", 5);
  fx.daemon->wait();
  EXPECT_EQ(fx.daemon->stats().protocol_errors, 0u);
}

TEST(Protocol, EachMalformedFrameGetsOneErrorAndTheConnectionLives) {
  DaemonFixture fx("malformed");
  ASSERT_TRUE(fx.daemon->start());
  RawClient client(fx.daemon->socket_path());
  const std::string request = api::request_to_json(resnet_request());
  const std::vector<std::string> frames = {
      R"({"v":1,"type":"ping",)",  // not JSON
      R"({"v":2,"type":"ping","id":1})",
      R"({"v":1,"type":"teleport","id":2})",
      R"({"v":1,"type":"ping","id":"x"})",
      R"({"v":1,"type":"plan","id":4,"tenant":5,"request":)" + request + "}",
      R"({"v":1,"type":"plan","id":5,"tenant":"t"})",
      R"({"v":1,"type":"calibrate","id":6})",
      // Nested past the parser's depth bound: a parse error, not a stack
      // overflow on the connection thread.
      std::string(1000000, '['),
  };
  for (std::size_t i = 0; i < frames.size(); ++i) {
    SCOPED_TRACE(frames[i].substr(0, 60));
    const Document error = client.call(frames[i]);
    EXPECT_EQ(error.at("type").as_string(), "error");
    EXPECT_FALSE(error.at("ok").as_bool());
    EXPECT_EQ(error.at("error").at("code").as_string(), kInvalidRequest);
    EXPECT_EQ(fx.daemon->stats().protocol_errors, i + 1);
    // The next frame on the same connection is the pong: one answer each.
    const Document pong = client.call(R"({"v":1,"type":"ping","id":99})");
    EXPECT_EQ(pong.at("type").as_string(), "pong");
    EXPECT_EQ(pong.at("id").as_int(), 99);
  }
  EXPECT_EQ(fx.daemon->stats().engine.searches, 0u);
}

TEST(Protocol, CalibrateWithAWrongTypedTableIsRefused) {
  DaemonFixture fx("badtable");
  ASSERT_TRUE(fx.daemon->start());
  RawClient client(fx.daemon->socket_path());
  const std::string before = fx.daemon->engine()->calibration_hash();
  const Document r = client.call(
      R"({"v":1,"type":"calibrate","id":3,"table":{"version":1,)"
      R"("factors":5,"sample_count":0,"rejected_outliers":0}})");
  EXPECT_FALSE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("error").at("code").as_string(), kInvalidRequest);
  EXPECT_EQ(fx.daemon->engine()->calibration_hash(), before);
  EXPECT_EQ(fx.daemon->stats().calibration, before);
}

TEST(Protocol, StatsDocumentKeepsItsBytes) {
  // Bytes of the hand-written stats writer the field lists replaced.
  pland::DaemonStats s;
  s.connections = 9;
  s.requests = 8;
  s.shed = 1;
  s.protocol_errors = 2;
  s.engine = {7, 3, 4, 5, 6};
  s.cache = {11, 12, 13, 14, 15, 16, 17, 18, 19, 20};
  s.claims_won = 21;
  s.claims_lost = 22;
  s.calibration = "abc";
  s.calibration_version = 1;
  s.tenants = {{"a", 1, 2, 3, 4, 5}, {"b", 6, 7, 8, 9, 10}};
  EXPECT_EQ(s.to_json(),
            R"({"connections":9,"requests":8,"shed":1,"protocol_errors":2,)"
            R"("engine":{"requests":7,"searches":3,"flights_joined":4,)"
            R"("cancelled":5,"deadlines":6},"cache":{"memory_hits":11,)"
            R"("disk_hits":12,"misses":13,"insertions":14,"evictions":15,)"
            R"("disk_writes":16,"corrupt_entries":17,"resident_bytes":18,)"
            R"("negative_hits":19,"negative_insertions":20},)"
            R"("claims_won":21,"claims_lost":22,"calibration":"abc",)"
            R"("calibration_version":1,"tenants":[{"tenant":"a",)"
            R"("admitted":1,"completed":2,"shed":3,"hits":4,)"
            R"("queue_depth":5},{"tenant":"b","admitted":6,"completed":7,)"
            R"("shed":8,"hits":9,"queue_depth":10}]})");
}

/// A stand-in daemon on a temporary socket: it serves one client, answering
/// each request frame with the frames `answer(id)` returns, so a test can
/// send replies a real daemon never would.
struct FakeDaemon {
  using Answer = std::function<std::vector<std::string>(std::int64_t id)>;

  FakeDaemon(const std::string& tag, Answer answer)
      : dir(tag), path(dir.path + "/fake.sock") {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr),
              0);
    EXPECT_EQ(::listen(listen_fd, 1), 0);
    server = std::thread([this, answer = std::move(answer)] {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      std::string frame;
      while (pland::read_frame(fd, &frame) == pland::ReadStatus::kOk) {
        received.push_back(frame);
        for (const std::string& out :
             answer(util::json::parse(frame).at("id").as_int()))
          pland::write_frame(fd, out);
      }
      ::close(fd);
    });
  }
  /// Waits for the client to hang up; `received` is then safe to read.
  void join() {
    ::shutdown(listen_fd, SHUT_RDWR);  // wakes an accept nobody will meet
    if (server.joinable()) server.join();
  }
  ~FakeDaemon() {
    join();
    ::close(listen_fd);
  }

  TempDir dir;
  std::string path;
  int listen_fd = -1;
  std::thread server;
  std::vector<std::string> received;
};

std::string envelope(std::int64_t id, const std::string& members) {
  return R"({"v":1,"type":"plan","id":)" + std::to_string(id) + "," +
         members + "}";
}

TEST(Protocol, ClientEnvelopesCarryWhatTheDaemonReads) {
  api::PlanError refusal;
  refusal.code = api::PlanErrorCode::kInvalidRequest;
  refusal.message = "fake";
  FakeDaemon fake("envelopes", [&](std::int64_t id) {
    return std::vector<std::string>{
        R"({"v":1,"type":"error","id":)" + std::to_string(id) +
        R"(,"ok":false,"error":)" + api::write_json(refusal) + "}"};
  });
  {
    auto session = api::RemoteSession::connect(fake.path, "tenant-a");
    ASSERT_TRUE(session.has_value());
    const auto refused = session->plan_raw(resnet_request());
    ASSERT_FALSE(refused.has_value());
    EXPECT_EQ(refused.error().code, api::PlanErrorCode::kInvalidRequest);
    EXPECT_EQ(refused.error().message, "fake");
    EXPECT_FALSE(session->stats_json().has_value());
    EXPECT_FALSE(session->metrics_json().has_value());
    EXPECT_FALSE(session->ping());
    EXPECT_FALSE(session->shutdown_server());
    EXPECT_FALSE(session->calibrate(R"({"version":1})").has_value());
    EXPECT_FALSE(session->calibrate("").has_value());
  }
  fake.join();
  const std::vector<std::string> types = {
      "plan", "stats", "metrics", "ping", "shutdown", "calibrate",
      "calibrate"};
  ASSERT_EQ(fake.received.size(), types.size());
  std::set<std::int64_t> ids;
  for (std::size_t i = 0; i < types.size(); ++i) {
    const std::string& text = fake.received[i];
    const Document frame = util::json::parse(text);
    EXPECT_EQ(frame.at("v").as_int(), pland::kProtocolVersion);
    EXPECT_EQ(frame.at("type").as_string(), types[i]);
    EXPECT_TRUE(ids.insert(frame.at("id").as_int()).second);
  }
  const Document plan = util::json::parse(fake.received[0]);
  EXPECT_EQ(plan.at("tenant").as_string(), "tenant-a");
  EXPECT_EQ(plan.at("request").span(fake.received[0]),
            api::request_to_json(resnet_request()));
  EXPECT_EQ(util::json::parse(fake.received[5]).at("table").span(
                fake.received[5]),
            R"({"version":1})");
  EXPECT_TRUE(util::json::parse(fake.received[6]).at("table").is_null());
}

TEST(Protocol, ClientSkipsStaleResponses) {
  FakeDaemon fake("stale", [](std::int64_t id) {
    const auto pong = [](std::int64_t n) {
      return R"({"v":1,"type":"pong","id":)" + std::to_string(n) +
             R"(,"ok":true})";
    };
    return std::vector<std::string>{pong(id + 100), pong(id - 1), pong(id)};
  });
  auto session = api::RemoteSession::connect(fake.path);
  ASSERT_TRUE(session.has_value());
  EXPECT_TRUE(session->ping());
  EXPECT_TRUE(session->ping());
}

TEST(Protocol, WrongTypedResponsesAreUnavailableNeverThrown) {
  const std::vector<std::string> members = {
      R"("ok":"yes","plan":{})", R"("ok":1,"plan":{})",
      R"("ok":true,"plan":5)",   R"("ok":true,"plan":"x")",
      R"("ok":true)",            R"("ok":false)",
      R"("ok":true,"plan":{},"error":5)", R"("ok":true,"plan":{})"};
  std::size_t next = 0;
  FakeDaemon fake("wrongtype", [&](std::int64_t id) {
    return std::vector<std::string>{envelope(id, members[next++ / 2])};
  });
  auto session = api::RemoteSession::connect(fake.path);
  ASSERT_TRUE(session.has_value());
  for (std::size_t i = 0; i + 1 < members.size(); ++i) {
    SCOPED_TRACE(members[i]);
    EXPECT_NO_THROW({
      const auto raw = session->plan_raw(resnet_request());
      ASSERT_FALSE(raw.has_value());
      EXPECT_EQ(raw.error().code, api::PlanErrorCode::kUnavailable);
      const auto plan = session->plan(resnet_request());
      ASSERT_FALSE(plan.has_value());
      EXPECT_EQ(plan.error().code, api::PlanErrorCode::kUnavailable);
    });
  }
  // A well-formed envelope around a malformed plan: the bytes pass
  // through, and the plan they do not make is a parse error.
  const auto raw = session->plan_raw(resnet_request());
  ASSERT_TRUE(raw.has_value());
  EXPECT_EQ(raw.value(), "{}");
  const auto plan = session->plan(resnet_request());
  ASSERT_FALSE(plan.has_value());
  EXPECT_EQ(plan.error().code, api::PlanErrorCode::kParseError);
}

TEST(Protocol, EveryProperPrefixOfAPlanResponseIsAStructuredError) {
  api::PlanRequest request;
  request.model = graph::Model("tiny", 4, [] {
    std::vector<graph::Layer> layers(3);
    for (std::size_t i = 0; i < layers.size(); ++i) {
      layers[i].name = "l" + std::to_string(i);
      layers[i].kind = i == 0 ? graph::LayerKind::kInput
                              : graph::LayerKind::kFullyConnected;
      layers[i].in_shape = layers[i].out_shape = graph::TensorShape({8, 64});
      layers[i].weight_elems = i == 0 ? 0 : 64 * 64;
    }
    return layers;
  }());
  request.device = sim::v100_abci();
  const auto planned = api::Engine::create()->plan(request);
  ASSERT_TRUE(planned.has_value()) << planned.error().describe();
  const std::string plan = planned.value().to_json();

  std::size_t cut = 0;  // the prefix length of the next answer
  FakeDaemon fake("prefix", [&](std::int64_t id) {
    return std::vector<std::string>{
        envelope(id, R"("ok":true,"plan":)" + plan).substr(0, cut)};
  });
  auto session = api::RemoteSession::connect(fake.path);
  ASSERT_TRUE(session.has_value());
  // Ids grow with each call, so every cut below the first answer's length
  // is a proper prefix of the answer it truncates.
  const std::size_t whole = envelope(1, R"("ok":true,"plan":)" + plan).size();
  for (; cut < whole; ++cut) {
    const auto outcome = session->plan(request);
    ASSERT_FALSE(outcome.has_value()) << cut;
    EXPECT_EQ(outcome.error().code, api::PlanErrorCode::kUnavailable) << cut;
  }
  cut = std::string::npos;  // the whole answer
  const auto outcome = session->plan(request);
  ASSERT_TRUE(outcome.has_value()) << outcome.error().describe();
  EXPECT_EQ(outcome.value().to_json(), plan);
}

// ---------------------------------------------------------------------------
// Fleet single-flight across Engines sharing one disk store
// ---------------------------------------------------------------------------

TEST(FleetSingleFlight, TwoEnginesOneDirRunExactlyOneSearch) {
  TempDir dir("fleet");
  api::SessionOptions with_dir;
  with_dir.cache_dir = dir.path;
  const auto a = api::Engine::create({with_dir});
  const auto b = api::Engine::create({with_dir});
  const api::PlanRequest request = resnet_request(512, /*anneal=*/120);

  std::string plan_a, plan_b;
  std::thread ta([&] { plan_a = a->session().plan_or_throw(request).to_json(); });
  std::thread tb([&] { plan_b = b->session().plan_or_throw(request).to_json(); });
  ta.join();
  tb.join();

  EXPECT_EQ(plan_a, plan_b);
  // Exactly one of the two engines ran the search; the other either hit
  // the published artifact after waiting on the claim, or joined late and
  // hit directly.
  EXPECT_EQ(a->stats().searches + b->stats().searches, 1u)
      << "a=" << a->stats().describe() << " b=" << b->stats().describe();
}

TEST(FleetSingleFlight, KilledClaimHolderReleasesFollowers) {
  TempDir dir("crash");
  cache::DiskStore store(dir.path);
  const cache::RequestKey key = cache::request_key(resnet_request());
  const std::string claim = store.claim_path(key);

  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: raw syscalls only (async-signal-safe post-fork) — take the
    // claim exactly the way a leader process would, then hang "mid-search"
    // until SIGKILL.
    const int fd = ::open(claim.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd < 0 || ::flock(fd, LOCK_EX | LOCK_NB) != 0) ::_exit(1);
    char ok = '1';
    (void)!::write(ready[1], &ok, 1);
    for (;;) ::pause();
  }
  ::close(ready[1]);
  char ok = 0;
  ASSERT_EQ(::read(ready[0], &ok, 1), 1);  // child holds the flock
  ::close(ready[0]);

  // A follower cannot claim while the leader lives...
  EXPECT_FALSE(store.try_claim(key).has_value());

  // ...the leader dies mid-search (no artifact, no unlink)...
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);

  // ...and the kernel-dropped flock releases the follower: wait_for_entry
  // reports the claim dead, and the follower takes over as leader.
  EXPECT_EQ(store.wait_for_entry(key, CancelToken{}),
            cache::DiskStore::WaitOutcome::kReleased);
  auto takeover = store.try_claim(key);
  EXPECT_TRUE(takeover.has_value());
}

// ---------------------------------------------------------------------------
// Multi-process storm: fork+exec karma-planctl clients
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Storm, NClientProcessesColdStormRunsOneSearchByteIdentical) {
  DaemonFixture fx("storm");
  ASSERT_TRUE(fx.daemon->start());

  // The request artifact every client submits.
  const api::PlanRequest request = resnet_request(512, /*anneal=*/60);
  const std::string request_path = fx.dir.path + "/request.json";
  std::ofstream(request_path) << api::request_to_json(request);

  const std::string planctl = std::string(KARMA_BINARY_DIR) +
                              "/karma-planctl";
  ASSERT_TRUE(fs::exists(planctl)) << planctl;

  constexpr int kClients = 8;
  std::vector<pid_t> pids;
  std::vector<std::string> outs;
  for (int i = 0; i < kClients; ++i) {
    outs.push_back(fx.dir.path + "/plan-" + std::to_string(i) + ".json");
    const std::string tenant = "t" + std::to_string(i % 2);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::execl(planctl.c_str(), "karma-planctl", "plan", "--socket",
              fx.daemon->socket_path().c_str(), "--request",
              request_path.c_str(), "--out", outs.back().c_str(),
              "--tenant", tenant.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);  // exec failed
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  // Byte-identical artifacts in every client's output file.
  const std::string first = read_file(outs[0]);
  ASSERT_FALSE(first.empty());
  for (int i = 1; i < kClients; ++i)
    EXPECT_EQ(read_file(outs[i]), first) << outs[i];

  // Exactly one search fleet-wide: the daemon's engine collapsed the
  // storm (in-process single-flight behind the tenant queues).
  const pland::DaemonStats stats = fx.daemon->stats();
  EXPECT_EQ(stats.engine.searches, 1u);
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.shed, 0u);
  // Both tenants were served.
  EXPECT_EQ(stats.tenants.size(), 2u);
}

}  // namespace
}  // namespace karma
