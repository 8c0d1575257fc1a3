// Shared benchmark machinery: statistics, spans, request generation, the
// correctness oracle and the karma-pland child process.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

#include "perfbench/bench.h"
#include "src/graph/model_zoo.h"
#include "src/place/fleet.h"
#include "src/util/json.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Samples
// ---------------------------------------------------------------------------

void Samples::append(const Samples& other) {
  values.insert(values.end(), other.values.begin(), other.values.end());
}

double Samples::quantile(double q) const {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

std::size_t Samples::beyond(double q) const {
  const double cut = quantile(q);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [cut](double v) { return v > cut; }));
}

void Latencies::append(const Latencies& other) {
  for (const auto& [kind, samples] : other.by_kind_)
    by_kind_[kind].append(samples);
}

double Latencies::p50() const {
  if (by_kind_.empty()) return 0.0;
  double log_sum = 0;
  for (const auto& [kind, samples] : by_kind_)
    log_sum += std::log(samples.median());
  return std::exp(log_sum / static_cast<double>(by_kind_.size()));
}

Samples Latencies::pooled() const {
  Samples out;
  for (const auto& [kind, samples] : by_kind_) out.append(samples);
  return out;
}

std::string Latencies::per_kind() const {
  std::string out;
  char item[64];
  for (const auto& [kind, samples] : by_kind_) {
    std::snprintf(item, sizeof item, "%s%s=%zu:%.3f", out.empty() ? "" : " ",
                  kind_name(kind), samples.size(), samples.median());
    out += item;
  }
  return out;
}

// ---------------------------------------------------------------------------
// SpanLog
// ---------------------------------------------------------------------------

int SpanLog::begin(const char* name, std::uint64_t id, int parent,
                   std::uint32_t thread) {
  const double start = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, id, parent, start, start, thread});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int index) {
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end = end;
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<SpanLog::NameStats> SpanLog::by_name() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::size_t>> children(all.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    if (all[i].parent >= 0)
      children[static_cast<std::size_t>(all[i].parent)].push_back(i);

  std::map<std::string, Samples> durations;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    // Union of the children's intervals clipped to this span.
    std::vector<std::pair<double, double>> parts;
    for (const std::size_t c : children[i])
      parts.emplace_back(std::max(all[c].start, s.start),
                         std::min(all[c].end, s.end));
    std::sort(parts.begin(), parts.end());
    double covered = 0, reach = s.start;
    for (const auto& [a, b] : parts) {
      const double from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    durations[s.name].add(s.end - s.start);
    self[s.name] += (s.end - s.start) - covered;
  }
  std::vector<NameStats> out;
  for (const auto& [name, d] : durations) {
    NameStats n;
    n.name = name;
    n.count = d.size();
    n.median = d.median();
    for (const double v : d.values) n.total += v;
    n.self = self[name];
    out.push_back(n);
  }
  return out;
}

Samples SpanLog::durations(const char* name) const {
  Samples out;
  for (const Span& s : spans())
    if (std::string_view(s.name) == name) out.add(s.end - s.start);
  return out;
}

std::string SpanLog::chrome_json() const {
  const std::vector<Span> all = spans();
  double epoch = all.empty() ? 0.0 : all.front().start;
  for (const Span& s : all) epoch = std::min(epoch, s.start);
  karma::util::json::Writer w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    w.begin_object();
    w.key("name"); w.value(s.name);
    w.key("cat"); w.value("perfbench");
    w.key("ph"); w.value("X");
    w.key("pid"); w.value(1);
    w.key("tid"); w.value(static_cast<std::int64_t>(s.thread));
    w.key("ts"); w.value((s.start - epoch) * 1e6);
    w.key("dur"); w.value((s.end - s.start) * 1e6);
    w.key("args");
    w.begin_object();
    w.key("span"); w.value(static_cast<std::int64_t>(i));
    w.key("id"); w.value(static_cast<std::int64_t>(s.id));
    w.key("parent"); w.value(s.parent);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

namespace {

/// The batch each kind's draws jitter around.
std::int64_t base_batch(Kind kind) {
  switch (kind) {
    case Kind::kVgg16: return 128;
    case Kind::kResnet50: return 512;
    case Kind::kResnet200: return 16;
    case Kind::kResnet1001: return 256;
    case Kind::kUnet: return 24;
    case Kind::kDistributed: return 128;  // per GPU
    case Kind::kFleet: return 256;
    case Kind::kInfeasible: return 2048;
  }
  return 1;
}

}  // namespace

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kVgg16: return "vgg16";
    case Kind::kResnet50: return "resnet50";
    case Kind::kResnet200: return "resnet200";
    case Kind::kResnet1001: return "resnet1001";
    case Kind::kUnet: return "unet";
    case Kind::kDistributed: return "distributed";
    case Kind::kFleet: return "fleet";
    case Kind::kInfeasible: return "infeasible";
  }
  return "?";
}

RequestSpec draw_spec(Kind kind, std::mt19937_64& rng, int anneal,
                      int anneal_workers) {
  const std::int64_t base = base_batch(kind);
  const std::int64_t step = std::max<std::int64_t>(1, base / 32);
  RequestSpec spec;
  spec.kind = kind;
  spec.batch = base + step * (static_cast<std::int64_t>(rng() % 3) - 1);
  spec.planner_seed = rng();
  spec.anneal = anneal;
  spec.anneal_workers = anneal_workers;
  return spec;
}

api::PlanRequest build_request(const RequestSpec& spec) {
  namespace graph = karma::graph;
  api::PlanRequest request;
  switch (spec.kind) {
    case Kind::kVgg16: request.model = graph::make_vgg16(spec.batch); break;
    case Kind::kResnet200:
      request.model = graph::make_resnet200(spec.batch);
      break;
    case Kind::kResnet1001:
      request.model = graph::make_resnet1001(spec.batch);
      break;
    case Kind::kUnet: request.model = graph::make_unet(spec.batch); break;
    case Kind::kResnet50:
    case Kind::kDistributed:
    case Kind::kFleet:
    case Kind::kInfeasible:
      request.model = graph::make_resnet50(spec.batch);
      break;
  }
  request.device = karma::sim::v100_abci();
  request.planner.enable_recompute = true;
  request.planner.anneal_iterations = spec.anneal;
  request.planner.anneal_workers = spec.anneal_workers;
  request.planner.seed = spec.planner_seed;
  request.optimizer.kind = api::OptimizerSpec::Kind::kSgdMomentum;
  if (spec.kind == Kind::kDistributed) {
    karma::core::DistributedOptions distributed;
    distributed.num_gpus = 4;
    request.distributed = distributed;
  }
  if (spec.kind == Kind::kFleet)
    request.fleet = karma::place::mixed_generation_fleet(
        /*strong=*/2, /*weak=*/2, /*weak_host_capacity=*/48LL << 30);
  return request;
}

double ranks(const api::PlanRequest& request) {
  if (request.distributed) return request.distributed->num_gpus;
  if (request.fleet) return request.fleet->num_nodes();
  return 1.0;
}

karma::calib::CalibrationTable bench_table() {
  karma::calib::CalibrationTable table;
  auto& cell = table.factors[karma::calib::kAnyDeviceClass];
  cell["h2d"] = 1.6;
  cell["d2h"] = 1.6;
  cell["compute"] = 1.1;
  return table;
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

Outcome outcome_of(const api::Expected<api::Plan, api::PlanError>& result,
                   const api::PlanRequest& request) {
  Outcome out;
  if (result.has_value()) {
    const api::Plan& plan = result.value();
    out.ok = true;
    out.artifact = plan.to_json();
    if (plan.iteration_time > 0)
      out.samples_per_s = static_cast<double>(plan.batch) * ranks(request) /
                          plan.iteration_time;
  } else {
    out.code = result.error().code;
    out.nearest_batch = result.error().nearest_feasible_batch;
  }
  return out;
}

bool matches(const Outcome& reference, const Outcome& got) {
  if (reference.ok != got.ok) return false;
  if (reference.ok) return reference.artifact == got.artifact;
  return reference.code == got.code &&
         reference.nearest_batch == got.nearest_batch;
}

std::vector<Outcome> references(const std::vector<api::PlanRequest>& requests,
                                unsigned threads) {
  api::EngineOptions options;
  options.cache.cache_mode = api::SessionOptions::CacheMode::kBypass;
  const auto engine = api::Engine::create(options);
  std::vector<Outcome> out(requests.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t)
    pool.emplace_back([&] {
      const api::Session session = engine->session();
      for (std::size_t i = next++; i < requests.size(); i = next++)
        out[i] = outcome_of(session.plan(requests[i]), requests[i]);
    });
  for (std::thread& t : pool) t.join();
  return out;
}

RepairReferences repair_references(
    const std::vector<api::PlanRequest>& requests, unsigned threads) {
  // A repair warm-starts only from the same request's superseded plan, so
  // each thread takes every threads-th request on an engine of its own.
  RepairReferences out;
  out.cold.resize(requests.size());
  out.repaired.resize(requests.size());
  const std::size_t stride = std::max(1u, threads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < stride; ++t)
    pool.emplace_back([&, t] {
      const auto engine = api::Engine::create({});
      const api::Session session = engine->session();
      for (std::size_t i = t; i < requests.size(); i += stride)
        out.cold[i] = outcome_of(session.plan(requests[i]), requests[i]);
      engine->set_calibration(
          std::make_shared<const karma::calib::CalibrationTable>(
              bench_table()));
      for (std::size_t i = t; i < requests.size(); i += stride)
        out.repaired[i] = outcome_of(session.plan(requests[i]), requests[i]);
    });
  for (std::thread& t : pool) t.join();
  return out;
}

double geomean_samples_per_s(const std::vector<Outcome>& outcomes) {
  double log_sum = 0;
  int n = 0;
  for (const Outcome& o : outcomes)
    if (o.ok && o.samples_per_s > 0) {
      log_sum += std::log(o.samples_per_s);
      ++n;
    }
  return n > 0 ? std::exp(log_sum / n) : 0.0;
}

// ---------------------------------------------------------------------------
// The karma-pland child process
// ---------------------------------------------------------------------------

DaemonChild::DaemonChild(const std::string& exe, const std::string& dir,
                         const std::string& trace_dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // Relative to the shared working directory: a unix socket path must fit
  // sun_path (108 bytes) however deep the checkout sits.
  socket_ = dir + "/pland.sock";
  std::vector<std::string> args = {exe, "--socket", socket_, "--cache-dir",
                                   dir + "/cache"};
  if (!trace_dir.empty()) {
    std::filesystem::remove_all(trace_dir);
    args.push_back("--trace-dir");
    args.push_back(trace_dir);
  }
  const std::string log = dir + "/pland.log";
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // The daemon must not outlive the benchmark, however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  const double deadline = now_s() + 20.0;
  while (now_s() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("karma-pland exited at start; see " + log);
    }
    if (auto session = api::RemoteSession::connect(socket_))
      if (session->ping()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop();
  throw std::runtime_error("karma-pland did not come up; see " + log);
}

DaemonChild::~DaemonChild() { stop(); }

void DaemonChild::stop() {
  if (pid_ < 0) return;
  if (auto session = api::RemoteSession::connect(socket_))
    session->shutdown_server();
  const double deadline = now_s() + 10.0;
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (now_s() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

namespace {

double vm_hwm_mb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
  return 0.0;
}

}  // namespace

double DaemonChild::peak_rss_mb() const {
  return pid_ > 0 ? vm_hwm_mb("/proc/" + std::to_string(pid_) + "/status")
                  : 0.0;
}

std::string DaemonChild::metrics_json() const {
  auto session = api::RemoteSession::connect(socket_);
  if (!session) return {};
  auto metrics = session->metrics_json();
  return metrics ? metrics.value() : std::string();
}

double self_peak_rss_mb() { return vm_hwm_mb("/proc/self/status"); }

double registry_value(const std::string& metrics_json,
                      const std::string& section, const std::string& name,
                      const std::string& field) {
  if (metrics_json.empty()) return 0.0;
  try {
    const auto root = karma::util::json::parse(metrics_json);
    if (!root.has(section) || !root.at(section).has(name)) return 0.0;
    const auto& v = root.at(section).at(name);
    return field.empty() ? v.as_double() : v.at(field).as_double();
  } catch (const std::exception&) {
    return 0.0;
  }
}

double metric_value(const std::vector<Metric>& metrics,
                    const std::string& name) {
  for (const Metric& m : metrics)
    if (m.name == name) return m.value;
  return 0.0;
}

}  // namespace perfbench
