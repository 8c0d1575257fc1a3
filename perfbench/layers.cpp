// The traced run's per-layer sweep. Each layer is timed from outside, by
// calling its public function on the workload's sampled requests under a
// span; every span of one request shares the request's id and hangs off
// its "sweep.request" root, so self time falls out of the span tree.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>

#include "perfbench/bench.h"
#include "src/api/plan_io.h"
#include "src/api/request_io.h"
#include "src/cache/disk_store.h"
#include "src/cache/request_key.h"
#include "src/calib/repair.h"
#include "src/core/distributed.h"
#include "src/core/planner.h"
#include "src/graph/memory_model.h"
#include "src/place/fleet_planner.h"
#include "src/pland/protocol.h"
#include "src/sim/engine.h"
#include "src/util/hash.h"

namespace perfbench {

namespace {

namespace core = karma::core;

/// Repeats of each cheap call (encode, decode, digest, key, lookup, disk,
/// frame): one sample each, so the medians are not single shots.
constexpr int kCheapReps = 5;

/// The planner options the engine derives for a single-GPU request: the
/// request's knobs plus the optimizer's host residency. This mirrors the
/// engine's own derivation, so the sweep checks that each search it times
/// reproduces the plan the engine served.
core::PlannerOptions derived_options(const api::PlanRequest& request) {
  core::PlannerOptions options = request.planner;
  const auto total = karma::graph::range_memory(
      request.model, 0, static_cast<int>(request.model.num_layers()));
  options.schedule.reserved_host_bytes +=
      request.optimizer.host_state_bytes(total.weights);
  return options;
}

/// Echo peer for pland.frame_rtt: answers each frame with `reply_size`
/// bytes, the size of the plan the real daemon would send back.
class FramePeer {
 public:
  FramePeer() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0)
      throw std::runtime_error("socketpair failed");
    thread_ = std::thread([this] {
      const std::string reply(1 << 20, 'x');
      std::string frame;
      while (karma::pland::read_frame(fds_[1], &frame) ==
             karma::pland::ReadStatus::kOk) {
        const std::size_t n = std::min(reply.size(), reply_size.load());
        if (!karma::pland::write_frame(fds_[1],
                                       std::string_view(reply).substr(0, n)))
          break;
      }
    });
  }
  ~FramePeer() {
    ::shutdown(fds_[0], SHUT_RDWR);
    thread_.join();
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  FramePeer(const FramePeer&) = delete;
  FramePeer& operator=(const FramePeer&) = delete;

  /// One round trip: `payload` out, a reply_size frame back.
  bool round_trip(std::string_view payload) {
    std::string reply;
    return karma::pland::write_frame(fds_[0], payload) &&
           karma::pland::read_frame(fds_[0], &reply) ==
               karma::pland::ReadStatus::kOk;
  }

  std::atomic<std::size_t> reply_size{0};

 private:
  int fds_[2] = {-1, -1};
  std::thread thread_;
};

double us(const Samples& seconds) { return seconds.median() * 1e6; }
double ms_of(const Samples& seconds) { return seconds.median() * 1e3; }

}  // namespace

std::vector<Metric> layer_sweep(const Config& config, const WorkloadRun& run,
                                SpanLog& spans,
                                std::vector<std::string>* report) {
  const std::string dir = config.work_dir + "/sweep";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  api::EngineOptions engine_options;
  engine_options.cache.cache_dir = dir + "/engine-cache";
  const auto engine = api::Engine::create(engine_options);
  karma::cache::DiskStore store(dir + "/store");
  const karma::calib::CalibrationTable table = bench_table();
  FramePeer peer;

  Samples request_bytes, plan_bytes, search_ms_minus_enum;
  Samples candidates, simulations, peak_gib;
  double stall_seconds = 0, busy_seconds = 0, makespan_seconds = 0;
  double digest_bytes = 0, digest_seconds = 0;
  double replay_seconds = 0, replay_ops = 0;
  double memo_hits = 0, memo_candidates = 0;
  double swapped = 0, recomputed = 0;
  double log_cost_ratio = 0;
  int cost_ratios = 0;
  std::vector<api::PlanRequest> built;
  // A timed search whose result differs from the served plan means the
  // sweep no longer derives options as the engine does, so its search
  // timings describe another search.
  int searches = 0;
  std::vector<std::string> diverged;
  const auto check_served = [&](const char* layer, const api::Plan& served,
                                double iteration_time,
                                const std::vector<core::BlockPolicy>& policies) {
    ++searches;
    if (iteration_time != served.iteration_time || policies != served.policies)
      diverged.push_back(std::string(layer) + " on " + served.model_name);
  };

  std::uint64_t id = 1ULL << 40;
  for (const RequestSpec& spec : run.sample) {
    ++id;
    Scope root(&spans, "sweep.request", id);
    const int parent = root.index();
    api::PlanRequest request;
    {
      Scope s(&spans, "graph.model_build", id, parent);
      request = build_request(spec);
    }
    built.push_back(request);

    std::string request_json;
    for (int r = 0; r < kCheapReps; ++r) {
      Scope s(&spans, "api.request_encode", id, parent);
      request_json = api::request_to_json(request);
    }
    request_bytes.add(static_cast<double>(request_json.size()));
    karma::util::Digest128 first;
    for (int r = 0; r < kCheapReps; ++r) {
      const double t0 = now_s();
      Scope s(&spans, "util.digest", id, parent);
      const karma::util::Digest128 d = karma::util::digest128(request_json);
      s.close();
      digest_seconds += now_s() - t0;
      digest_bytes += static_cast<double>(request_json.size());
      if (r == 0) first = d;
      if (!(d == first)) report->push_back("digest128 is not deterministic");
    }
    for (int r = 0; r < kCheapReps; ++r) {
      Scope s(&spans, "api.request_decode", id, parent);
      if (!api::request_from_json(request_json).has_value())
        report->push_back("request_from_json failed on a served request");
    }
    karma::cache::RequestKey key;
    for (int r = 0; r < kCheapReps; ++r) {
      Scope s(&spans, "cache.key", id, parent);
      key = engine->key_for(request);
    }

    std::optional<api::Plan> plan;
    {
      Scope s(&spans, "session.plan", id, parent);
      auto planned = engine->session().plan(request);
      if (planned.has_value()) plan = std::move(planned).value();
    }
    for (int r = 0; r < kCheapReps; ++r) {
      Scope s(&spans, "cache.lookup", id, parent);
      engine->try_cached(key, request.probe_feasible_batch);
    }
    if (!plan) continue;  // the infeasible kind has no artifact to time

    std::string plan_json;
    for (int r = 0; r < kCheapReps; ++r) {
      Scope s(&spans, "api.plan_encode", id, parent);
      plan_json = api::plan_to_json(*plan);
    }
    plan_bytes.add(static_cast<double>(plan_json.size()));
    for (int r = 0; r < kCheapReps; ++r) {
      Scope s(&spans, "api.plan_decode", id, parent);
      api::plan_from_json(plan_json);
    }
    for (int r = 0; r < kCheapReps; ++r) {
      Scope s(&spans, "cache.disk_store", id, parent);
      store.store(key, *plan);
    }
    for (int r = 0; r < kCheapReps; ++r) {
      Scope s(&spans, "cache.disk_load", id, parent);
      store.load(key);
    }
    peer.reply_size = plan_json.size();
    for (int r = 0; r < kCheapReps; ++r) {
      Scope s(&spans, "pland.frame_rtt", id, parent);
      peer.round_trip(request_json);
    }

    // Fig. 6 view of the served plan.
    {
      Scope s(&spans, "sim.simulate", id, parent);
      const karma::sim::ExecutionTrace trace = plan->simulate();
      stall_seconds += trace.compute_stall();
      busy_seconds += trace.compute_busy;
      makespan_seconds += trace.makespan;
      peak_gib.add(static_cast<double>(trace.peak_resident) /
                   static_cast<double>(1LL << 30));
    }
    for (const core::BlockPolicy p : plan->policies) {
      swapped += core::is_swap_policy(p) ? 1 : 0;
      recomputed += p == core::BlockPolicy::kRecompute ? 1 : 0;
    }

    const core::PlannerOptions options = derived_options(request);
    if (request.distributed) {
      core::DistributedOptions distributed = *request.distributed;
      distributed.planner = options;
      Scope s(&spans, "core.dp_search", id, parent);
      const core::DistributedResult result =
          core::plan_data_parallel(request.model, request.device, distributed);
      s.close();
      check_served("core.dp_search", *plan, result.iteration_time,
                   result.policies);
    } else if (request.fleet) {
      karma::place::FleetPlanOptions fleet_options;
      fleet_options.planner = request.planner;
      fleet_options.placement.base_reserved_host =
          request.planner.schedule.reserved_host_bytes;
      fleet_options.placement.optimizer_state_bytes =
          [optimizer = request.optimizer](karma::Bytes param_bytes) {
            return optimizer.host_state_bytes(param_bytes);
          };
      Scope s(&spans, "place.plan_fleet", id, parent);
      const karma::place::FleetPlanResult result = karma::place::plan_fleet(
          request.model, *request.fleet, fleet_options);
      s.close();
      check_served("place.plan_fleet", *plan, result.iteration_time,
                   result.nodes[static_cast<std::size_t>(result.straggler)]
                       .result.policies);
    } else {
      const karma::graph::Model& model = request.model;
      double t0 = now_s();
      Scope search_span(&spans, "core.search", id, parent);
      const core::PlanResult result =
          core::KarmaPlanner(model, request.device, options).plan();
      search_span.close();
      const double search = now_s() - t0;
      check_served("core.search", *plan, result.iteration_time,
                   result.policies);
      core::PlannerOptions enum_options = options;
      enum_options.anneal_iterations = 0;
      t0 = now_s();
      Scope enum_span(&spans, "core.enum", id, parent);
      core::KarmaPlanner(model, request.device, enum_options).plan();
      enum_span.close();
      search_ms_minus_enum.add(search - (now_s() - t0));
      candidates.add(static_cast<double>(result.search.candidates));
      simulations.add(static_cast<double>(result.search.simulations));
      memo_hits += static_cast<double>(result.search.memo_hits);
      memo_candidates += static_cast<double>(result.search.candidates);

      t0 = now_s();
      {
        Scope s(&spans, "sim.replay", id, parent);
        karma::sim::Engine(request.device).run(result.plan);
      }
      replay_seconds += now_s() - t0;
      replay_ops += static_cast<double>(result.plan.ops.size());

      karma::calib::RepairOptions repair_options;
      repair_options.planner = options;
      core::PlanResult repaired;
      {
        Scope s(&spans, "calib.repair", id, parent);
        repaired = karma::calib::repair(model, request.device, table,
                                        result.blocks, result.policies,
                                        repair_options);
      }
      Scope s(&spans, "calib.cold_reference", id, parent);
      const core::PlanResult cold = core::KarmaPlanner(
          model, karma::calib::apply(table, request.device), options).plan();
      if (cold.iteration_time > 0 && repaired.iteration_time > 0) {
        log_cost_ratio += std::log(repaired.iteration_time /
                                   cold.iteration_time);
        ++cost_ratios;
      }
    }
  }

  const int reproduced = searches - static_cast<int>(diverged.size());
  report->push_back("layer sweep: " + std::to_string(reproduced) + " of " +
                    std::to_string(searches) +
                    " timed searches reproduce the served plan");
  for (const std::string& d : diverged)
    report->push_back("layer sweep: MISMATCH, " + d +
                      " differs from the served plan; its timing describes "
                      "another search");

  // Daemon-side layers come from the serving daemon's own registry. The
  // in-process workload has none, so a probe daemon plans the sample
  // cold and then warm.
  std::string metrics = run.daemon_metrics;
  if (metrics.empty()) {
    DaemonChild probe(config.pland_path, dir + "/pland", "");
    auto session = api::RemoteSession::connect(probe.socket(), "probe");
    if (session.has_value())
      for (int pass = 0; pass < 3; ++pass)
        for (const api::PlanRequest& request : built) {
          Scope s(&spans, pass == 0 ? "probe.miss" : "probe.hit", id);
          session->plan_raw(request);
        }
    metrics = probe.metrics_json();
  }

  const auto d = [&](const char* name) { return spans.durations(name); };
  return {
      {"api.request_encode_us", us(d("api.request_encode")), "us"},
      {"api.request_decode_us", us(d("api.request_decode")), "us"},
      {"api.plan_encode_us", us(d("api.plan_encode")), "us"},
      {"api.plan_decode_us", us(d("api.plan_decode")), "us"},
      {"api.request_bytes", request_bytes.median(), "bytes"},
      {"api.plan_bytes", plan_bytes.median(), "bytes"},
      {"util.digest_mb_per_s",
       digest_seconds > 0 ? digest_bytes / digest_seconds / 1e6 : 0.0,
       "MB/s"},
      {"cache.key_us", us(d("cache.key")), "us"},
      {"cache.lookup_us", us(d("cache.lookup")), "us"},
      {"cache.disk_store_us", us(d("cache.disk_store")), "us"},
      {"cache.disk_load_us", us(d("cache.disk_load")), "us"},
      {"cache.hit_frac", run.cache_hit_frac, "fraction"},
      {"pland.frame_rtt_us", us(d("pland.frame_rtt")), "us"},
      {"pland.queue_wait_ms",
       registry_value(metrics, "histograms", "pland.queue_wait_seconds",
                      "mean") * 1e3,
       "ms"},
      {"pland.server_hit_us",
       registry_value(metrics, "histograms", "pland.hit_seconds", "mean") *
           1e6,
       "us"},
      {"pland.shed", registry_value(metrics, "counters", "pland.shed"),
       "count"},
      {"core.search_ms", ms_of(d("core.search")), "ms"},
      {"core.enum_ms", ms_of(d("core.enum")), "ms"},
      {"solver.anneal_ms", search_ms_minus_enum.median() * 1e3, "ms"},
      {"core.dp_search_ms", ms_of(d("core.dp_search")), "ms"},
      {"core.candidates", candidates.median(), "count"},
      {"core.simulations", simulations.median(), "count"},
      {"core.memo_hit_frac",
       memo_candidates > 0 ? memo_hits / memo_candidates : 0.0, "fraction"},
      {"sim.replay_us_per_op",
       replay_ops > 0 ? replay_seconds / replay_ops * 1e6 : 0.0, "us"},
      {"sim.stall_frac",
       makespan_seconds > 0 ? stall_seconds / makespan_seconds : 0.0,
       "fraction"},
      {"sim.compute_busy_frac",
       makespan_seconds > 0 ? busy_seconds / makespan_seconds : 0.0,
       "fraction"},
      {"sim.peak_device_gib", peak_gib.median(), "GiB"},
      {"sim.swapped_blocks", swapped, "count"},
      {"sim.recompute_blocks", recomputed, "count"},
      {"place.plan_fleet_ms", ms_of(d("place.plan_fleet")), "ms"},
      {"calib.repair_ms", ms_of(d("calib.repair")), "ms"},
      {"calib.repair_cost_ratio",
       cost_ratios > 0 ? std::exp(log_cost_ratio / cost_ratios) : 0.0,
       "ratio"},
      {"graph.model_build_ms", ms_of(d("graph.model_build")), "ms"},
  };
}

}  // namespace perfbench
