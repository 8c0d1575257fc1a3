// The two workloads. Each one draws its requests from the seed and builds
// their references (the oracle), then runs segments until its time is up.
// A segment sets up fresh serving state (setup_s), times its plans, then
// installs the benchmark's calibration table and re-plans (repair_p50_ms);
// so every class of request is sampled all through the run, and a
// stretch in which the host slows this guest slows every class alike.
// Every served artifact is checked against its reference.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "perfbench/bench.h"
#include "src/api/plan_io.h"
#include "src/cache/plan_cache.h"
#include "src/obs/span.h"

namespace perfbench {

namespace {

/// warm-hits: population variants per kind, their anneal budget and
/// workers (the budget only shapes set-up: every timed request is a hit;
/// one worker, so a search does not wait on a core the host took), and
/// the segments a run is cut into. Each segment starts a fresh daemon,
/// warms it with the population (the misses), times hits for its share of
/// the run, then repairs; the 8 x 28 = 224 misses put at least 10 samples
/// beyond miss_p90_ms.
constexpr int kWarmVariants = 4;
constexpr int kWarmAnneal = 500;
constexpr int kWarmAnnealWorkers = 1;
constexpr int kWarmSegments = 8;

/// cold-plan: the deep anneal budget, searched by one anneal worker (a
/// portfolio search waits for its slowest worker, so on a shared host its
/// latency swings with every stolen core), the cycles of requests a
/// segment plans, the slices of requests segments take in turn (a search's
/// cost follows its planner seed, so each kind's median needs many
/// seeds), and the fewest segments a run makes, however short.
constexpr int kColdAnneal = 2000;
constexpr int kColdAnnealWorkers = 1;
constexpr int kColdCycles = 6;
constexpr int kColdSlices = 4;
constexpr int kColdMinSegments = 4;
/// One cold-plan cycle: every feasible kind and two infeasible requests.
constexpr Kind kColdCycle[] = {
    Kind::kVgg16, Kind::kResnet50,    Kind::kResnet200,  Kind::kResnet1001,
    Kind::kUnet,  Kind::kDistributed, Kind::kInfeasible, Kind::kFleet,
    Kind::kInfeasible};
/// In-process re-plans (hits) timed after each cold plan: 54 x 9 = 486 a
/// segment, so a run's hits put ~200 samples beyond hit_p95_ms.
constexpr int kHitReplans = 9;
/// The budget and generator seed of the warm-up plans each cold-plan
/// set-up makes: one per feasible kind, so the engine and its disk cache
/// have served before the first timed request. They are the same whatever
/// the seed, so a set-up's cost does not follow the planner seeds a seed
/// happens to draw.
constexpr int kColdWarmupAnneal = 200;
constexpr std::uint64_t kColdWarmupSeed = 0x5eed;

double ms(double seconds) { return seconds * 1e3; }

enum class Verdict { kOk, kWrong, kFailed };

/// Judges a served wire artifact against its reference. Transport
/// failures, sheds and interrupted searches are failures; anything else
/// that differs from the reference is a wrong artifact.
Verdict judge(const Outcome& reference,
              const api::Expected<std::string, api::PlanError>& served) {
  Outcome got;
  if (served.has_value()) {
    got.ok = true;
    got.artifact = served.value();
  } else {
    switch (served.error().code) {
      case api::PlanErrorCode::kOverloaded:
      case api::PlanErrorCode::kUnavailable:
      case api::PlanErrorCode::kCancelled:
      case api::PlanErrorCode::kDeadline:
      case api::PlanErrorCode::kInternalError:
        return Verdict::kFailed;
      default:
        break;
    }
    got.code = served.error().code;
    got.nearest_batch = served.error().nearest_feasible_batch;
  }
  return matches(reference, got) ? Verdict::kOk : Verdict::kWrong;
}

Verdict judge(const Outcome& reference, const Outcome& got) {
  if (!got.ok && (got.code == api::PlanErrorCode::kCancelled ||
                  got.code == api::PlanErrorCode::kDeadline ||
                  got.code == api::PlanErrorCode::kInternalError))
    return Verdict::kFailed;
  return matches(reference, got) ? Verdict::kOk : Verdict::kWrong;
}

/// Attempted / failed / wrong counters shared by a workload's threads.
struct Tally {
  std::atomic<std::int64_t> attempted{0};
  std::atomic<std::int64_t> failed{0};
  std::atomic<std::int64_t> wrong{0};

  bool count(Verdict v) {
    ++attempted;
    if (v != Verdict::kOk) ++failed;
    if (v == Verdict::kWrong) ++wrong;
    return v == Verdict::kOk;
  }
};

/// Timed remote plan: request handed to the client call -> decoded Plan
/// in hand. Returns the wire bytes for the oracle; `*seconds` gets the
/// latency.
api::Expected<std::string, api::PlanError> timed_remote_plan(
    api::RemoteSession& session, const api::PlanRequest& request,
    SpanLog* spans, std::uint64_t id, std::uint32_t thread,
    double* seconds) {
  Scope root(spans, "client.request", id, -1, thread);
  const double t0 = now_s();
  Scope call(spans, "client.plan_raw", id, root.index(), thread);
  auto raw = session.plan_raw(request);
  call.close();
  if (raw.has_value()) {
    Scope decode(spans, "client.plan_decode", id, root.index(), thread);
    auto plan = api::plan_from_json(raw.value());
    if (!plan.has_value()) raw = std::move(plan).error();
  }
  *seconds = now_s() - t0;
  return raw;
}

api::RemoteSession connect_or_throw(const std::string& socket,
                                    const std::string& tenant) {
  auto session = api::RemoteSession::connect(socket, tenant);
  if (!session.has_value())
    throw std::runtime_error(session.error().message);
  return std::move(session).value();
}

double cache_hit_frac(const karma::cache::CacheStats& s) {
  return s.lookups() > 0 ? static_cast<double>(s.hits()) /
                               static_cast<double>(s.lookups())
                         : 0.0;
}

double daemon_cache_hit_frac(const std::string& metrics) {
  const double hits = registry_value(metrics, "gauges", "cache.memory_hits") +
                      registry_value(metrics, "gauges", "cache.disk_hits");
  const double misses = registry_value(metrics, "gauges", "cache.misses");
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

std::string latency_line(const char* what, const Latencies& s,
                         double tail) {
  char line[160];
  std::snprintf(line, sizeof line,
                "%-7s n=%zu p50=%.3f ms p%.0f=%.3f ms (%zu samples beyond); "
                "kind n:median_ms ",
                what, s.size(), s.p50(), tail * 100, s.tail(tail),
                s.beyond(tail));
  return line + s.per_kind();
}

/// Fills the end-to-end metrics every workload reports, in METRICS.md
/// order, plus the sample-count lines of the report.
void finish(WorkloadRun& run, const Tally& tally, const Samples& setup,
            const Latencies& hit, const Latencies& miss,
            const Latencies& repair, double plans_per_s,
            double sim_samples_per_s, double peak_rss_mb) {
  run.attempted = tally.attempted.load();
  run.failed = tally.failed.load();
  run.wrong = tally.wrong.load();
  run.metrics = {
      {"setup_s", setup.median(), "s"},
      {"hit_p50_ms", hit.p50(), "ms"},
      {"hit_p95_ms", hit.tail(0.95), "ms"},
      {"miss_p50_ms", miss.p50(), "ms"},
      {"miss_p90_ms", miss.tail(0.90), "ms"},
      {"repair_p50_ms", repair.p50(), "ms"},
      {"plans_per_s", plans_per_s, "1/s"},
      {"sim_samples_per_s", sim_samples_per_s, "samples/s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
  run.report.push_back(latency_line("hit", hit, 0.95));
  run.report.push_back(latency_line("miss", miss, 0.90));
  run.report.push_back(latency_line("repair", repair, 0.90));
  // fail_frac is 0 on a correct commit, so no relative bound can use its
  // median: it is reported here, and failures reach the result line as
  // `failed`.
  char line[200];
  std::snprintf(line, sizeof line,
                "setup   n=%zu median=%.4f s; attempted=%lld failed=%lld "
                "wrong=%lld fail_frac=%.6f",
                setup.size(), setup.median(),
                static_cast<long long>(run.attempted),
                static_cast<long long>(run.failed),
                static_cast<long long>(run.wrong),
                static_cast<double>(run.failed) /
                    static_cast<double>(std::max<std::int64_t>(
                        1, run.attempted)));
  run.report.push_back(line);
}

std::vector<api::PlanRequest> build_all(const std::vector<RequestSpec>& specs) {
  std::vector<api::PlanRequest> out;
  out.reserve(specs.size());
  for (const RequestSpec& spec : specs) out.push_back(build_request(spec));
  return out;
}

/// The first spec of each kind, for the layer sweep.
std::vector<RequestSpec> one_per_kind(const std::vector<RequestSpec>& specs) {
  std::vector<RequestSpec> out;
  for (const RequestSpec& spec : specs)
    if (std::none_of(out.begin(), out.end(), [&](const RequestSpec& s) {
          return s.kind == spec.kind;
        }))
      out.push_back(spec);
  return out;
}

/// The daemon's own --trace-dir in traced runs, "" otherwise.
std::string trace_dir(const Config& config, const SpanLog* spans) {
  return spans ? config.out_dir + "/" + config.workload + ".pland-trace"
               : std::string();
}

}  // namespace

// ---------------------------------------------------------------------------
// warm-hits
// ---------------------------------------------------------------------------

WorkloadRun run_warm_hits(const Config& config, SpanLog* spans) {
  WorkloadRun run;
  std::mt19937_64 rng(config.seed);
  std::vector<RequestSpec> specs;
  for (int v = 0; v < kWarmVariants; ++v)
    for (const Kind kind : kFeasibleKinds)
      specs.push_back(draw_spec(kind, rng, kWarmAnneal, kWarmAnnealWorkers));

  // Oracle: cold references with the cache bypassed, and the repair-path
  // references of the same requests.
  const std::vector<api::PlanRequest> oracle_requests = build_all(specs);
  const std::vector<Outcome> refs = references(oracle_requests, config.nproc);
  const RepairReferences repair_refs =
      repair_references(oracle_requests, config.nproc);

  Tally tally;
  for (std::size_t i = 0; i < refs.size(); ++i)
    if (!matches(refs[i], repair_refs.cold[i])) {
      ++tally.failed;
      ++tally.wrong;
    }

  // Half the cores drive the closed loop; the daemon's threads get the
  // rest, so latency is not time spent waiting for a core.
  const unsigned clients = std::max(1u, config.nproc / 2);
  Samples setup;
  Latencies miss, hit, repair;
  std::int64_t completed = 0;
  double hit_seconds = 0, rss = 0;
  for (int segment = 0; segment < kWarmSegments; ++segment) {
    // Set-up: build the population, start the daemon, warm its cache. The
    // warm-up requests are the workload's misses.
    const double t0 = now_s();
    const std::vector<api::PlanRequest> requests = build_all(specs);
    DaemonChild daemon(config.pland_path, config.work_dir + "/pland",
                       trace_dir(config, spans));
    {
      api::RemoteSession warmup = connect_or_throw(daemon.socket(), "warmup");
      for (std::size_t i = 0; i < requests.size(); ++i) {
        double seconds = 0;
        const auto raw = timed_remote_plan(warmup, requests[i], spans,
                                           (1ULL << 32) + i, 0, &seconds);
        if (tally.count(judge(refs[i], raw)))
          miss.add(specs[i].kind, ms(seconds));
      }
    }
    setup.add(now_s() - t0);

    // Hits: a closed loop of RemoteSessions replaying seed-chosen
    // population requests for the segment's share of the run.
    std::vector<Latencies> hits(clients);
    std::atomic<std::int64_t> done{0};
    const double start = now_s();
    const double deadline = start + config.seconds / kWarmSegments;
    {
      std::vector<std::thread> threads;
      for (unsigned c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
          auto client = api::RemoteSession::connect(
              daemon.socket(), "client-" + std::to_string(c));
          if (!client.has_value()) {
            tally.count(Verdict::kFailed);
            return;
          }
          std::mt19937_64 pick((config.seed * 7919 + c) * kWarmSegments +
                               static_cast<unsigned>(segment));
          std::uint64_t id = (static_cast<std::uint64_t>(c) + 8) << 32;
          while (now_s() < deadline) {
            const std::size_t i = pick() % requests.size();
            double seconds = 0;
            const auto raw = timed_remote_plan(*client, requests[i], spans,
                                               ++id, c, &seconds);
            if (tally.count(judge(refs[i], raw))) {
              hits[c].add(specs[i].kind, ms(seconds));
              ++done;
            }
          }
        });
      for (std::thread& t : threads) t.join();
    }
    hit_seconds += now_s() - start;
    completed += done.load();
    for (const Latencies& h : hits) hit.append(h);
    run.daemon_metrics = daemon.metrics_json();

    // Repairs: install the bench table through the daemon's calibrate verb
    // and re-plan the population, one request at a time.
    api::RemoteSession repairer = connect_or_throw(daemon.socket(), "repair");
    if (repairer.calibrate(bench_table().to_json()).has_value()) {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        double seconds = 0;
        const auto raw = timed_remote_plan(repairer, requests[i], spans,
                                           (3ULL << 32) + i, 0, &seconds);
        if (tally.count(judge(repair_refs.repaired[i], raw)))
          repair.add(specs[i].kind, ms(seconds));
      }
    } else {
      tally.count(Verdict::kFailed);
    }
    rss = std::max(rss, daemon.peak_rss_mb());
    daemon.stop();
  }
  run.cache_hit_frac = daemon_cache_hit_frac(run.daemon_metrics);

  run.sample = one_per_kind(specs);
  finish(run, tally, setup, hit, miss, repair,
         static_cast<double>(completed) / hit_seconds,
         geomean_samples_per_s(refs), rss);
  return run;
}

// ---------------------------------------------------------------------------
// cold-plan
// ---------------------------------------------------------------------------

WorkloadRun run_cold_plan(const Config& config, SpanLog* spans) {
  WorkloadRun run;
  std::mt19937_64 rng(config.seed);
  // Slice s is specs [s * per_slice, (s + 1) * per_slice).
  const std::size_t per_slice = kColdCycles * std::size(kColdCycle);
  std::vector<RequestSpec> specs;
  for (int c = 0; c < kColdSlices * kColdCycles; ++c)
    for (const Kind kind : kColdCycle)
      specs.push_back(draw_spec(kind, rng, kColdAnneal, kColdAnnealWorkers));
  std::mt19937_64 warmup_rng(kColdWarmupSeed);
  std::vector<RequestSpec> warmup_specs;
  for (const Kind kind : kFeasibleKinds)
    warmup_specs.push_back(
        draw_spec(kind, warmup_rng, kColdWarmupAnneal, kColdAnnealWorkers));

  // Oracle: cold references with the cache bypassed, the repair-path
  // references, and the warm-ups' references.
  std::vector<Outcome> refs;
  RepairReferences repair_refs;
  {
    const std::vector<api::PlanRequest> oracle_requests = build_all(specs);
    refs = references(oracle_requests, config.nproc);
    repair_refs = repair_references(oracle_requests, config.nproc);
  }
  const std::vector<Outcome> warmup_refs =
      references(build_all(warmup_specs), config.nproc);
  Tally tally;
  for (std::size_t i = 0; i < refs.size(); ++i)
    if (!matches(refs[i], repair_refs.cold[i])) {
      ++tally.failed;
      ++tally.wrong;
    }
  // Peak RSS counts from here: the oracle's engines are gone, and what
  // they freed goes back to the system.
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";

  Samples setup;
  Latencies miss, hit, repair;
  std::size_t plans = 0;
  double timed = 0;
  const std::string cache_dir = config.work_dir + "/cold-cache";
  // The engine span ring, drained after each segment so it does not fill.
  std::vector<karma::obs::TraceEvent> events;
  if (spans) karma::obs::set_tracing_enabled(true);
  for (int segment = 0; segment < kColdMinSegments || timed < config.seconds;
       ++segment) {
    // Set-up: build the segment's slice of requests, create the engine over
    // a fresh on-disk cache and warm it.
    std::filesystem::remove_all(cache_dir);
    const double t0 = now_s();
    const std::size_t base = (segment % kColdSlices) * per_slice;
    const std::vector<api::PlanRequest> requests =
        build_all(std::vector<RequestSpec>(specs.begin() + base,
                                           specs.begin() + base + per_slice));
    const std::vector<api::PlanRequest> warmup = build_all(warmup_specs);
    api::EngineOptions options;
    options.cache.cache_dir = cache_dir;
    const std::shared_ptr<api::Engine> engine = api::Engine::create(options);
    const api::Session session = engine->session();
    std::vector<Outcome> warmed;
    for (const api::PlanRequest& request : warmup)
      warmed.push_back(outcome_of(session.plan(request), request));
    setup.add(now_s() - t0);
    for (std::size_t w = 0; w < warmed.size(); ++w)
      tally.count(judge(warmup_refs[w], warmed[w]));

    // Each request planned cold (a fresh cache), then at once re-planned
    // in-process kHitReplans times, which are hits; then the calibration
    // change and every request again, which repairs. Judging the outcomes
    // is the benchmark's work, so its time is not the segment's.
    double judging = 0;
    const auto judged = [&](const Outcome& reference, const auto& result,
                            const api::PlanRequest& request) {
      const double j0 = now_s();
      tally.count(judge(reference, outcome_of(result, request)));
      judging += now_s() - j0;
    };
    const double start = now_s();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const Kind kind = specs[base + i].kind;
      const std::uint64_t id = segment * requests.size() + i;
      Scope root(spans, "client.request", id);
      const double t1 = now_s();
      Scope cold_span(spans, "session.plan.cold", id, root.index());
      const auto cold = session.plan(requests[i]);
      cold_span.close();
      miss.add(kind, ms(now_s() - t1));
      judged(refs[base + i], cold, requests[i]);
      for (int r = 0; r < kHitReplans; ++r) {
        const double t2 = now_s();
        Scope hit_span(spans, "session.plan.hit", id, root.index());
        const auto again = session.plan(requests[i]);
        hit_span.close();
        hit.add(kind, ms(now_s() - t2));
        judged(refs[base + i], again, requests[i]);
      }
    }
    // Each single-GPU re-plan warm-starts from the superseded cached plan.
    engine->set_calibration(
        std::make_shared<const karma::calib::CalibrationTable>(bench_table()));
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::uint64_t id = segment * requests.size() + i;
      Scope span(spans, "session.plan.repair", id);
      const double t1 = now_s();
      const auto again = session.plan(requests[i]);
      repair.add(specs[base + i].kind, ms(now_s() - t1));
      span.close();
      judged(repair_refs.repaired[base + i], again, requests[i]);
    }
    timed += now_s() - start - judging;
    plans += (kHitReplans + 2) * requests.size();
    run.cache_hit_frac = cache_hit_frac(engine->cache_stats());
    if (spans) karma::obs::drain_trace(&events);
  }
  const double rss = self_peak_rss_mb();

  if (spans) {
    karma::obs::set_tracing_enabled(false);
    karma::obs::drain_trace(&events);
    const std::string path = config.out_dir + "/cold-plan.engine-trace.json";
    std::ofstream(path) << karma::obs::chrome_trace_json(events);
    run.report.push_back(
        "engine span ring: " + std::to_string(events.size()) + " events (" +
        std::to_string(karma::obs::dropped_trace_events()) +
        " dropped on a full ring) -> " + path);
  }

  run.sample = one_per_kind(specs);
  finish(run, tally, setup, hit, miss, repair,
         static_cast<double>(plans) / timed, geomean_samples_per_s(refs),
         rss);
  return run;
}

}  // namespace perfbench
