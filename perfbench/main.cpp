// perfbench: runs one workload with one seed and prints one result line.
//
//   perfbench --workload warm-hits|cold-plan --seed N
//             --seconds S --trace 0|1 --pland PATH --work-dir DIR
//             --out-dir DIR [--git-sha SHA]
//
// Untraced (--trace 0), the result carries the end-to-end metrics. Traced
// (--trace 1), the workload runs twice for S/2 seconds each — once
// untraced, once with spans, the daemon's --trace-dir and the engine span
// ring on — and then the layer sweep runs; the result carries the
// per-layer metrics. The last stdout line is the result object; the lines
// before it are the human-readable report. A full copy (provenance, every
// metric, the report) and the span trace go to --out-dir.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench/bench.h"
#include "src/util/json.h"

namespace {

using namespace perfbench;

struct WorkloadEntry {
  const char* name;
  WorkloadRun (*run)(const Config&, SpanLog*);
};
constexpr WorkloadEntry kWorkloads[] = {
    {"warm-hits", run_warm_hits},
    {"cold-plan", run_cold_plan},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload warm-hits|cold-plan "
               "--seed N --seconds S --trace 0|1 --pland PATH "
               "--work-dir DIR --out-dir DIR [--git-sha SHA]\n");
  return 64;
}

void write_metrics(karma::util::json::Writer& w,
                   const std::vector<Metric>& metrics) {
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name.c_str());
    w.begin_object();
    w.key("value"); w.value(m.value);
    w.key("unit"); w.value(m.unit);
    w.end_object();
  }
  w.end_object();
}

void write_provenance(karma::util::json::Writer& w, const Config& c) {
  w.begin_object();
  w.key("workload"); w.value(c.workload);
  w.key("seed"); w.value(static_cast<std::int64_t>(c.seed));
  w.key("seconds"); w.value(c.seconds);
  w.key("trace"); w.value(c.trace);
  w.key("nproc"); w.value(static_cast<std::int64_t>(c.nproc));
  w.key("compiler"); w.value(PERFBENCH_COMPILER);
  w.key("build_type"); w.value(PERFBENCH_BUILD_TYPE);
  w.key("git_sha"); w.value(c.git_sha);
  w.end_object();
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-26s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

/// The hit path, stage by stage at the sweep's medians, beside the
/// measured hit_p50_ms; the rest is unattributed. Remotely: client
/// request encode, daemon digest and lookup, plan encode for the reply,
/// both frames, client decode. In-process: the key and the lookup.
void print_hit_path(const WorkloadRun& run, const std::vector<Metric>& layers) {
  const double hit_us = metric_value(run.metrics, "hit_p50_ms") * 1e3;
  const double digest_rate = metric_value(layers, "util.digest_mb_per_s");
  std::vector<std::pair<const char*, double>> stages;
  if (run.daemon_metrics.empty()) {
    stages = {{"cache.key_us", metric_value(layers, "cache.key_us")},
              {"cache.lookup_us", metric_value(layers, "cache.lookup_us")}};
  } else {
    stages = {
        {"api.request_encode_us", metric_value(layers, "api.request_encode_us")},
        {"util.digest (request bytes)",
         digest_rate > 0 ? metric_value(layers, "api.request_bytes") / digest_rate
                         : 0.0},
        {"cache.lookup_us", metric_value(layers, "cache.lookup_us")},
        {"api.plan_encode_us", metric_value(layers, "api.plan_encode_us")},
        {"pland.frame_rtt_us", metric_value(layers, "pland.frame_rtt_us")},
        {"api.plan_decode_us", metric_value(layers, "api.plan_decode_us")},
    };
  }
  std::printf("hit path at the sampled medians (hit_p50_ms = %.1f us):\n",
              hit_us);
  double attributed = 0;
  for (const auto& [name, us] : stages) {
    std::printf("  %-28s %10.1f us\n", name, us);
    attributed += us;
  }
  std::printf("  %-28s %10.1f us\n", "unattributed remainder",
              hit_us - attributed);
  if (!run.daemon_metrics.empty())
    std::printf("  (daemon-side pland.server_hit_us = %.1f us)\n",
                metric_value(layers, "pland.server_hit_us"));
}

/// CPU time the hypervisor gave to other guests ("steal") and all CPU
/// time so far, from /proc/stat, in ticks.
std::pair<double, double> cpu_steal_and_total() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field = 0, total = 0, steal = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

void print_self_times(const SpanLog& spans) {
  std::printf("benchmark spans (self = duration not covered by children):\n");
  std::printf("  %-24s %8s %12s %12s %12s\n", "span", "count", "median_us",
              "total_ms", "self_ms");
  for (const SpanLog::NameStats& n : spans.by_name())
    std::printf("  %-24s %8zu %12.1f %12.2f %12.2f\n", n.name.c_str(),
                n.count, n.median * 1e6, n.total * 1e3, n.self * 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") config.workload = value;
    else if (flag == "--seed") config.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") config.seconds = std::atof(value);
    else if (flag == "--trace") config.trace = std::strcmp(value, "0") != 0;
    else if (flag == "--pland") config.pland_path = value;
    else if (flag == "--work-dir") config.work_dir = value;
    else if (flag == "--out-dir") config.out_dir = value;
    else if (flag == "--git-sha") config.git_sha = value;
    else return usage();
  }
  if (argc % 2 == 0) return usage();
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& w : kWorkloads)
    if (config.workload == w.name) entry = &w;
  if (!entry || config.seconds <= 0 || config.pland_path.empty() ||
      config.work_dir.empty() || config.out_dir.empty())
    return usage();
  if (config.git_sha.empty()) config.git_sha = "unknown";
  config.nproc = std::max(1u, std::thread::hardware_concurrency());
  // Engines here and in the daemon child must see only what the benchmark
  // configures.
  ::unsetenv("KARMA_CACHE_DIR");
  ::unsetenv("KARMA_CALIB_DIR");
  std::filesystem::remove_all(config.work_dir);
  std::filesystem::create_directories(config.work_dir);
  std::filesystem::create_directories(config.out_dir);

  std::vector<Metric> result_metrics;
  std::vector<Metric> all_metrics;
  std::vector<std::string> report;
  std::int64_t attempted = 0, failed = 0, wrong = 0;
  const auto absorb = [&](const WorkloadRun& run) {
    attempted += run.attempted;
    failed += run.failed;
    wrong += run.wrong;
    report.insert(report.end(), run.report.begin(), run.report.end());
  };
  const auto [steal_before, total_before] = cpu_steal_and_total();
  try {
    if (!config.trace) {
      const WorkloadRun run = entry->run(config, nullptr);
      absorb(run);
      all_metrics = run.metrics;
      print_metrics("end-to-end metrics:", run.metrics);
    } else {
      Config half = config;
      half.seconds = config.seconds / 2;
      const WorkloadRun plain = entry->run(half, nullptr);
      SpanLog spans;
      const WorkloadRun traced = entry->run(half, &spans);
      absorb(plain);
      absorb(traced);
      std::vector<Metric> layers =
          layer_sweep(config, traced, spans, &report);
      const double hit_ratio = metric_value(traced.metrics, "hit_p50_ms") /
                               std::max(1e-12, metric_value(plain.metrics, "hit_p50_ms"));
      const double miss_ratio =
          metric_value(traced.metrics, "miss_p50_ms") /
          std::max(1e-12, metric_value(plain.metrics, "miss_p50_ms"));
      layers.push_back({"obs.trace_overhead_frac", hit_ratio, "ratio"});
      char line[160];
      std::snprintf(line, sizeof line,
                    "trace overhead: traced/untraced hit_p50 %.4f, "
                    "miss_p50 %.4f",
                    hit_ratio, miss_ratio);
      report.push_back(line);
      std::ofstream(config.out_dir + "/" + config.workload + ".spans.json")
          << spans.chrome_json();
      print_metrics("end-to-end metrics (untraced half):", plain.metrics);
      print_metrics("end-to-end metrics (traced half):", traced.metrics);
      print_self_times(spans);
      print_hit_path(traced, layers);
      print_metrics("per-layer metrics:", layers);
      all_metrics = plain.metrics;
      all_metrics.insert(all_metrics.end(), layers.begin(), layers.end());
      result_metrics = layers;
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
  if (!config.trace) result_metrics = all_metrics;
  // Machine noise, not the planner: a run whose timings stand out next to
  // a high steal share was slowed by other guests on the host.
  const auto [steal_after, total_after] = cpu_steal_and_total();
  char steal_line[96];
  std::snprintf(steal_line, sizeof steal_line,
                "cpu steal during the run: %.1f%% of CPU time",
                total_after > total_before
                    ? 100 * (steal_after - steal_before) /
                          (total_after - total_before)
                    : 0.0);
  report.push_back(steal_line);
  for (const std::string& line : report) std::printf("%s\n", line.c_str());

  karma::util::json::Writer full;
  full.begin_object();
  full.key("provenance");
  write_provenance(full, config);
  full.key("attempted"); full.value(attempted);
  full.key("failed"); full.value(failed);
  full.key("wrong"); full.value(wrong);
  full.key("metrics");
  write_metrics(full, all_metrics);
  full.key("report");
  full.begin_array();
  for (const std::string& line : report) full.value(line);
  full.end_array();
  full.end_object();
  const std::string full_json = full.take();
  std::ofstream(config.out_dir + "/" + config.workload +
                (config.trace ? ".traced" : "") + ".result.json")
      << full_json << "\n";
  karma::util::json::Writer provenance;
  write_provenance(provenance, config);
  std::printf("provenance: %s\n", provenance.take().c_str());

  karma::util::json::Writer w;
  w.begin_object();
  w.key("correct"); w.value(wrong == 0);
  w.key("attempted"); w.value(std::max<std::int64_t>(1, attempted));
  w.key("failed"); w.value(failed);
  w.key("metrics");
  write_metrics(w, result_metrics);
  w.end_object();
  std::printf("%s\n", w.take().c_str());
  std::fflush(stdout);
  return 0;
}
