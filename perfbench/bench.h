// perfbench — the planner's end-to-end and per-layer benchmark.
//
// Two workloads drive the planner only through its public entry points
// (api::Engine / Session, api::RemoteSession against a karma-pland child
// process, place::plan_fleet, calib::repair) and report the metrics named
// in perfbench/METRICS.md. Everything here is benchmark-side: spans are
// recorded around public calls, never inside src/.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "src/api/engine.h"
#include "src/api/remote_session.h"
#include "src/calib/table.h"

namespace perfbench {

namespace api = karma::api;

/// Seconds on the steady clock.
double now_s();

/// Latency or size samples with nearest-rank quantiles.
struct Samples {
  std::vector<double> values;

  void add(double v) { values.push_back(v); }
  void append(const Samples& other);
  std::size_t size() const { return values.size(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  /// Samples strictly above the q-quantile — the support of a tail.
  std::size_t beyond(double q) const;
};

/// What the command line asked for.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;     ///< working dir for sockets and caches
  std::string pland_path;   ///< the karma-pland executable
  std::string out_dir;      ///< where results and traces are written
  std::string git_sha;      ///< provenance, "unknown" outside a checkout
  unsigned nproc = 1;
};

// ---------------------------------------------------------------------------
// Spans (traced runs only).
// ---------------------------------------------------------------------------

/// Benchmark-side span log: name, request id, parent span, start and end.
/// Spans are kept in memory and written out when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t id = 0;  ///< spans of one request share an id
    int parent = -1;       ///< index of the parent span, -1 at a root
    double start = 0;
    double end = 0;
    std::uint32_t thread = 0;
  };

  /// Opens a span and returns its index.
  int begin(const char* name, std::uint64_t id, int parent,
            std::uint32_t thread);
  void end(int index);

  std::vector<Span> spans() const;

  /// Per span name: count, median duration and total self time (duration
  /// minus the part of it covered by child spans), in seconds.
  struct NameStats {
    std::string name;
    std::size_t count = 0;
    double median = 0;
    double total = 0;
    double self = 0;
  };
  std::vector<NameStats> by_name() const;

  /// Durations (seconds) of every closed span called `name`.
  Samples durations(const char* name) const;

  /// Chrome trace_event JSON with the id and parent as event args.
  std::string chrome_json() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; inert when the log is null (untraced runs).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::uint64_t id, int parent = -1,
        std::uint32_t thread = 0)
      : log_(log), index_(log ? log->begin(name, id, parent, thread) : -1) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int index() const { return index_; }
  void close() {
    if (log_ && index_ >= 0) log_->end(index_);
    index_ = -1;
  }

 private:
  SpanLog* log_;
  int index_;
};

// ---------------------------------------------------------------------------
// Generated requests.
// ---------------------------------------------------------------------------

/// The request population: the paper's zoo models across the request-size
/// range, one data-parallel and one fleet request, and an infeasible one.
enum class Kind {
  kVgg16,        ///< 8 KB request
  kResnet50,
  kResnet200,
  kResnet1001,   ///< 656 KB request
  kUnet,
  kDistributed,  ///< ResNet-50 over 4 data-parallel GPUs
  kFleet,        ///< ResNet-50 on a 2+2 mixed-generation fleet
  kInfeasible,   ///< ResNet-50 at batch ~2048: structured PlanError
};
inline constexpr Kind kFeasibleKinds[] = {
    Kind::kVgg16, Kind::kResnet50,    Kind::kResnet200, Kind::kResnet1001,
    Kind::kUnet,  Kind::kDistributed, Kind::kFleet};

/// Everything that makes a request: its kind, a batch the seed moves one
/// step (1/32 of the base, at least 1) around the kind's base, and planner
/// knobs. A distinct planner
/// seed gives a distinct cache key.
struct RequestSpec {
  Kind kind = Kind::kVgg16;
  std::int64_t batch = 0;
  std::uint64_t planner_seed = 0;
  int anneal = 0;
  int anneal_workers = 4;
};

/// The kind's short name, as in the report.
const char* kind_name(Kind kind);

RequestSpec draw_spec(Kind kind, std::mt19937_64& rng, int anneal,
                      int anneal_workers = 4);

/// Latency samples kept apart by request kind. Kinds differ in cost by up
/// to 100x, so the median of pooled samples would jump from one kind's
/// block to another's as the seed shifts the mix: p50 is the geometric
/// mean over kinds of each kind's median instead. A tail is a quantile of
/// all samples: the workloads' mixes put it inside the block of their
/// costliest kind, where it holds still.
class Latencies {
 public:
  void add(Kind kind, double v) { by_kind_[kind].add(v); }
  void append(const Latencies& other);
  std::size_t size() const { return pooled().size(); }
  /// Geometric mean over kinds of the kind's median; 0 when empty.
  double p50() const;
  /// The q-quantile of all samples.
  double tail(double q) const { return pooled().quantile(q); }
  /// Samples beyond tail(q).
  std::size_t beyond(double q) const { return pooled().beyond(q); }
  /// "kind=n:median" per kind, for the report.
  std::string per_kind() const;

 private:
  Samples pooled() const;
  std::map<Kind, Samples> by_kind_;
};

/// Builds the request (zoo make_* call included).
api::PlanRequest build_request(const RequestSpec& spec);

/// Ranks one iteration spans: the data-parallel or fleet width, else 1.
double ranks(const api::PlanRequest& request);

/// The calibration table the benchmark installs to take the repair path:
/// it prices swap lanes 1.6x and kernels 1.1x the analytic model.
karma::calib::CalibrationTable bench_table();

// ---------------------------------------------------------------------------
// Correctness oracle.
// ---------------------------------------------------------------------------

/// A plan outcome reduced to what the oracle compares: the exact artifact
/// bytes of a plan, or the code and nearest feasible batch of an error.
struct Outcome {
  bool ok = false;
  std::string artifact;
  api::PlanErrorCode code = api::PlanErrorCode::kInternalError;
  std::int64_t nearest_batch = -1;
  double samples_per_s = 0;  ///< global batch / simulated iteration time
};

Outcome outcome_of(const api::Expected<api::Plan, api::PlanError>& result,
                   const api::PlanRequest& request);

/// True when `got` equals the reference: identical artifact bytes, or the
/// same error code and nearest_feasible_batch.
bool matches(const Outcome& reference, const Outcome& got);

/// Plans every request on a cache-bypassing in-process engine, `threads`
/// requests at a time.
std::vector<Outcome> references(const std::vector<api::PlanRequest>& requests,
                                unsigned threads);

/// The repair-path references: plans every request on a fresh in-process
/// engine, then installs the bench table and plans every request again;
/// `threads` engines share the requests.
struct RepairReferences {
  std::vector<Outcome> cold;
  std::vector<Outcome> repaired;
};
RepairReferences repair_references(
    const std::vector<api::PlanRequest>& requests, unsigned threads);

/// Geometric mean of samples_per_s over the successful outcomes.
double geomean_samples_per_s(const std::vector<Outcome>& outcomes);

// ---------------------------------------------------------------------------
// The karma-pland child process.
// ---------------------------------------------------------------------------

class DaemonChild {
 public:
  /// Starts `exe` serving on `dir`/pland.sock with its plan store in
  /// `dir`/cache. With `trace_dir` non-empty the daemon's own tracing
  /// writes there. Throws std::runtime_error when the daemon does not come
  /// up.
  DaemonChild(const std::string& exe, const std::string& dir,
              const std::string& trace_dir);
  ~DaemonChild();
  DaemonChild(const DaemonChild&) = delete;
  DaemonChild& operator=(const DaemonChild&) = delete;

  const std::string& socket() const { return socket_; }
  /// Peak resident set (VmHWM) of the daemon so far, MiB.
  double peak_rss_mb() const;
  /// The daemon's `metrics` verb document.
  std::string metrics_json() const;
  /// Graceful shutdown, then reap; kills it when it does not exit.
  void stop();

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

/// Peak resident set (VmHWM) of this process, MiB.
double self_peak_rss_mb();

/// One value of a registry snapshot (the daemon's `metrics` verb): the
/// instrument `name` in `section` ("counters", "gauges", "histograms"),
/// and for a histogram its `field` ("p50", "count", ...); 0 when absent.
double registry_value(const std::string& metrics_json,
                      const std::string& section, const std::string& name,
                      const std::string& field = "");

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run of a workload leaves behind: the end-to-end metrics, the
/// counts behind the result line, and the inputs the layer sweep replays.
struct WorkloadRun {
  std::vector<Metric> metrics;
  std::vector<std::string> report;  ///< human-readable lines
  std::int64_t attempted = 0;
  std::int64_t failed = 0;   ///< wrong artifacts + transport errors + sheds
  std::int64_t wrong = 0;    ///< artifacts that differ from the reference
  /// One request spec per kind the workload planned, for the layer sweep.
  std::vector<RequestSpec> sample;
  /// The serving daemon's registry snapshot, "" for in-process workloads.
  std::string daemon_metrics;
  double cache_hit_frac = 0;
};

/// The value of metric `name` in `metrics`, 0 when absent.
double metric_value(const std::vector<Metric>& metrics,
                    const std::string& name);

WorkloadRun run_warm_hits(const Config& config, SpanLog* spans);
WorkloadRun run_cold_plan(const Config& config, SpanLog* spans);

/// The traced run's per-layer sweep: times each layer's public call on
/// the workload's sampled requests under spans, and returns the
/// per-layer metrics in METRICS.md order.
std::vector<Metric> layer_sweep(const Config& config, const WorkloadRun& run,
                                SpanLog& spans,
                                std::vector<std::string>* report);

}  // namespace perfbench
