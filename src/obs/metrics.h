// karma::obs pillar 1 — the metrics registry (DESIGN.md §15).
//
// Named counters, gauges, and fixed-bucket latency histograms behind one
// process-visible registry with a deterministic JSON snapshot. The
// existing ad-hoc stat structs (EngineStats, DaemonStats, CacheStats
// mirrors) are snapshot VIEWS over instruments registered here: the hot
// path increments an instrument pointer it resolved once at startup;
// `stats()`-style accessors read the same instruments back, so the two
// surfaces can never disagree.
//
// Hot-path cost contract (gated by bench/fig_obs.cpp):
//   Counter::inc()      — one release fetch_add, <= 50 ns/op.
//   Histogram::observe  — one sharded mutex'd Welford add + one relaxed
//                         bucket fetch_add; per-request, not per-op.
//
// Snapshot-consistency contract: Counter increments use release ordering
// and value() uses acquire. A reader that loads causally-downstream
// counters BEFORE their upstream cause (e.g. `searches` before
// `requests`) therefore observes every upstream increment that preceded
// any downstream increment it saw — cross-counter invariants like
// `searches + flights_joined <= requests` hold in every snapshot, with
// no stop-the-world pause. See Engine::stats() for the worked example.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/stats.h"

namespace karma::obs {

/// Monotonic counter. Release/acquire ordered (see header comment).
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_release); }
  std::uint64_t value() const { return v_.load(std::memory_order_acquire); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (queue depths, resident bytes,
/// snapshot mirrors of externally-owned counters like CacheStats).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_release); }
  double value() const { return v_.load(std::memory_order_acquire); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket latency histogram (seconds). Bucket upper bounds follow a
/// 1-2-5 series from 1 us to 100 s; observations land in the first bucket
/// whose bound is >= the value, with one overflow bucket past the last
/// bound. Moment statistics (mean/min/max/stddev) are kept in per-shard
/// RunningStats accumulators (thread-id sharded to keep the mutex
/// uncontended) and reduced with RunningStats::merge at snapshot time.
class Histogram {
 public:
  Histogram();

  void observe(double seconds);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double stddev = 0.0;
    /// Per-bucket (NON-cumulative) counts; only non-empty buckets, in
    /// increasing bound order. `le` is the bucket's inclusive upper
    /// bound; the overflow bucket reports le = +infinity.
    struct Bucket {
      double le = 0.0;
      std::uint64_t count = 0;
    };
    std::vector<Bucket> buckets;
    /// p in [0,100]: interpolated within the containing bucket, clamped
    /// to the observed [min, max]. 0 when empty.
    double percentile(double p) const;
  };
  Snapshot snapshot() const;

  /// The shared bucket upper-bound series (without the +inf overflow).
  static const std::vector<double>& bounds();

 private:
  static constexpr int kShards = 8;
  struct alignas(64) Shard {
    mutable std::mutex mu;
    RunningStats stats;
  };
  std::array<Shard, kShards> shards_;
  std::vector<std::atomic<std::uint64_t>> bucket_counts_;
};

/// Times a scope and feeds the elapsed seconds to a histogram on exit.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  std::uint64_t start_us_;
};

/// Instrument registry. Lookup/registration is mutexed (cold path — hot
/// paths resolve instrument pointers once and hold them); instrument
/// pointers are stable for the registry's lifetime. Names are free-form
/// but conventionally dotted lowercase ("engine.requests",
/// "pland.hit_seconds").
class Registry {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Registers a callback run before every snapshot, outside
  /// the registry lock — the hook through which externally-owned stats
  /// (CacheStats, per-tenant queue depths) are mirrored into gauges at
  /// snapshot time. Returns a token for remove_collector; owners whose
  /// lifetime can end before the registry's MUST deregister.
  std::uint64_t add_collector(std::function<void()> fn);
  void remove_collector(std::uint64_t token);

  /// Deterministic JSON snapshot: {"counters":{...},"gauges":{...},
  /// "histograms":{...}} with names sorted, doubles in the repo-standard
  /// %.17g form (util::json::Writer).
  std::string snapshot_json();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::uint64_t, std::function<void()>> collectors_;
  std::uint64_t next_collector_ = 1;

  void run_collectors();
};

}  // namespace karma::obs
