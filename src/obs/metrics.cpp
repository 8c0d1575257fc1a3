#include "src/obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

#include "src/util/json.h"

namespace karma::obs {
namespace {

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Stable small-integer shard id for the calling thread.
int shard_of_thread(int shards) {
  static std::atomic<unsigned> next{0};
  thread_local unsigned id = next.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int>(id % static_cast<unsigned>(shards));
}

/// %g — bucket bounds are static round 1-2-5 values; 6 significant
/// digits renders them exactly ("2e-06", "0.005", "100") and identically
/// on every platform.
std::string format_bound(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram

const std::vector<double>& Histogram::bounds() {
  static const std::vector<double> kBounds = [] {
    std::vector<double> b;
    // 1-2-5 per decade, 1 us .. 50 s, then a final 100 s bound.
    for (int exp = -6; exp <= 1; ++exp) {
      const double decade = std::pow(10.0, exp);
      b.push_back(1.0 * decade);
      b.push_back(2.0 * decade);
      b.push_back(5.0 * decade);
    }
    b.push_back(100.0);
    return b;
  }();
  return kBounds;
}

Histogram::Histogram() : bucket_counts_(bounds().size() + 1) {}

void Histogram::observe(double seconds) {
  Shard& shard = shards_[static_cast<std::size_t>(shard_of_thread(kShards))];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.stats.add(seconds);
  }
  const std::vector<double>& b = bounds();
  const std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(b.begin(), b.end(), seconds) - b.begin());
  bucket_counts_[idx].fetch_add(1, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  RunningStats all;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    all.merge(shard.stats);
  }
  s.count = all.count();
  s.sum = all.sum();
  s.mean = all.mean();
  s.min = all.min();
  s.max = all.max();
  s.stddev = all.stddev();
  const std::vector<double>& b = bounds();
  for (std::size_t i = 0; i < bucket_counts_.size(); ++i) {
    const std::uint64_t c = bucket_counts_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    const double le = i < b.size() ? b[i]
                                   : std::numeric_limits<double>::infinity();
    s.buckets.push_back({le, c});
  }
  return s;
}

double Histogram::Snapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::min(100.0, std::max(0.0, p));
  const double target = p / 100.0 * static_cast<double>(count);
  std::uint64_t seen = 0;
  const std::vector<double>& b = bounds();
  for (const Bucket& bucket : buckets) {
    const std::uint64_t next = seen + bucket.count;
    if (static_cast<double>(next) >= target) {
      // Interpolate within [lower bound of this bucket, le].
      double lo = 0.0;
      const auto it = std::lower_bound(b.begin(), b.end(), bucket.le);
      if (it != b.begin() && it != b.end()) lo = *(it - 1);
      double hi = bucket.le;
      if (!std::isfinite(hi)) {  // overflow bucket: cap at observed max
        lo = b.empty() ? 0.0 : b.back();
        hi = max;
      }
      const double frac =
          bucket.count == 0
              ? 1.0
              : (target - static_cast<double>(seen)) /
                    static_cast<double>(bucket.count);
      const double v = lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
      return std::min(max, std::max(min, v));
    }
    seen = next;
  }
  return max;
}

// ---------------------------------------------------------------------------
// ScopedTimer

ScopedTimer::ScopedTimer(Histogram* h) : h_(h), start_us_(now_us()) {}

ScopedTimer::~ScopedTimer() {
  if (h_ != nullptr)
    h_->observe(static_cast<double>(now_us() - start_us_) * 1e-6);
}

// ---------------------------------------------------------------------------
// Registry

Counter* Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::uint64_t Registry::add_collector(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t token = next_collector_++;
  collectors_[token] = std::move(fn);
  return token;
}

void Registry::remove_collector(std::uint64_t token) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.erase(token);
}

void Registry::run_collectors() {
  // Copy under the lock, run outside it: collectors call back into
  // gauge()/counter() to publish their values.
  std::vector<std::function<void()>> fns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fns.reserve(collectors_.size());
    for (const auto& [token, fn] : collectors_) fns.push_back(fn);
  }
  for (const auto& fn : fns) fn();
}

std::string Registry::snapshot_json() {
  run_collectors();
  util::json::Writer w;
  std::lock_guard<std::mutex> lock(mu_);
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters_) {
    w.key(name.c_str());
    w.value(static_cast<std::int64_t>(c->value()));
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : gauges_) {
    w.key(name.c_str());
    w.value(g->value());
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h->snapshot();
    w.key(name.c_str());
    w.begin_object();
    w.key("count");
    w.value(static_cast<std::int64_t>(s.count));
    w.key("sum");
    w.value(s.sum);
    w.key("mean");
    w.value(s.mean);
    w.key("min");
    w.value(s.min);
    w.key("max");
    w.value(s.max);
    w.key("stddev");
    w.value(s.stddev);
    w.key("p50");
    w.value(s.percentile(50.0));
    w.key("p90");
    w.value(s.percentile(90.0));
    w.key("p99");
    w.value(s.percentile(99.0));
    w.key("buckets");
    w.begin_array();
    for (const Histogram::Snapshot::Bucket& bucket : s.buckets) {
      w.begin_array();
      if (std::isfinite(bucket.le)) {
        // Static 1-2-5 bounds: splice the short %g form rather than the
        // 17-digit round-trip form value(double) would emit.
        w.raw(format_bound(bucket.le));
      } else {
        w.value("+inf");
      }
      w.value(static_cast<std::int64_t>(bucket.count));
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace karma::obs
