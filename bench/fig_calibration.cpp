// Calibration loop benchmark (DESIGN.md §13) — the CI artifact behind
// BENCH_calib.json.
//
// Part A answers "does calibration actually fix the cost model?": a
// ground-truth device (the analytic V100 with perturbed swap/compute
// constants) generates a noisy execution profile; calib::fit recovers a
// table from it; the gate is that the calibrated model predicts the
// ground truth with lower mean relative error than the raw analytic one.
//
// Part B answers "is repair cheaper than re-planning?": the deep
// ResNet-50 anneal (batch 512, 2000 iterations) plans cold and caches;
// installing a perturbed-bandwidth table invalidates the entry (the old
// key must miss); the re-plan must warm-start from the stale artifact,
// finish in <= 0.5x the cold-search wall-clock (the median ratio over
// interleaved repair/cold pairs) at equal-or-better simulated cost under
// the new model, flip at least one block's swap/route decision, and land
// back in the cache under the new key.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "src/api/engine.h"
#include "src/calib/table.h"
#include "src/core/planner.h"
#include "src/graph/model_zoo.h"
#include "src/sim/device.h"
#include "src/util/json.h"
#include "src/util/stats.h"

using namespace karma;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The "real machine" part A profiles: the analytic V100 with swap lanes
/// ~3.5x slower and kernels ~1.2x slower than the model predicts.
sim::DeviceSpec ground_truth_device() {
  sim::DeviceSpec device = sim::v100_abci();
  device.scale.h2d = 3.5;
  device.scale.d2h = 3.5;
  device.scale.compute = 1.2;
  device.scale.cpu_update = 1.5;
  return device;
}

double truth_time(const sim::DeviceSpec& truth, calib::CostKind kind,
                  Bytes bytes) {
  switch (kind) {
    case calib::CostKind::kCompute:
      return truth.kernel_time(graph::LayerKind::kReLU, 0.0, bytes);
    case calib::CostKind::kH2d: return truth.h2d_time(bytes);
    case calib::CostKind::kD2h: return truth.d2h_time(bytes);
    case calib::CostKind::kCpuUpdate: return truth.cpu_update_time(bytes);
    default: return 0.0;  // no NVMe tier on this platform
  }
}

/// Mean |predicted - truth| / truth over the sampled op grid.
double mean_relative_error(const sim::DeviceSpec& predictor,
                           const sim::DeviceSpec& truth) {
  const calib::CostKind kinds[] = {
      calib::CostKind::kCompute, calib::CostKind::kH2d,
      calib::CostKind::kD2h, calib::CostKind::kCpuUpdate};
  double total = 0.0;
  int count = 0;
  for (const calib::CostKind kind : kinds) {
    for (int shift = 0; shift < 6; ++shift) {
      const Bytes bytes = (Bytes{2} << 20) << shift;
      const double t = truth_time(truth, kind, bytes);
      const double p = truth_time(predictor, kind, bytes);
      if (t <= 0.0) continue;
      total += std::abs(p - t) / t;
      ++count;
    }
  }
  return count > 0 ? total / count : 0.0;
}

}  // namespace

int main() {
  bool pass = true;

  // ---- Part A: fit recovers the measured constants through noise ----
  std::printf("=== Part A: predicted-vs-measured error, fit quality ===\n");
  const sim::DeviceSpec analytic = sim::v100_abci();
  const sim::DeviceSpec truth = ground_truth_device();

  calib::ProfileRecorder recorder(analytic, "resnet50-profile");
  std::mt19937_64 rng(0xBEEFCAFE);  // deterministic noise, reproducible runs
  std::uniform_real_distribution<double> noise(0.9, 1.1);
  const calib::CostKind kinds[] = {
      calib::CostKind::kCompute, calib::CostKind::kH2d,
      calib::CostKind::kD2h, calib::CostKind::kCpuUpdate};
  for (const calib::CostKind kind : kinds) {
    for (int i = 0; i < 24; ++i) {
      const Bytes bytes = (Bytes{1} << 20) << (i % 6);
      recorder.record(kind, bytes, truth_time(truth, kind, bytes) * noise(rng));
    }
  }
  // One pathological sample the MAD band must reject.
  recorder.record(calib::CostKind::kH2d, 4 << 20,
                  truth.h2d_time(4 << 20) * 80.0);

  const calib::CalibrationTable table = calib::fit({recorder.artifact()});
  const sim::DeviceSpec calibrated = calib::apply(table, analytic);

  const double err_raw = mean_relative_error(analytic, truth);
  const double err_cal = mean_relative_error(calibrated, truth);
  std::printf("mean relative error vs ground truth: analytic %.3f, "
              "calibrated %.3f (samples %lld, outliers rejected %lld)\n",
              err_raw, err_cal,
              static_cast<long long>(table.sample_count),
              static_cast<long long>(table.rejected_outliers));
  const bool fit_better = err_cal < err_raw && err_cal < 0.10;
  const bool outlier_ok = table.rejected_outliers >= 1;
  if (!fit_better)
    std::printf("FAIL: calibrated model is not (clearly) better\n");
  if (!outlier_ok) std::printf("FAIL: the 80x outlier was not rejected\n");
  pass = pass && fit_better && outlier_ok;

  // ---- Part B: cached plan -> calibrate -> repair, on the deep anneal ----
  std::printf("\n=== Part B: repair warm-start vs cold re-plan ===\n");
  api::PlanRequest request;
  request.model = graph::make_resnet50(512);  // out-of-core on the V100
  request.device = sim::v100_abci();
  request.planner.anneal_iterations = 2000;   // the deep-anneal regime

  // Swap lanes measured 4x FASTER than the analytic PCIe model (pinned
  // staging + overlap the model under-credits): swapping fine-grained
  // blocks now beats recomputing them, so the repaired plan must flip
  // routes — the analytic optimum here is a few recomputed blocks, the
  // calibrated one many swapped ones.
  auto swap_table = std::make_shared<const calib::CalibrationTable>([] {
    calib::CalibrationTable t;
    t.factors[calib::kAnyDeviceClass] = {{"h2d", 0.25}, {"d2h", 0.25}};
    return t;
  }());
  const sim::DeviceSpec repair_device =
      calib::apply(*swap_table, request.device);

  // Cold baseline under the SAME calibrated model, same options/seed —
  // what a fleet without repair would have to pay per plan.
  const core::PlannerOptions cold_options = request.planner;

  // The plans are deterministic; only the wall-clocks are noisy, and the
  // cold search takes only milliseconds. So repair and the cold re-plan
  // are timed as interleaved pairs (their order alternating from pair to
  // pair, so drift and warm-up hit both sides alike) and the gate reads
  // the MEDIAN of the per-pair ratios. Each repair repeats the whole
  // cached -> calibrate -> repair sequence on a fresh engine; the
  // correctness flags must hold on every pair.
  constexpr int kPairs = 11;
  std::vector<double> analytic_walls, repair_walls, cold_walls, wall_ratios;
  bool cold_cached = true, old_key_misses = true, warm = true,
       recached = true;
  api::Plan cold_plan, repaired_plan;
  core::PlanResult cold_calibrated;
  const auto run_repair = [&] {
    auto engine = api::Engine::create({});
    double t0 = now_seconds();
    const auto cold = engine->plan(request);
    analytic_walls.push_back(now_seconds() - t0);
    if (!cold.has_value()) {
      std::printf("FAIL: cold plan failed: %s\n",
                  cold.error().describe().c_str());
      return false;
    }
    cold_cached = cold_cached && engine->try_cached(request).has_value();
    engine->set_calibration(swap_table);
    old_key_misses =
        old_key_misses && !engine->try_cached(request).has_value();
    t0 = now_seconds();
    const auto repaired = engine->plan(request);
    repair_walls.push_back(now_seconds() - t0);
    if (!repaired.has_value()) {
      std::printf("FAIL: repair plan failed: %s\n",
                  repaired.error().describe().c_str());
      return false;
    }
    warm = warm && repaired.value().search_stats.warm_started;
    recached = recached && engine->try_cached(request).has_value();
    cold_plan = cold.value();
    repaired_plan = repaired.value();
    return true;
  };
  const auto run_cold = [&] {
    const double t0 = now_seconds();
    cold_calibrated =
        core::KarmaPlanner(request.model, repair_device, cold_options).plan();
    cold_walls.push_back(now_seconds() - t0);
  };
  for (int pair = 0; pair < kPairs; ++pair) {
    if (pair % 2 == 0) {
      if (!run_repair()) return 1;
      run_cold();
    } else {
      run_cold();
      if (!run_repair()) return 1;
    }
    wall_ratios.push_back(cold_walls.back() > 0
                              ? repair_walls.back() / cold_walls.back()
                              : 1.0);
  }
  const double cold_wall = percentile(analytic_walls, 50);
  const double repair_wall = percentile(repair_walls, 50);
  const double cold_calibrated_wall = percentile(cold_walls, 50);
  const double wall_ratio = percentile(wall_ratios, 50);
  const double wall_ratio_q1 = percentile(wall_ratios, 25);
  const double wall_ratio_q3 = percentile(wall_ratios, 75);

  // Per-layer policy diff between the stale cached plan and the repaired
  // one: a calibration that triples swap cost must flip at least one
  // block's swap/route decision.
  const auto layer_policies = [](const api::Plan& plan) {
    std::vector<core::BlockPolicy> per_layer(
        static_cast<std::size_t>(plan.model_layers),
        core::BlockPolicy::kResident);
    for (std::size_t b = 0; b < plan.blocks().size(); ++b)
      for (int l = plan.blocks()[b].first_layer;
           l < plan.blocks()[b].last_layer; ++l)
        per_layer[static_cast<std::size_t>(l)] = plan.policies[b];
    return per_layer;
  };
  const auto before = layer_policies(cold_plan);
  const auto after = layer_policies(repaired_plan);
  int flipped_layers = 0;
  for (std::size_t i = 0; i < before.size() && i < after.size(); ++i)
    flipped_layers += before[i] != after[i] ? 1 : 0;

  const double cost_ratio =
      cold_calibrated.iteration_time > 0
          ? repaired_plan.iteration_time / cold_calibrated.iteration_time
          : 1.0;

  std::printf("cold search:        %.3f s wall (analytic), cached=%s\n",
              cold_wall, cold_cached ? "yes" : "no");
  std::printf("calibrate:          old key misses=%s\n",
              old_key_misses ? "yes" : "no");
  std::printf("repair:             %.3f s wall, warm_started=%s, "
              "re-cached=%s\n",
              repair_wall, warm ? "yes" : "no", recached ? "yes" : "no");
  std::printf("cold re-plan:       %.3f s wall under the same table\n",
              cold_calibrated_wall);
  std::printf("repair/cold wall:   %.3fx median of %d interleaved pairs "
              "(quartiles %.3f-%.3f; gate <= 0.5x)\n",
              wall_ratio, kPairs, wall_ratio_q1, wall_ratio_q3);
  std::printf("repair/cold cost:   %.6fx simulated (gate <= 1.0x)\n",
              cost_ratio);
  std::printf("policy flips:       %d layers re-routed (gate >= 1)\n",
              flipped_layers);

  const bool invalidation_ok = cold_cached && old_key_misses && recached;
  const bool repair_ok = warm && wall_ratio <= 0.5;
  const bool cost_ok = cost_ratio <= 1.0 + 1e-12;
  const bool flip_ok = flipped_layers >= 1;
  if (!invalidation_ok) std::printf("FAIL: cache invalidation sequence\n");
  if (!repair_ok) std::printf("FAIL: repair not a cheap warm-start\n");
  if (!cost_ok) std::printf("FAIL: repaired plan worse than cold re-plan\n");
  if (!flip_ok) std::printf("FAIL: no swap/route decision flipped\n");
  pass = pass && invalidation_ok && repair_ok && cost_ok && flip_ok;

  // ---- BENCH_calib.json (the CI artifact) ----
  {
    util::json::Writer w;
    w.begin_object();
    w.key("bench"); w.value("calibration");
    w.key("fit");
    w.begin_object();
    w.key("error_analytic"); w.value(err_raw);
    w.key("error_calibrated"); w.value(err_cal);
    w.key("samples"); w.value(table.sample_count);
    w.key("rejected_outliers"); w.value(table.rejected_outliers);
    w.end_object();
    w.key("repair");
    w.begin_object();
    w.key("cold_wall_s"); w.value(cold_wall);
    w.key("cold_calibrated_wall_s"); w.value(cold_calibrated_wall);
    w.key("repair_wall_s"); w.value(repair_wall);
    w.key("wall_ratio"); w.value(wall_ratio);
    w.key("wall_ratio_q1"); w.value(wall_ratio_q1);
    w.key("wall_ratio_q3"); w.value(wall_ratio_q3);
    w.key("pairs"); w.value(static_cast<std::int64_t>(kPairs));
    w.key("cost_ratio"); w.value(cost_ratio);
    w.key("warm_started"); w.value(warm);
    w.key("flipped_layers"); w.value(flipped_layers);
    w.key("old_key_misses"); w.value(old_key_misses);
    w.key("recached"); w.value(recached);
    w.end_object();
    w.key("pass"); w.value(pass);
    w.end_object();
    std::ofstream("BENCH_calib.json") << w.take() << "\n";
    std::printf("\nwrote BENCH_calib.json\n");
  }

  std::printf("\n%s: calibration halves model error, repair <= 0.5x cold "
              "wall at equal-or-better cost, >= 1 route flip, cache "
              "invalidated and repopulated\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
