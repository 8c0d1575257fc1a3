// Request keying cost (DESIGN.md §10): what a cache hit pays before the
// lookup. Prints Engine::key_for per request kind and the throughput of
// util::digest128 over each request's wire JSON (the bytes karma-pland
// digests on its hit path), then the JSON layer's throughput per kind:
// request and plan encode/decode, and the daemon's scan_member of the
// request out of a plan frame. Not gated; EXPERIMENTS.md records its A/B.
//
//   $ ./bench_key_path [reps]
//
// Each cell is the median over 9 rounds of `reps` back-to-back calls.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/api/engine.h"
#include "src/api/plan_io.h"
#include "src/api/request_io.h"
#include "src/cache/request_key.h"
#include "src/graph/model_zoo.h"
#include "src/sim/device.h"
#include "src/util/hash.h"
#include "src/util/json.h"

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median seconds per call of `fn` over 9 rounds of `reps` calls.
template <class Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> rounds;
  for (int r = 0; r < 9; ++r) {
    const double t0 = now_s();
    for (int i = 0; i < reps; ++i) fn();
    rounds.push_back((now_s() - t0) / reps);
  }
  std::nth_element(rounds.begin(), rounds.begin() + 4, rounds.end());
  return rounds[4];
}

struct Kind {
  const char* name;
  karma::api::PlanRequest request;
};

std::vector<Kind> kinds() {
  namespace graph = karma::graph;
  const auto make = [](graph::Model model) {
    karma::api::PlanRequest r;
    r.model = std::move(model);
    r.device = karma::sim::v100_abci();
    r.planner.enable_recompute = true;
    return r;
  };
  return {{"VGG16/128", make(graph::make_vgg16(128))},
          {"ResNet-50/512", make(graph::make_resnet50(512))},
          {"ResNet-200/16", make(graph::make_resnet200(16))},
          {"ResNet-1001/256", make(graph::make_resnet1001(256))},
          {"U-Net/24", make(graph::make_unet(24))}};
}

}  // namespace

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::max(1, std::atoi(argv[1])) : 20;
  const auto engine = karma::api::Engine::create();

  karma::bench::print_section("request keying");
  std::printf("%-16s %8s %12s %12s %14s\n", "request", "layers", "key_for_us",
              "json_bytes", "digest_MB_s");
  for (const Kind& kind : kinds()) {
    const double key_s =
        median_seconds(reps, [&] { engine->key_for(kind.request); });
    const std::string json = karma::api::request_to_json(kind.request);
    // The volatile sink keeps the inlined hash from being optimized out.
    volatile std::uint64_t sink = 0;
    const double digest_s = median_seconds(
        reps * 10, [&] { sink = sink ^ karma::util::digest128(json).lo; });
    std::printf("%-16s %8zu %12.1f %12zu %14.0f\n", kind.name,
                kind.request.model.num_layers(), key_s * 1e6, json.size(),
                static_cast<double>(json.size()) / digest_s * 1e-6);
  }

  // MB/s of each JSON pass over its own artifact's bytes.
  karma::bench::print_section("json throughput (MB/s)");
  std::printf("%-16s %10s %8s %8s %9s %8s %8s %8s\n", "request",
              "req_bytes", "req_enc", "req_dec", "plan_bytes", "plan_enc",
              "plan_dec", "scan");
  for (Kind& kind : kinds()) {
    kind.request.planner.anneal_iterations = 200;
    const auto plan = engine->plan(kind.request);
    if (!plan) {
      std::printf("%-16s plan failed: %s\n", kind.name,
                  plan.error().message.c_str());
      return 1;
    }
    const std::string request_json = karma::api::request_to_json(kind.request);
    const std::string plan_json = plan.value().to_json();
    const std::string frame = R"({"v":1,"type":"plan","id":1,"tenant":"t",)"
                              R"("request":)" + request_json + "}";
    const auto mb_s = [](std::size_t bytes, double seconds) {
      return static_cast<double>(bytes) / seconds * 1e-6;
    };
    volatile std::size_t sink = 0;
    const double req_enc = median_seconds(reps, [&] {
      sink = sink + karma::api::request_to_json(kind.request).size();
    });
    const double req_dec = median_seconds(reps, [&] {
      sink = sink + karma::api::request_from_json(request_json).has_value();
    });
    const double plan_enc = median_seconds(
        reps * 10, [&] { sink = sink + plan.value().to_json().size(); });
    const double plan_dec = median_seconds(reps * 10, [&] {
      sink = sink + karma::api::plan_from_json(plan_json).has_value();
    });
    const double scan = median_seconds(reps * 10, [&] {
      sink = sink + karma::util::json::scan_member(frame, "request").size();
    });
    std::printf("%-16s %10zu %8.0f %8.0f %9zu %8.0f %8.0f %8.0f\n", kind.name,
                request_json.size(), mb_s(request_json.size(), req_enc),
                mb_s(request_json.size(), req_dec), plan_json.size(),
                mb_s(plan_json.size(), plan_enc),
                mb_s(plan_json.size(), plan_dec), mb_s(frame.size(), scan));
  }
  return 0;
}
