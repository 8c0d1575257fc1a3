// Request keying cost (DESIGN.md §10): what a cache hit pays before the
// lookup. Prints Engine::key_for per request kind and the throughput of
// util::digest128 over each request's wire JSON (the bytes karma-pland
// digests on its hit path). Not gated; EXPERIMENTS.md records its A/B.
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
#include "src/api/request_io.h"
#include "src/cache/request_key.h"
#include "src/graph/model_zoo.h"
#include "src/sim/device.h"
#include "src/util/hash.h"

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
  return 0;
}
