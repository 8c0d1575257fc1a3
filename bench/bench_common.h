// Shared helpers for the per-figure/per-table benchmark harnesses.
//
// Each binary regenerates one table or figure from the paper's evaluation
// (Sec. IV) on the simulated ABCI substrate and prints the same rows /
// series the paper reports. EXPERIMENTS.md is the ledger of measured
// results and same-machine A/Bs.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "src/graph/model_zoo.h"
#include "src/util/table.h"

namespace karma::bench {

struct ModelGrid {
  const char* name;
  graph::Model (*make)(std::int64_t);
  std::vector<std::int64_t> batches;  ///< Fig. 5 x-axis, first point fits
};

/// The Fig. 5 workload grid, exactly as plotted in the paper.
inline std::vector<ModelGrid> fig5_grid() {
  return {
      {"ResNet-50", &graph::make_resnet50, {128, 256, 384, 512, 640, 768}},
      {"VGG16", &graph::make_vgg16, {32, 64, 96, 128, 160}},
      {"ResNet-200", &graph::make_resnet200, {4, 8, 12, 16, 20, 24}},
      {"WRN-28-10", &graph::make_wrn28_10, {256, 512, 768, 1024, 1280}},
      {"ResNet-1001", &graph::make_resnet1001, {64, 128, 192, 256, 320}},
      {"U-Net", &graph::make_unet, {8, 16, 24, 32, 40}},
  };
}

inline void print_section(const std::string& title) {
  std::printf("\n================ %s ================\n", title.c_str());
}

}  // namespace karma::bench
