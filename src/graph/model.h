// Dependency graph of layers (KARMA workflow step 1, Fig. 1).
//
// The graph is a DAG over layers in topological (construction) order.
// Consecutive layers are implicitly connected by the builder helpers;
// residual and U-Net skip connections add explicit long-range edges, which
// is what the non-linear-model handling of Sec. III-F.4 keys off.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/layer.h"

namespace karma::graph {

class Model {
 public:
  Model(std::string name, int dtype_bytes = 4)
      : name_(std::move(name)), dtype_bytes_(dtype_bytes) {}

  /// Adopts `layers` in order, without copying them: assigns their ids and
  /// wires the chain edges, as add_layer would one by one.
  Model(std::string name, int dtype_bytes, std::vector<Layer> layers);

  /// Appends a layer, auto-connecting it to the previous layer (unless it
  /// is the first). Returns the layer id.
  int add_layer(Layer layer);

  /// Adds an explicit dependency edge `from -> to` (from feeds to). Used
  /// for residual adds and U-Net skips. C_ij = 1 in the paper's notation.
  void add_edge(int from, int to);

  const std::string& name() const { return name_; }
  int dtype_bytes() const { return dtype_bytes_; }

  /// Calibration factor applied to activation footprints, the stand-in
  /// for the paper's per-model empirical memory profiling (Sec. III-D):
  /// the zoo sets it so each model's in-core capacity grid matches the
  /// Fig. 5 ground truth (first batch point fits a 16 GiB V100, second
  /// overflows). See DESIGN.md §2.
  double activation_memory_scale() const { return act_scale_; }
  void set_activation_memory_scale(double scale) { act_scale_ = scale; }
  std::size_t num_layers() const { return layers_.size(); }
  const Layer& layer(int id) const { return layers_.at(static_cast<std::size_t>(id)); }
  const std::vector<Layer>& layers() const { return layers_; }

  /// Predecessors of `id` (layers feeding it), ascending.
  const std::vector<int>& preds(int id) const {
    return preds_.at(static_cast<std::size_t>(id));
  }
  /// Successors of `id`, ascending.
  const std::vector<int>& succs(int id) const {
    return succs_.at(static_cast<std::size_t>(id));
  }

  /// True if every edge connects consecutive layers (no skips).
  bool is_linear_chain() const;

  /// Longest forward jump (succ - pred) over all edges; 1 for a chain.
  int max_skip_span() const;

  /// Total weight elements over all layers.
  std::int64_t total_weight_elems() const;

  /// Returns a copy of this model with all layer shapes re-batched. The
  /// batch-size projection of Sec. III-D: weights are batch-independent,
  /// activations scale with the leading dim.
  Model with_batch_size(std::int64_t batch) const;

  /// Validates edge invariants (ids in range, from < to, no duplicates).
  /// Throws std::logic_error on violation.
  void validate() const;

 private:
  std::string name_;
  int dtype_bytes_;
  double act_scale_ = 1.0;
  std::vector<Layer> layers_;
  std::vector<std::vector<int>> preds_;
  std::vector<std::vector<int>> succs_;
};

}  // namespace karma::graph
