#include "src/graph/model.h"

#include <algorithm>
#include <stdexcept>

namespace karma::graph {

const char* layer_kind_name(LayerKind kind) {
  switch (kind) {
    case LayerKind::kInput: return "Input";
    case LayerKind::kConv2d: return "Conv2d";
    case LayerKind::kReLU: return "ReLU";
    case LayerKind::kMaxPool: return "MaxPool";
    case LayerKind::kAvgPool: return "AvgPool";
    case LayerKind::kBatchNorm: return "BatchNorm";
    case LayerKind::kLSTM: return "LSTM";
    case LayerKind::kSelfAttention: return "SelfAttention";
    case LayerKind::kFullyConnected: return "FullyConnected";
    case LayerKind::kSoftmax: return "Softmax";
    case LayerKind::kDropout: return "Dropout";
    case LayerKind::kAdd: return "Add";
    case LayerKind::kConcat: return "Concat";
    case LayerKind::kReshape: return "Reshape";
    case LayerKind::kEmbedding: return "Embedding";
    case LayerKind::kLayerNorm: return "LayerNorm";
    case LayerKind::kGeLU: return "GeLU";
  }
  return "?";
}

bool is_cheap_to_recompute(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv2d:
    case LayerKind::kFullyConnected:
    case LayerKind::kSelfAttention:
    case LayerKind::kLSTM:
    case LayerKind::kEmbedding:
      return false;
    default:
      return true;
  }
}

Model::Model(std::string name, int dtype_bytes, std::vector<Layer> layers)
    : name_(std::move(name)),
      dtype_bytes_(dtype_bytes),
      layers_(std::move(layers)),
      preds_(layers_.size()),
      succs_(layers_.size()) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const int id = static_cast<int>(i);
    layers_[i].id = id;
    if (id > 0) {
      preds_[i].push_back(id - 1);
      succs_[i - 1].push_back(id);
    }
  }
}

int Model::add_layer(Layer layer) {
  const int id = static_cast<int>(layers_.size());
  layer.id = id;
  layers_.push_back(std::move(layer));
  preds_.emplace_back();
  succs_.emplace_back();
  if (id > 0) add_edge(id - 1, id);
  return id;
}

void Model::add_edge(int from, int to) {
  if (from < 0 || to < 0 || from >= static_cast<int>(layers_.size()) ||
      to >= static_cast<int>(layers_.size()))
    throw std::out_of_range("Model::add_edge: id out of range");
  if (from >= to)
    throw std::logic_error("Model::add_edge: edges must go forward");
  auto& s = succs_[static_cast<std::size_t>(from)];
  if (std::find(s.begin(), s.end(), to) != s.end()) return;  // idempotent
  s.push_back(to);
  std::sort(s.begin(), s.end());
  auto& p = preds_[static_cast<std::size_t>(to)];
  p.push_back(from);
  std::sort(p.begin(), p.end());
}

bool Model::is_linear_chain() const { return max_skip_span() <= 1; }

int Model::max_skip_span() const {
  int span = 0;
  for (std::size_t i = 0; i < succs_.size(); ++i)
    for (int s : succs_[i]) span = std::max(span, s - static_cast<int>(i));
  return span;
}

std::int64_t Model::total_weight_elems() const {
  std::int64_t total = 0;
  for (const auto& l : layers_) total += l.weight_elems;
  return total;
}

Model Model::with_batch_size(std::int64_t batch) const {
  std::vector<Layer> layers = layers_;
  for (Layer& l : layers) {
    if (l.in_shape.rank() > 0) l.in_shape = l.in_shape.with_batch(batch);
    if (l.out_shape.rank() > 0) l.out_shape = l.out_shape.with_batch(batch);
  }
  Model out(name_, dtype_bytes_, std::move(layers));
  out.act_scale_ = act_scale_;
  // Re-create explicit skip edges (the constructor made the chain edges).
  for (std::size_t i = 0; i < succs_.size(); ++i)
    for (int s : succs_[i])
      if (s != static_cast<int>(i) + 1) out.add_edge(static_cast<int>(i), s);
  return out;
}

void Model::validate() const {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i].id != static_cast<int>(i))
      throw std::logic_error("Model: layer id mismatch");
    for (int p : preds_[i])
      if (p < 0 || p >= static_cast<int>(i))
        throw std::logic_error("Model: bad pred edge");
    for (int s : succs_[i])
      if (s <= static_cast<int>(i) || s >= static_cast<int>(layers_.size()))
        throw std::logic_error("Model: bad succ edge");
  }
  // Every non-first layer must have at least one predecessor.
  for (std::size_t i = 1; i < layers_.size(); ++i)
    if (preds_[i].empty()) throw std::logic_error("Model: orphan layer");
}

}  // namespace karma::graph
