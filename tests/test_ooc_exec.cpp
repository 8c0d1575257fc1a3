// The heart of the reproduction's correctness story: out-of-core
// execution (swap / recompute / CPU update) is bit-identical to in-core
// training, while actually fitting in a pool the in-core run overflows.
#include "src/train/ooc_exec.h"

#include <gtest/gtest.h>

#include <map>

#include "src/calib/profile.h"
#include "src/sim/device.h"
#include "src/train/synthetic.h"

namespace karma::train {
namespace {

using core::BlockPolicy;

constexpr std::uint64_t kSeed = 2024;

Sequential fresh_mlp() {
  Rng rng(kSeed);
  return make_mlp({20, 32, 32, 32, 5}, rng);
}

SyntheticBatch batch() {
  Rng rng(77);
  return make_synthetic_batch(16, {20}, 5, rng);
}

/// Gradients of an in-core reference run.
std::vector<Tensor> reference_grads(const SyntheticBatch& data) {
  Sequential net = fresh_mlp();
  net.zero_grads();
  SoftmaxCrossEntropy loss;
  const Tensor logits = net.forward(data.inputs);
  loss.forward(logits, data.labels);
  net.backward(loss.grad_logits());
  std::vector<Tensor> grads;
  for (Tensor* g : net.all_grads()) grads.push_back(*g);
  return grads;
}

std::vector<OocBlock> blocks_with(BlockPolicy policy, std::size_t layers,
                                  std::size_t per_block = 2) {
  return uniform_ooc_blocks(layers, per_block, policy);
}

void expect_grads_bitwise(Sequential& net,
                          const std::vector<Tensor>& reference) {
  const auto grads = net.all_grads();
  ASSERT_EQ(grads.size(), reference.size());
  for (std::size_t i = 0; i < grads.size(); ++i)
    EXPECT_TRUE(bitwise_equal(*grads[i], reference[i])) << "grad " << i;
}

TEST(OocExec, SwapPolicyBitwiseIdenticalToInCore) {
  const SyntheticBatch data = batch();
  const auto reference = reference_grads(data);
  Sequential net = fresh_mlp();
  OocExecutor exec(&net, blocks_with(BlockPolicy::kSwap, net.size()),
                   Bytes{1} << 30);
  const StepStats stats = exec.compute_gradients(data.inputs, data.labels);
  EXPECT_GT(stats.swapped_out_bytes, 0);
  EXPECT_EQ(stats.swapped_in_bytes, stats.swapped_out_bytes);
  expect_grads_bitwise(net, reference);
}

TEST(OocExec, RecomputePolicyBitwiseIdenticalToInCore) {
  const SyntheticBatch data = batch();
  const auto reference = reference_grads(data);
  Sequential net = fresh_mlp();
  OocExecutor exec(&net, blocks_with(BlockPolicy::kRecompute, net.size()),
                   Bytes{1} << 30);
  const StepStats stats = exec.compute_gradients(data.inputs, data.labels);
  EXPECT_GT(stats.recomputed_layers, 0);
  EXPECT_EQ(stats.swapped_out_bytes, 0);
  expect_grads_bitwise(net, reference);
}

TEST(OocExec, NvmePolicyBitwiseIdenticalToInCore) {
  // The storage-tier path runs the same protocol through the slower
  // (size-modeled) store — numerics must not notice the medium.
  const SyntheticBatch data = batch();
  const auto reference = reference_grads(data);
  Sequential net = fresh_mlp();
  OocExecutor exec(&net, blocks_with(BlockPolicy::kSwapNvme, net.size()),
                   Bytes{1} << 30);
  const StepStats stats = exec.compute_gradients(data.inputs, data.labels);
  EXPECT_GT(stats.nvme_out_bytes, 0);
  EXPECT_EQ(stats.nvme_in_bytes, stats.nvme_out_bytes);
  EXPECT_EQ(stats.swapped_out_bytes, 0);  // nothing through the host store
  EXPECT_GT(stats.peak_nvme_bytes, 0);
  EXPECT_EQ(stats.peak_host_bytes, 0);
  expect_grads_bitwise(net, reference);
}

TEST(OocExec, TieredStoresBitwiseIdenticalToInCore) {
  // Host-bound early blocks, NVMe-bound late blocks, and a bounded host
  // store: the tiered protocol end to end on real values.
  const SyntheticBatch data = batch();
  const auto reference = reference_grads(data);
  Sequential net = fresh_mlp();
  auto blocks = blocks_with(BlockPolicy::kSwap, net.size());
  ASSERT_GE(blocks.size(), 2u);
  for (std::size_t b = blocks.size() / 2; b < blocks.size(); ++b)
    blocks[b].policy = BlockPolicy::kSwapNvme;
  OocExecutor exec(&net, std::move(blocks), Bytes{1} << 30,
                   /*host_capacity=*/Bytes{1} << 20);
  const StepStats stats = exec.compute_gradients(data.inputs, data.labels);
  EXPECT_GT(stats.swapped_out_bytes, 0);
  EXPECT_GT(stats.nvme_out_bytes, 0);
  expect_grads_bitwise(net, reference);
}

TEST(OocExec, BoundedHostStoreOverflowThrows) {
  const SyntheticBatch data = batch();
  Sequential net = fresh_mlp();
  // A 64 B host store cannot absorb any evicted layer.
  OocExecutor exec(&net, blocks_with(BlockPolicy::kSwap, net.size()),
                   Bytes{1} << 30, /*host_capacity=*/64);
  EXPECT_THROW(exec.compute_gradients(data.inputs, data.labels),
               CapacityError);
}

TEST(OocExec, MixedPoliciesBitwiseIdenticalToInCore) {
  const SyntheticBatch data = batch();
  const auto reference = reference_grads(data);
  Sequential net = fresh_mlp();
  auto blocks = blocks_with(BlockPolicy::kSwap, net.size());
  // KARMA-style mix: early blocks swap, middles recompute, tail resident.
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (b + 1 == blocks.size()) blocks[b].policy = BlockPolicy::kResident;
    else if (b % 2 == 1) blocks[b].policy = BlockPolicy::kRecompute;
  }
  OocExecutor exec(&net, blocks, Bytes{1} << 30);
  exec.compute_gradients(data.inputs, data.labels);
  expect_grads_bitwise(net, reference);
}

TEST(OocExec, TrainsInPoolTooSmallForInCore) {
  // The paper's core capability, executed: pick a pool the in-core
  // (all-resident) run overflows, and show swap policy fits and still
  // produces identical weights after several update steps.
  const SyntheticBatch data = batch();

  // Measure the in-core peak.
  Sequential probe = fresh_mlp();
  OocExecutor incore(&probe,
                     blocks_with(BlockPolicy::kResident, probe.size()),
                     Bytes{1} << 30);
  incore.compute_gradients(data.inputs, data.labels);
  const Bytes incore_peak = incore.pool().peak_used();
  ASSERT_GT(incore_peak, 0);

  const Bytes small_pool = incore_peak / 2;
  // All-resident must overflow the small pool...
  Sequential fail_net = fresh_mlp();
  OocExecutor fail_exec(
      &fail_net, blocks_with(BlockPolicy::kResident, fail_net.size()),
      small_pool);
  EXPECT_THROW(fail_exec.compute_gradients(data.inputs, data.labels),
               CapacityError);

  // ...while swap-per-layer fits (at most one layer's activations are
  // resident at a time) and matches the reference bitwise across 5 steps.
  Sequential ref_net = fresh_mlp();
  SGD ref_opt(0.05f);
  SoftmaxCrossEntropy loss;
  Sequential ooc_net = fresh_mlp();
  OocExecutor ooc(&ooc_net,
                  blocks_with(BlockPolicy::kSwap, ooc_net.size(), 1),
                  small_pool);
  SGD ooc_opt(0.05f);
  for (int step = 0; step < 5; ++step) {
    ref_net.zero_grads();
    loss.forward(ref_net.forward(data.inputs), data.labels);
    ref_net.backward(loss.grad_logits());
    ref_opt.step(ref_net.all_params(), ref_net.all_grads());

    ooc.train_step(data.inputs, data.labels, ooc_opt);
  }
  const auto ref_params = ref_net.all_params();
  const auto ooc_params = ooc_net.all_params();
  ASSERT_EQ(ref_params.size(), ooc_params.size());
  for (std::size_t i = 0; i < ref_params.size(); ++i)
    EXPECT_TRUE(bitwise_equal(*ref_params[i], *ooc_params[i]))
        << "param " << i;
  EXPECT_LE(ooc.pool().peak_used(), small_pool);
}

TEST(OocExec, CpuUpdatePathBitwiseIdentical) {
  const SyntheticBatch data = batch();
  Sequential direct = fresh_mlp();
  OocExecutor direct_exec(
      &direct, blocks_with(BlockPolicy::kSwap, direct.size()), Bytes{1} << 30);
  SGD direct_opt(0.1f, 0.9f);
  Sequential host = fresh_mlp();
  OocExecutor host_exec(&host, blocks_with(BlockPolicy::kSwap, host.size()),
                        Bytes{1} << 30);
  SGD host_opt(0.1f, 0.9f);
  for (int step = 0; step < 4; ++step) {
    direct_exec.train_step(data.inputs, data.labels, direct_opt,
                           /*cpu_update=*/false);
    host_exec.train_step(data.inputs, data.labels, host_opt,
                         /*cpu_update=*/true);
  }
  const auto a = direct.all_params();
  const auto b = host.all_params();
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_TRUE(bitwise_equal(*a[i], *b[i])) << "param " << i;
}

TEST(OocExec, SwapUsesLessPeakThanResident) {
  const SyntheticBatch data = batch();
  Sequential a = fresh_mlp();
  OocExecutor resident(&a, blocks_with(BlockPolicy::kResident, a.size()),
                       Bytes{1} << 30);
  resident.compute_gradients(data.inputs, data.labels);
  Sequential b = fresh_mlp();
  OocExecutor swap(&b, blocks_with(BlockPolicy::kSwap, b.size(), 1),
                   Bytes{1} << 30);
  swap.compute_gradients(data.inputs, data.labels);
  EXPECT_LT(swap.pool().peak_used(), resident.pool().peak_used());
}

TEST(OocExec, RejectsBadBlockPartitions) {
  Sequential net = fresh_mlp();
  EXPECT_THROW(OocExecutor(&net, {{0, 2}, {3, net.size()}}, 1 << 20),
               std::invalid_argument);  // hole
  EXPECT_THROW(OocExecutor(&net, {{0, net.size() - 1}}, 1 << 20),
               std::invalid_argument);  // incomplete
  EXPECT_THROW(OocExecutor(nullptr, {{0, 1}}, 1 << 20),
               std::invalid_argument);
  EXPECT_THROW(uniform_ooc_blocks(4, 0, BlockPolicy::kSwap),
               std::invalid_argument);
}

TEST(OocExec, ConvNetSwapAlsoExact) {
  Rng rng(kSeed);
  Sequential ref = make_small_cnn(1, 8, 4, rng);
  Rng rng2(kSeed);
  Sequential ooc_net = make_small_cnn(1, 8, 4, rng2);
  Rng data_rng(5);
  const SyntheticBatch data = make_synthetic_batch(6, {1, 8, 8}, 4, data_rng);

  ref.zero_grads();
  SoftmaxCrossEntropy loss;
  loss.forward(ref.forward(data.inputs), data.labels);
  ref.backward(loss.grad_logits());

  OocExecutor exec(&ooc_net,
                   uniform_ooc_blocks(ooc_net.size(), 3, BlockPolicy::kSwap),
                   Bytes{1} << 30);
  exec.compute_gradients(data.inputs, data.labels);

  const auto a = ref.all_grads();
  const auto b = ooc_net.all_grads();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_TRUE(bitwise_equal(*a[i], *b[i])) << "grad " << i;
}

// ---- Profile capture (DESIGN.md §13): the executor is the only producer
// of measured samples, so what it records is what calib::fit sees.

/// The device model's prediction for one recorded op, spelled out per
/// kind: compute on the bandwidth roofline, swaps on their tier legs.
Seconds model_prediction(const sim::DeviceSpec& device,
                         const calib::ProfileSample& s) {
  switch (s.kind) {
    case calib::CostKind::kCompute:
      return device.kernel_time(graph::LayerKind::kReLU, 0.0, s.bytes);
    case calib::CostKind::kH2d:
      return device.h2d_time(s.bytes);
    case calib::CostKind::kD2h:
      return device.d2h_time(s.bytes);
    case calib::CostKind::kNvmeRead:
      return device.read_from_tier_time(tier::Tier::kNvme, s.bytes);
    case calib::CostKind::kNvmeWrite:
      return device.write_to_tier_time(tier::Tier::kNvme, s.bytes);
    case calib::CostKind::kCpuUpdate:
      return device.cpu_update_time(s.bytes);
  }
  return -1.0;
}

TEST(OocExec, RecordsAProfileSamplePerTimedOp) {
  const SyntheticBatch data = batch();
  for (const sim::DeviceSpec& device :
       {sim::v100_abci_nvme(), sim::v100_abci()}) {
    SCOPED_TRACE(device.name);
    Sequential net = fresh_mlp();
    auto blocks = blocks_with(BlockPolicy::kResident, net.size());
    ASSERT_GE(blocks.size(), 4u);
    blocks[0].policy = BlockPolicy::kSwap;
    blocks[1].policy = BlockPolicy::kSwapNvme;
    blocks[2].policy = BlockPolicy::kRecompute;
    OocExecutor exec(&net, blocks, Bytes{1} << 30);
    calib::ProfileRecorder recorder(device, "mlp");
    exec.set_profile_recorder(&recorder);
    const StepStats stats = exec.compute_gradients(data.inputs, data.labels);

    std::map<calib::CostKind, int> count;
    std::map<calib::CostKind, Bytes> bytes;
    for (const calib::ProfileSample& s : recorder.artifact().samples) {
      ++count[s.kind];
      bytes[s.kind] += s.bytes;
      EXPECT_GT(s.bytes, 0);
      EXPECT_GE(s.measured, 0.0);
      EXPECT_EQ(s.predicted, model_prediction(device, s))
          << calib::cost_kind_name(s.kind) << " " << s.bytes << " B";
    }
    // Compute: one forward and one backward per block, plus the
    // recompute block's re-forward.
    EXPECT_EQ(count[calib::CostKind::kCompute],
              2 * static_cast<int>(blocks.size()) + 1);
    // The host-swapped block: one d2h and one h2d per layer it evicts.
    EXPECT_EQ(count[calib::CostKind::kD2h], 2);
    EXPECT_EQ(count[calib::CostKind::kH2d], 2);
    EXPECT_EQ(bytes[calib::CostKind::kD2h], stats.swapped_out_bytes);
    EXPECT_EQ(bytes[calib::CostKind::kH2d], stats.swapped_in_bytes);
    // The NVMe-swapped block: samples only when the device has the tier
    // to calibrate against.
    if (device.has_nvme()) {
      EXPECT_EQ(count[calib::CostKind::kNvmeWrite], 2);
      EXPECT_EQ(count[calib::CostKind::kNvmeRead], 2);
      EXPECT_EQ(bytes[calib::CostKind::kNvmeWrite], stats.nvme_out_bytes);
      EXPECT_EQ(bytes[calib::CostKind::kNvmeRead], stats.nvme_in_bytes);
    } else {
      EXPECT_EQ(count[calib::CostKind::kNvmeWrite], 0);
      EXPECT_EQ(count[calib::CostKind::kNvmeRead], 0);
      EXPECT_GT(stats.nvme_out_bytes, 0);
    }
    EXPECT_EQ(count[calib::CostKind::kCpuUpdate], 0);  // no update ran
  }
}

}  // namespace
}  // namespace karma::train
