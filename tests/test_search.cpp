// Search-layer guarantees (DESIGN.md §14): the reference event loop
// replays bit-identically to the indexed one, the portfolio anneal is
// deterministic and never loses to one walk, and a returned plan's trace
// is exactly the cold replay of that plan.
//
// The load-bearing property is BIT-IDENTITY, not approximate agreement:
// the candidate memo can be shared across portfolio workers only because
// a memoized value and a recomputed one can never differ, and the stable
// reduction makes the N-worker search deterministic only because each
// walk's observed energies are scheduling-independent.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/planner.h"
#include "src/core/schedule_gen.h"
#include "src/graph/model_zoo.h"
#include "src/sim/engine.h"
#include "src/util/infeasible.h"
#include "src/util/rng.h"

namespace karma {
namespace {

using core::BlockPolicy;
using core::KarmaPlanner;
using core::PlannerOptions;
using core::PlanResult;

void expect_traces_identical(const sim::ExecutionTrace& a,
                             const sim::ExecutionTrace& b,
                             const std::string& what) {
  ASSERT_EQ(a.records.size(), b.records.size()) << what;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& ra = a.records[i];
    const auto& rb = b.records[i];
    EXPECT_EQ(ra.op_index, rb.op_index) << what << " record " << i;
    EXPECT_EQ(ra.kind, rb.kind) << what << " record " << i;
    EXPECT_EQ(ra.block, rb.block) << what << " record " << i;
    EXPECT_EQ(ra.iteration, rb.iteration) << what << " record " << i;
    // Bit-equality on the floats, deliberately: both sides run the same
    // arithmetic in the same order, so even rounding must agree.
    EXPECT_EQ(ra.start, rb.start) << what << " record " << i;
    EXPECT_EQ(ra.end, rb.end) << what << " record " << i;
    EXPECT_EQ(ra.stall, rb.stall) << what << " record " << i;
  }
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.compute_busy, b.compute_busy) << what;
  EXPECT_EQ(a.peak_resident, b.peak_resident) << what;
  EXPECT_EQ(a.peak_host_resident, b.peak_host_resident) << what;
  EXPECT_EQ(a.peak_nvme_resident, b.peak_nvme_resident) << what;
}

TEST(EngineEventLoop, ReferenceEventLoopBitIdenticalToIndexedLoop) {
  // bench/fig_search.cpp's baseline leg replays with the seed engine's
  // O(n)-sweep event loop (EngineOptions.reference_event_loop). It must
  // be a pure performance reference — same traces, same deadlocks — or
  // the bench compares two different simulators.
  const graph::Model m = graph::make_resnet50(1024);
  const sim::DeviceSpec d = sim::v100_abci();
  PlannerOptions opts;
  opts.anneal_iterations = 0;
  const PlanResult seed = KarmaPlanner(m, d, opts).plan();
  const sim::Engine indexed(d);
  const sim::Engine reference(d, {.reference_event_loop = true});
  Rng rng(0x100b);
  int compared = 0;
  for (int trial = 0; trial < 24; ++trial) {
    // Start from the planner's own feasible policies (trial 0 is exactly
    // the seed plan) and flip a few blocks between swap and recompute.
    // The batch-1024 fixture is so tight that fully random draws — any
    // resident interior block — deadlock every time and test nothing.
    auto policies = seed.policies;
    for (int flip = 0; flip < trial; ++flip) {
      const std::size_t b =
          static_cast<std::size_t>(rng.next_below(policies.size() - 1));
      policies[b] = rng.next_below(2) == 0 ? BlockPolicy::kSwap
                                           : BlockPolicy::kRecompute;
    }
    sim::Plan plan;
    try {
      plan = core::build_training_plan(m, d, seed.blocks, policies,
                                       "ref-loop", {});
    } catch (const InfeasibleError&) {
      continue;  // routing rejected the draw; nothing to compare
    }
    sim::ExecutionTrace a;
    bool a_deadlocked = false;
    try {
      a = indexed.run(plan);
    } catch (const InfeasibleError&) {
      a_deadlocked = true;
    }
    if (a_deadlocked) {
      EXPECT_THROW(reference.run(plan), InfeasibleError)
          << "trial " << trial << ": loops disagree on deadlock";
      continue;
    }
    const sim::ExecutionTrace b = reference.run(plan);
    expect_traces_identical(a, b, "trial " + std::to_string(trial));
    ++compared;
  }
  EXPECT_GT(compared, 0) << "every draw deadlocked; property untested";
}

// ---- Planner-level guarantees.

PlannerOptions search_options(int workers) {
  PlannerOptions o;
  o.enable_recompute = true;
  o.anneal_iterations = 80;
  o.anneal_workers = workers;
  return o;
}

void expect_results_identical(const PlanResult& a, const PlanResult& b,
                              const std::string& what) {
  EXPECT_EQ(a.iteration_time, b.iteration_time) << what;
  EXPECT_EQ(a.blocks.size(), b.blocks.size()) << what;
  EXPECT_EQ(a.policies, b.policies) << what;
  EXPECT_EQ(a.plan.schedule_string(), b.plan.schedule_string()) << what;
  expect_traces_identical(a.trace, b.trace, what);
}

TEST(PortfolioSearch, NWorkerPlanBitIdenticalAcrossRuns) {
  // Same seed, N threads, two runs: thread timing must not leak into the
  // chosen plan. Runs under the TSan CI job with real concurrency.
  const graph::Model m = graph::make_resnet50(512);
  const KarmaPlanner planner(m, sim::v100_abci(), search_options(4));
  const PlanResult a = planner.plan();
  const PlanResult b = planner.plan();
  expect_results_identical(a, b, "two 4-worker runs");
  EXPECT_EQ(a.search.anneal_workers, 4);
}

TEST(PortfolioSearch, ReferenceEngineLoopPlansBitIdentically) {
  // The replay-path switch must never shift the search: a planner on the
  // seed event loop — bench/fig_search.cpp's baseline leg — lands on the
  // bit-identical plan the default configuration finds.
  const graph::Model m = graph::make_resnet50(512);
  PlannerOptions baseline = search_options(1);
  baseline.reference_engine_loop = true;
  const PlanResult a =
      KarmaPlanner(m, sim::v100_abci(), baseline).plan();
  const PlanResult b =
      KarmaPlanner(m, sim::v100_abci(), search_options(1)).plan();
  expect_results_identical(a, b, "reference loop vs indexed loop");
}

TEST(PortfolioSearch, NWorkersNeverWorseThanOne) {
  // The 1-worker walk is one of the portfolio's diversification rungs in
  // budget terms, not a strict subset — so the N-worker result may DIFFER
  // from the serial one, but the documented contract is it never loses:
  // more diversified walks over the same shared memo can only add
  // candidates to the reduction.
  for (std::int64_t batch : {384, 512}) {
    const graph::Model m = graph::make_resnet50(batch);
    const PlanResult one =
        KarmaPlanner(m, sim::v100_abci(), search_options(1)).plan();
    const PlanResult four =
        KarmaPlanner(m, sim::v100_abci(), search_options(4)).plan();
    EXPECT_LE(four.iteration_time, one.iteration_time * (1.0 + 1e-9))
        << "batch " << batch;
  }
}

TEST(PortfolioSearch, WarmStartNeverWorseThanSeed) {
  const graph::Model m = graph::make_resnet50(512);
  const KarmaPlanner planner(m, sim::v100_abci(), search_options(4));
  const PlanResult cold = planner.plan();
  const PlanResult repaired = planner.plan_from(cold.blocks, cold.policies);
  EXPECT_TRUE(repaired.search.warm_started);
  // Warm start must not land anywhere worse than the seed it was given.
  EXPECT_LE(repaired.iteration_time, cold.iteration_time * (1.0 + 1e-9));
}

TEST(PortfolioSearch, ResultTraceIsColdReplay) {
  // The trace a search hands back is the one callers read makespans,
  // stalls and peaks from; it must be exactly what a fresh engine replay
  // of the returned plan produces, whichever entry point and worker
  // count found it.
  const sim::DeviceSpec d = sim::v100_abci();
  for (const graph::Model& m :
       {graph::make_resnet50(512), graph::make_unet(24)}) {
    for (const int workers : {1, 4}) {
      const KarmaPlanner planner(m, d, search_options(workers));
      const PlanResult cold = planner.plan();
      const PlanResult warm = planner.plan_from(cold.blocks, cold.policies);
      const std::string what =
          m.name() + " workers=" + std::to_string(workers);
      expect_traces_identical(cold.trace, sim::Engine(d).run(cold.plan),
                              what + " plan");
      expect_traces_identical(warm.trace, sim::Engine(d).run(warm.plan),
                              what + " plan_from");
      EXPECT_EQ(cold.iteration_time, cold.trace.makespan) << what;
      EXPECT_EQ(warm.iteration_time, warm.trace.makespan) << what;
    }
  }
}

}  // namespace
}  // namespace karma
