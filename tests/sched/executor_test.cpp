#include "sched/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>

#include "sched/evaluators.h"
#include "testing/fixtures.h"

namespace metadock::sched {
namespace {

using testing::paper_problem;
using testing::tiny_problem;

meta::MetaheuristicParams tiny_params() {
  meta::MetaheuristicParams p = meta::m3_scatter_light();
  p.population_per_spot = 8;
  p.generations = 2;
  return p;
}

ExecutorOptions with(Strategy s) {
  ExecutorOptions o;
  o.strategy = s;
  return o;
}

TEST(Executor, CpuStrategyRunsAndTimes) {
  NodeExecutor exec(hertz(), with(Strategy::kCpu));
  const ExecutionReport r = exec.run(tiny_problem(), tiny_params());
  EXPECT_GT(r.makespan_seconds, 0.0);
  EXPECT_EQ(r.devices.size(), 1u);
  EXPECT_EQ(r.result.spot_results.size(), tiny_problem().spots.size());
  EXPECT_DOUBLE_EQ(r.warmup_seconds, 0.0);
}

TEST(Executor, BatchedSimdRunsOrIsRefused) {
  // An explicit batched-simd request runs the AVX2 kernel or fails at
  // construction; it never falls back to the scalar kernel.
  const bool avx2 = scoring::simd_kernel_supported();
  const scoring::LennardJonesScorer scorer(*tiny_problem().receptor, *tiny_problem().ligand);
  if (avx2) {
    EXPECT_NO_THROW(CpuModelEvaluator(hertz().cpu, scorer, scoring::ScoringImpl::kBatchedSimd));
  } else {
    EXPECT_THROW(CpuModelEvaluator(hertz().cpu, scorer, scoring::ScoringImpl::kBatchedSimd),
                 std::invalid_argument);
  }
  for (const Strategy s : {Strategy::kCpu, Strategy::kHeterogeneous}) {
    ExecutorOptions o = with(s);
    o.kernel.impl = scoring::ScoringImpl::kBatchedSimd;
    NodeExecutor exec(hertz(), o);
    if (avx2) {
      EXPECT_NO_THROW((void)exec.run(tiny_problem(), tiny_params())) << strategy_name(s);
    } else {
      EXPECT_THROW((void)exec.run(tiny_problem(), tiny_params()), std::invalid_argument)
          << strategy_name(s);
    }
  }
}

TEST(Executor, AllStrategiesProduceIdenticalScience) {
  // Who computes a conformation's score must not affect the score — the
  // guarantee that makes the heterogeneous split legitimate.
  std::map<int, double> reference;
  for (const Strategy s : {Strategy::kCpu, Strategy::kHomogeneous, Strategy::kHeterogeneous,
                           Strategy::kCooperative}) {
    NodeExecutor exec(hertz(), with(s));
    const ExecutionReport r = exec.run(tiny_problem(), tiny_params());
    if (reference.empty()) {
      for (const auto& sr : r.result.spot_results) reference[sr.spot_id] = sr.best.score;
    } else {
      ASSERT_EQ(r.result.spot_results.size(), reference.size());
      for (const auto& sr : r.result.spot_results) {
        EXPECT_DOUBLE_EQ(sr.best.score, reference[sr.spot_id])
            << "strategy " << strategy_name(s) << " spot " << sr.spot_id;
      }
    }
  }
}

TEST(Executor, HeterogeneousBeatsHomogeneousOnHertz) {
  // Kepler vs Fermi: the paper reports 1.31-1.56x at paper scale.
  NodeExecutor hom(hertz(), with(Strategy::kHomogeneous));
  NodeExecutor het(hertz(), with(Strategy::kHeterogeneous));
  const double t_hom = hom.estimate(paper_problem(), meta::m1_genetic()).makespan_seconds;
  const double t_het = het.estimate(paper_problem(), meta::m1_genetic()).makespan_seconds;
  EXPECT_GT(t_hom / t_het, 1.3);
  EXPECT_LT(t_hom / t_het, 1.7);
}

TEST(Executor, HeterogeneousIsNearNeutralOnJupiter) {
  // Near-identical Fermi cards: the paper reports only 1.01-1.06x.
  NodeExecutor hom(jupiter(), with(Strategy::kHomogeneous));
  NodeExecutor het(jupiter(), with(Strategy::kHeterogeneous));
  const double t_hom = hom.estimate(paper_problem(), meta::m1_genetic()).makespan_seconds;
  const double t_het = het.estimate(paper_problem(), meta::m1_genetic()).makespan_seconds;
  EXPECT_GT(t_hom / t_het, 0.98);
  EXPECT_LT(t_hom / t_het, 1.10);
}

TEST(Executor, Eq1AbsorbsASlowMicDevice) {
  // Future-work node: adding a Xeon Phi slows the equal split down to the
  // Phi's pace, while the heterogeneous split gives it a small share and
  // still improves on plain Hertz.
  NodeExecutor hom(hertz_with_phi(), with(Strategy::kHomogeneous));
  NodeExecutor het(hertz_with_phi(), with(Strategy::kHeterogeneous));
  NodeExecutor het_plain(hertz(), with(Strategy::kHeterogeneous));
  const double t_hom = hom.estimate(paper_problem(), meta::m1_genetic()).makespan_seconds;
  const double t_het = het.estimate(paper_problem(), meta::m1_genetic()).makespan_seconds;
  const double t_plain =
      het_plain.estimate(paper_problem(), meta::m1_genetic()).makespan_seconds;
  EXPECT_GT(t_hom / t_het, 2.5);   // equal split is crippled by the Phi
  EXPECT_LT(t_het, t_plain * 1.1); // het split at least keeps pace
}

TEST(Executor, GpuStrategiesBeatCpuByWideMargin) {
  NodeExecutor cpu(jupiter(), with(Strategy::kCpu));
  NodeExecutor gpu(jupiter(), with(Strategy::kHeterogeneous));
  const double t_cpu = cpu.estimate(paper_problem(), meta::m1_genetic()).makespan_seconds;
  const double t_gpu = gpu.estimate(paper_problem(), meta::m1_genetic()).makespan_seconds;
  EXPECT_GT(t_cpu / t_gpu, 40.0);
}

TEST(Executor, WarmupMeasuresPercentPerEq1) {
  NodeExecutor het(hertz(), with(Strategy::kHeterogeneous));
  const ExecutionReport r = het.estimate(paper_problem(), tiny_params());
  ASSERT_EQ(r.devices.size(), 2u);
  // GTX 580 is the slowest -> Percent = 1; K40c roughly twice as fast.
  EXPECT_DOUBLE_EQ(r.devices[1].percent, 1.0);
  EXPECT_LT(r.devices[0].percent, 0.6);
  EXPECT_GT(r.warmup_seconds, 0.0);
}

TEST(Executor, HeterogeneousSharesFollowSpeed) {
  NodeExecutor het(hertz(), with(Strategy::kHeterogeneous));
  const ExecutionReport r = het.estimate(paper_problem(), tiny_params());
  EXPECT_GT(r.devices[0].share, 0.60);  // K40c takes about 2/3
  EXPECT_NEAR(r.devices[0].share + r.devices[1].share, 1.0, 1e-9);
}

TEST(Executor, HomogeneousSplitsEqually) {
  NodeExecutor hom(jupiter(), with(Strategy::kHomogeneous));
  const ExecutionReport r = hom.estimate(paper_problem(), tiny_params());
  for (const DeviceReport& d : r.devices) {
    EXPECT_NEAR(d.share, 1.0 / 6.0, 0.02);
  }
}

TEST(Executor, EstimateMatchesRealRunTiming) {
  // run() and estimate() must account identical virtual time: the replay
  // is the same schedule through the same models.
  NodeExecutor a(hertz(), with(Strategy::kHomogeneous));
  NodeExecutor b(hertz(), with(Strategy::kHomogeneous));
  const double t_run = a.run(tiny_problem(), tiny_params()).makespan_seconds;
  const double t_est = b.estimate(tiny_problem(), tiny_params()).makespan_seconds;
  EXPECT_NEAR(t_run, t_est, 1e-9 + 1e-6 * t_run);
}

TEST(Executor, EstimateMatchesRealRunTimingHeterogeneous) {
  NodeExecutor a(hertz(), with(Strategy::kHeterogeneous));
  NodeExecutor b(hertz(), with(Strategy::kHeterogeneous));
  const double t_run = a.run(tiny_problem(), tiny_params()).makespan_seconds;
  const double t_est = b.estimate(tiny_problem(), tiny_params()).makespan_seconds;
  EXPECT_NEAR(t_run, t_est, 1e-9 + 1e-6 * t_run);
}

TEST(Executor, CooperativeBalancesWithoutWarmup) {
  NodeExecutor coop(hertz(), with(Strategy::kCooperative));
  const ExecutionReport r = coop.estimate(paper_problem(), meta::m1_genetic());
  EXPECT_DOUBLE_EQ(r.warmup_seconds, 0.0);
  // Dynamic pulls land close to the heterogeneous static split, paying a
  // modest dispatch overhead but saving the warm-up phase.
  NodeExecutor het(hertz(), with(Strategy::kHeterogeneous));
  const double t_het = het.estimate(paper_problem(), meta::m1_genetic()).makespan_seconds;
  EXPECT_LT(r.makespan_seconds, 1.25 * t_het);
  // And the fast device pulled more work.
  EXPECT_GT(r.devices[0].share, 0.55);
}

TEST(Executor, EnergyIsPositiveAndSummed) {
  NodeExecutor exec(hertz(), with(Strategy::kHomogeneous));
  const ExecutionReport r = exec.estimate(tiny_problem(), tiny_params());
  double sum = 0.0;
  for (const DeviceReport& d : r.devices) sum += d.energy_joules;
  EXPECT_NEAR(r.energy_joules, sum, 1e-9);
  EXPECT_GT(r.energy_joules, 0.0);
}

TEST(Executor, SpotOverrideScalesWork) {
  // Use an M1-style workload (large combine batches): those stay in the
  // occupancy-saturated regime where time is linear in spots.  (M3's small
  // improve batches are occupancy-bound, where doubling the spots improves
  // GPU utilization instead of doubling the time — also physical.)
  meta::MetaheuristicParams p = meta::m1_genetic();
  p.generations = 4;
  NodeExecutor a(hertz(), with(Strategy::kHomogeneous));
  NodeExecutor b(hertz(), with(Strategy::kHomogeneous));
  const double t1 = a.estimate(paper_problem(), p, 60).makespan_seconds;
  const double t2 = b.estimate(paper_problem(), p, 120).makespan_seconds;
  EXPECT_GT(t2, 1.7 * t1);
}

TEST(Executor, GpuStrategyWithoutGpusThrows) {
  NodeConfig n = hertz();
  n.gpus.clear();
  EXPECT_THROW(NodeExecutor(n, with(Strategy::kHomogeneous)), std::invalid_argument);
}

TEST(Executor, BadOptionsThrow) {
  ExecutorOptions o;
  o.warmup_iterations = 0;
  EXPECT_THROW(NodeExecutor(hertz(), o), std::invalid_argument);
  o = ExecutorOptions{};
  o.chunk_blocks = 0;
  EXPECT_THROW(NodeExecutor(hertz(), o), std::invalid_argument);
}

TEST(Executor, StrategyNamesAreStable) {
  EXPECT_EQ(strategy_name(Strategy::kCpu), "OpenMP-CPU");
  EXPECT_EQ(strategy_name(Strategy::kHomogeneous), "homogeneous");
  EXPECT_EQ(strategy_name(Strategy::kHeterogeneous), "heterogeneous");
  EXPECT_EQ(strategy_name(Strategy::kCooperative), "cooperative");
}

}  // namespace
}  // namespace metadock::sched
