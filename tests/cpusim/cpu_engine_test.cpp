#include "cpusim/cpu_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "mol/synth.h"
#include "scoring/batch_engine.h"
#include "util/rng.h"

namespace metadock::cpusim {
namespace {

struct Fixture {
  mol::Molecule receptor;
  mol::Molecule ligand;
  scoring::LennardJonesScorer scorer;

  Fixture()
      : receptor([] {
          mol::ReceptorParams p;
          p.atom_count = 150;
          return mol::make_receptor(p);
        }()),
        ligand([] {
          mol::LigandParams p;
          p.atom_count = 10;
          return mol::make_ligand(p);
        }()),
        scorer(receptor, ligand) {}
};

std::vector<scoring::Pose> random_poses(std::size_t n) {
  util::Xoshiro256 rng(23);
  std::vector<scoring::Pose> poses(n);
  for (auto& p : poses) {
    p.position = {static_cast<float>(rng.uniform(-8, 8)),
                  static_cast<float>(rng.uniform(-8, 8)),
                  static_cast<float>(rng.uniform(-8, 8))};
    p.orientation = geom::random_quat(rng.uniformf(), rng.uniformf(), rng.uniformf());
  }
  return poses;
}

TEST(CpuEngine, ScoresMatchDirectScorer) {
  Fixture f;
  CpuScoringEngine engine(xeon_e3_1220(), f.scorer);
  const auto poses = random_poses(25);
  std::vector<double> out(poses.size());
  engine.score(scoring::PoseBatch::real(poses, out));
  // The default impl is the batched engine: bit-exact against it, and
  // within FP-association distance of the reference loop.
  const scoring::BatchScoringEngine batched(f.scorer);
  for (std::size_t i = 0; i < poses.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], batched.score(poses[i])) << i;
    const double ref = f.scorer.score(poses[i]);
    EXPECT_NEAR(out[i], ref, 1e-5 * (1.0 + std::abs(ref))) << i;
  }
}

TEST(CpuEngine, ScoresEqualBatchEngineOnEveryKernel) {
  Fixture f;
  const auto poses = random_poses(25);
  CpuScoringEngine engine(xeon_e3_1220(), f.scorer);
  std::vector<double> out(poses.size());
  engine.score(scoring::PoseBatch::real(poses, out));
  // Both kernels compute one evaluation order, so the engine's scores do
  // not depend on which kernel this host runs.
  for (const auto simd : {scoring::SimdLevel::kScalar, scoring::SimdLevel::kAvx2}) {
    if (!scoring::simd_level_supported(simd)) continue;
    scoring::BatchEngineOptions be;
    be.simd = simd;
    const scoring::BatchScoringEngine batched(f.scorer, be);
    for (std::size_t i = 0; i < poses.size(); ++i) {
      EXPECT_EQ(out[i], batched.score(poses[i])) << scoring::simd_level_name(simd) << " " << i;
    }
  }
}

TEST(CpuEngine, VirtualTimeAdvancesWithWork) {
  Fixture f;
  CpuScoringEngine engine(xeon_e3_1220(), f.scorer);
  engine.score(scoring::PoseBatch::cost_only(100));
  const double t1 = engine.busy_seconds();
  EXPECT_GT(t1, 0.0);
  engine.score(scoring::PoseBatch::cost_only(100));
  EXPECT_NEAR(engine.busy_seconds(), 2.0 * t1, 1e-9);
}

TEST(CpuEngine, RealAndCostOnlyAgree) {
  Fixture f;
  CpuScoringEngine real(xeon_e3_1220(), f.scorer);
  CpuScoringEngine cost(xeon_e3_1220(), f.scorer);
  const auto poses = random_poses(64);
  std::vector<double> out(poses.size());
  real.score(scoring::PoseBatch::real(poses, out));
  cost.score(scoring::PoseBatch::cost_only(poses.size()));
  EXPECT_DOUBLE_EQ(real.busy_seconds(), cost.busy_seconds());
}

TEST(CpuEngine, FasterCpuIsFaster) {
  Fixture f;
  CpuScoringEngine big(xeon_e5_2620_dual(), f.scorer);
  CpuScoringEngine small(xeon_e3_1220(), f.scorer);
  big.score(scoring::PoseBatch::cost_only(1000));
  small.score(scoring::PoseBatch::cost_only(1000));
  EXPECT_LT(big.busy_seconds(), small.busy_seconds());
}

TEST(CpuEngine, EnergyIsTdpTimesTime) {
  Fixture f;
  CpuScoringEngine engine(xeon_e3_1220(), f.scorer);
  engine.score(scoring::PoseBatch::cost_only(500));
  EXPECT_NEAR(engine.energy_joules(), engine.spec().tdp_watts * engine.busy_seconds(), 1e-9);
}

TEST(CpuEngine, ResetClearsClock) {
  Fixture f;
  CpuScoringEngine engine(xeon_e3_1220(), f.scorer);
  engine.score(scoring::PoseBatch::cost_only(10));
  engine.reset();
  EXPECT_DOUBLE_EQ(engine.busy_seconds(), 0.0);
}

TEST(CpuEngine, SizeMismatchThrows) {
  Fixture f;
  CpuScoringEngine engine(xeon_e3_1220(), f.scorer);
  const auto poses = random_poses(4);
  std::vector<double> out(5);
  EXPECT_THROW(engine.score(scoring::PoseBatch::real(poses, out)), std::invalid_argument);
}

}  // namespace
}  // namespace metadock::cpusim
