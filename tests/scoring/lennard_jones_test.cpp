#include "scoring/lennard_jones.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "mol/synth.h"
#include "scoring/batch_engine.h"
#include "util/rng.h"

namespace metadock::scoring {
namespace {

mol::Molecule single_atom(mol::Element e, const geom::Vec3& at) {
  mol::Molecule m("one");
  m.add_atom(e, at);
  return m;
}

Pose random_pose(util::Xoshiro256& rng, float extent = 15.0f) {
  Pose p;
  p.position = {static_cast<float>(rng.uniform(-extent, extent)),
                static_cast<float>(rng.uniform(-extent, extent)),
                static_cast<float>(rng.uniform(-extent, extent))};
  p.orientation = geom::random_quat(rng.uniformf(), rng.uniformf(), rng.uniformf());
  return p;
}

/// The batched engine on its portable scalar kernel: the production host
/// path the reference score() is the oracle for.
BatchScoringEngine scalar_engine(const LennardJonesScorer& scorer) {
  BatchEngineOptions opt;
  opt.simd = SimdLevel::kScalar;
  return BatchScoringEngine(scorer, opt);
}

TEST(LennardJones, TwoAtomEnergyMatchesClosedForm) {
  const mol::Molecule receptor = single_atom(mol::Element::kC, {0, 0, 0});
  const mol::Molecule ligand = single_atom(mol::Element::kC, {0, 0, 0});
  const LennardJonesScorer scorer(receptor, ligand);
  const double rmin = 2.0 * mol::lj_params(mol::Element::kC).rmin_half;
  const double eps = mol::lj_params(mol::Element::kC).epsilon;

  Pose pose;
  pose.position = {static_cast<float>(rmin), 0, 0};
  // At the minimum distance the energy is -epsilon.
  EXPECT_NEAR(scorer.score(pose), -eps, 1e-3);

  pose.position = {static_cast<float>(2.0 * rmin), 0, 0};
  // Far side of the well: small negative.
  EXPECT_LT(scorer.score(pose), 0.0);
  EXPECT_GT(scorer.score(pose), -eps);
}

TEST(LennardJones, ClashIsStronglyRepulsive) {
  const mol::Molecule receptor = single_atom(mol::Element::kC, {0, 0, 0});
  const mol::Molecule ligand = single_atom(mol::Element::kC, {0, 0, 0});
  const LennardJonesScorer scorer(receptor, ligand);
  Pose pose;
  pose.position = {0.5f, 0, 0};
  EXPECT_GT(scorer.score(pose), 100.0);
}

TEST(LennardJones, OverlappingAtomsAreFiniteViaClamp) {
  const mol::Molecule receptor = single_atom(mol::Element::kO, {0, 0, 0});
  const mol::Molecule ligand = single_atom(mol::Element::kO, {0, 0, 0});
  const LennardJonesScorer scorer(receptor, ligand);
  Pose pose;  // exactly on top
  const double e = scorer.score(pose);
  EXPECT_TRUE(std::isfinite(e));
  EXPECT_GT(e, 0.0);
}

TEST(LennardJones, FarLigandHasNegligibleEnergy) {
  const mol::Molecule receptor = single_atom(mol::Element::kC, {0, 0, 0});
  const mol::Molecule ligand = single_atom(mol::Element::kC, {0, 0, 0});
  const LennardJonesScorer scorer(receptor, ligand);
  Pose pose;
  pose.position = {200.0f, 0, 0};
  EXPECT_NEAR(scorer.score(pose), 0.0, 1e-6);
}

TEST(LennardJones, RotationAboutOwnAxisOfSymmetricLigandIsInvariant) {
  // A single-atom ligand is rotation invariant: orientation must not matter.
  const mol::Molecule receptor = single_atom(mol::Element::kN, {1, 2, 3});
  const mol::Molecule ligand = single_atom(mol::Element::kO, {0, 0, 0});
  const LennardJonesScorer scorer(receptor, ligand);
  util::Xoshiro256 rng(3);
  Pose a, b;
  a.position = b.position = {4, 5, 6};
  b.orientation = geom::random_quat(rng.uniformf(), rng.uniformf(), rng.uniformf());
  EXPECT_NEAR(scorer.score(a), scorer.score(b), 1e-9);
}

TEST(LennardJones, ThrowsOnEmptyMolecules) {
  const mol::Molecule receptor = single_atom(mol::Element::kC, {0, 0, 0});
  const mol::Molecule empty;
  EXPECT_THROW(LennardJonesScorer(empty, receptor), std::invalid_argument);
  EXPECT_THROW(LennardJonesScorer(receptor, empty), std::invalid_argument);
}

TEST(LennardJones, ThrowsOnBadTileSize) {
  const mol::Molecule m = single_atom(mol::Element::kC, {0, 0, 0});
  ScoringOptions opt;
  opt.tile_size = 0;
  EXPECT_THROW(LennardJonesScorer(m, m, opt), std::invalid_argument);
}

TEST(LennardJones, ThrowsOnBadCutoff) {
  const mol::Molecule m = single_atom(mol::Element::kC, {0, 0, 0});
  ScoringOptions opt;
  // A negative cutoff must not act as its absolute value, and NaN must not
  // make the reference loop drop every pair while the kernels sum them all.
  for (float cutoff : {-8.0f, std::nanf("")}) {
    opt.cutoff = cutoff;
    EXPECT_THROW(LennardJonesScorer(m, m, opt), std::invalid_argument) << cutoff;
  }
}

TEST(LennardJones, CutoffDropsDistantPairs) {
  const mol::Molecule receptor = single_atom(mol::Element::kC, {0, 0, 0});
  const mol::Molecule ligand = single_atom(mol::Element::kC, {0, 0, 0});
  ScoringOptions opt;
  opt.cutoff = 8.0f;
  const LennardJonesScorer cut(receptor, ligand, opt);
  const LennardJonesScorer full(receptor, ligand);
  Pose near_pose, far_pose;
  near_pose.position = {4.0f, 0, 0};
  far_pose.position = {9.0f, 0, 0};
  // Inside the cutoff both agree; beyond it the cutoff scorer sees nothing.
  EXPECT_NEAR(cut.score(near_pose), full.score(near_pose), 1e-9);
  EXPECT_DOUBLE_EQ(cut.score(far_pose), 0.0);
  EXPECT_LT(full.score(far_pose), 0.0);
}

TEST(LennardJones, CutoffConsistentBetweenPaths) {
  mol::ReceptorParams rp;
  rp.atom_count = 200;
  const mol::Molecule receptor = mol::make_receptor(rp);
  mol::LigandParams lp;
  lp.atom_count = 9;
  const mol::Molecule ligand = mol::make_ligand(lp);
  ScoringOptions opt;
  opt.cutoff = 6.0f;
  const LennardJonesScorer scorer(receptor, ligand, opt);
  util::Xoshiro256 rng(21);
  for (int i = 0; i < 10; ++i) {
    const Pose pose = random_pose(rng);
    const double ref = scorer.score(pose);
    EXPECT_NEAR(scalar_engine(scorer).score(pose), ref, 1e-5 * (1.0 + std::abs(ref)));
  }
}

TEST(LennardJones, BatchMatchesIndividualScores) {
  mol::ReceptorParams rp;
  rp.atom_count = 150;
  const mol::Molecule receptor = mol::make_receptor(rp);
  mol::LigandParams lp;
  lp.atom_count = 12;
  const mol::Molecule ligand = mol::make_ligand(lp);
  const LennardJonesScorer scorer(receptor, ligand);

  util::Xoshiro256 rng(5);
  std::vector<Pose> poses;
  for (int i = 0; i < 20; ++i) poses.push_back(random_pose(rng));
  std::vector<double> batch(poses.size());
  const BatchScoringEngine engine = scalar_engine(scorer);
  engine.score_batch(poses, batch);
  for (std::size_t i = 0; i < poses.size(); ++i) {
    const double ref = scorer.score(poses[i]);
    EXPECT_NEAR(batch[i], ref, 1e-5 * (1.0 + std::abs(ref))) << i;
  }
}

TEST(LennardJones, BatchSizeMismatchThrows) {
  const mol::Molecule m = single_atom(mol::Element::kC, {0, 0, 0});
  const LennardJonesScorer scorer(m, m);
  std::vector<Pose> poses(3);
  std::vector<double> out(2);
  EXPECT_THROW(scalar_engine(scorer).score_batch(poses, out), std::invalid_argument);
}

TEST(LennardJones, PairsPerEvalIsProduct) {
  mol::ReceptorParams rp;
  rp.atom_count = 100;
  mol::LigandParams lp;
  lp.atom_count = 10;
  const LennardJonesScorer scorer(mol::make_receptor(rp), mol::make_ligand(lp));
  EXPECT_EQ(scorer.pairs_per_eval(), 1000u);
}

// Property sweep: the batched engine, whose lane-padded receptor layout is
// tiled by ScoringOptions::tile_size, agrees with the reference path for
// every tile size and pose.
class TiledAgreement : public ::testing::TestWithParam<int> {};

TEST_P(TiledAgreement, TiledEqualsReference) {
  const int tile = GetParam();
  mol::ReceptorParams rp;
  rp.atom_count = 333;  // not a multiple of any tile size: exercises tails
  const mol::Molecule receptor = mol::make_receptor(rp);
  mol::LigandParams lp;
  lp.atom_count = 17;
  const mol::Molecule ligand = mol::make_ligand(lp);

  ScoringOptions opt;
  opt.tile_size = tile;
  const LennardJonesScorer scorer(receptor, ligand, opt);

  util::Xoshiro256 rng(7);
  for (int i = 0; i < 25; ++i) {
    const Pose pose = random_pose(rng, 25.0f);
    const double ref = scorer.score(pose);
    const double tiled = scalar_engine(scorer).score(pose);
    // score() sums in its own order: they agree up to re-association.
    EXPECT_NEAR(tiled, ref, 1e-5 * (1.0 + std::abs(ref))) << "pose " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(TileSweep, TiledAgreement, ::testing::Values(1, 7, 64, 256, 1024));

}  // namespace
}  // namespace metadock::scoring
