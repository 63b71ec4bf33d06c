#include "scoring/grid_scorer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mol/synth.h"
#include "util/rng.h"
#include "util/stats.h"

namespace metadock::scoring {
namespace {

struct Fixture {
  mol::Molecule receptor;
  mol::Molecule ligand;

  Fixture() {
    mol::ReceptorParams rp;
    rp.atom_count = 250;
    rp.seed = 77;
    receptor = mol::make_receptor(rp);
    mol::LigandParams lp;
    lp.atom_count = 12;
    lp.seed = 78;
    ligand = mol::make_ligand(lp);
  }
};

TEST(GridScorer, RejectsBadInputs) {
  Fixture f;
  const mol::Molecule empty;
  EXPECT_THROW(GridScorer(empty, f.ligand), std::invalid_argument);
  EXPECT_THROW(GridScorer(f.receptor, empty), std::invalid_argument);
  GridScorerOptions opt;
  opt.spacing = 0.0f;
  EXPECT_THROW(GridScorer(f.receptor, f.ligand, opt), std::invalid_argument);
  // NaN passes a `<= 0` test; it would reach the lattice-size cast.
  const float nan = std::nanf("");
  GridScorerOptions nan_spacing, nan_cutoff, nan_padding;
  nan_spacing.spacing = nan;
  nan_cutoff.cutoff = nan;
  nan_padding.padding = nan;
  EXPECT_THROW(GridScorer(f.receptor, f.ligand, nan_spacing), std::invalid_argument);
  EXPECT_THROW(GridScorer(f.receptor, f.ligand, nan_cutoff), std::invalid_argument);
  EXPECT_THROW(GridScorer(f.receptor, f.ligand, nan_padding), std::invalid_argument);
}

TEST(GridScorer, BuildsOneGridPerLigandElement) {
  Fixture f;
  const GridScorer grid(f.receptor, f.ligand);
  // Synthetic ligands contain C/N/O heavy atoms plus hydrogens.
  EXPECT_GE(grid.grids_built(), 2u);
  EXPECT_LE(grid.grids_built(), 4u);
  EXPECT_GT(grid.grid_points(), 1000u);
  EXPECT_GT(grid.payload_bytes(), 0u);
}

TEST(GridScorer, NodeValueMatchesDirectProbeEnergy) {
  // The lattice stores the exact cutoff-limited probe energy: compare one
  // node against a single-atom "ligand" scored by the direct path with the
  // same cutoff applied manually.
  Fixture f;
  GridScorerOptions opt;
  opt.cutoff = 8.0f;
  const GridScorer grid(f.receptor, f.ligand, opt);

  // Probe element C at a node near the box center.
  const geom::Vec3 lo = grid.box().lo;
  const int ix = 10, iy = 12, iz = 9;
  const geom::Vec3 p{lo.x + 10 * opt.spacing, lo.y + 12 * opt.spacing,
                     lo.z + 9 * opt.spacing};
  double expected = 0.0;
  const PairTable& table = PairTable::instance();
  for (std::size_t i = 0; i < f.receptor.size(); ++i) {
    const float r2 = std::max(p.distance2(f.receptor.position(i)), 0.01f);
    if (r2 > opt.cutoff * opt.cutoff) continue;
    const float inv2 = 1.0f / r2;
    const float inv6 = inv2 * inv2 * inv2;
    const PairCoeff& c = table.get(mol::Element::kC, f.receptor.element(i));
    expected += (c.a * inv6 - c.b) * inv6;
  }
  EXPECT_NEAR(grid.node_value(mol::Element::kC, ix, iy, iz), expected,
              1e-4 * (1.0 + std::abs(expected)));
}

TEST(GridScorer, TracksCutoffMatchedDirectScoring) {
  // Compare against the direct pair sum with the *same* cutoff, so the only
  // discrepancy is trilinear interpolation.  Sampled over surface poses,
  // grid and direct energies must be strongly correlated and close in the
  // smooth attractive region.
  Fixture f;
  GridScorerOptions gopt;
  ScoringOptions dopt;
  dopt.cutoff = gopt.cutoff;
  const LennardJonesScorer direct(f.receptor, f.ligand, dopt);
  const GridScorer grid(f.receptor, f.ligand, gopt);
  util::Xoshiro256 rng(5);
  const float r = f.receptor.radius_about_centroid() + 3.0f;

  std::vector<double> ds, gs;
  util::StatAccumulator rel_err;
  for (int i = 0; i < 300 && ds.size() < 40; ++i) {
    Pose pose;
    const geom::Vec3 dir{static_cast<float>(rng.normal()), static_cast<float>(rng.normal()),
                         static_cast<float>(rng.normal())};
    pose.position = dir.normalized() * r;
    pose.orientation = geom::random_quat(rng.uniformf(), rng.uniformf(), rng.uniformf());
    const double d = direct.score(pose);
    if (d > -0.5 || d < -100.0) continue;  // keep smooth attractive poses
    const double g = grid.score(pose);
    ds.push_back(d);
    gs.push_back(g);
    rel_err.add(std::abs(g - d) / std::abs(d));
  }
  ASSERT_GT(ds.size(), 10u);
  EXPECT_LT(rel_err.mean(), 0.20);

  // Pearson correlation between the two scorers.
  util::StatAccumulator sd, sg;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    sd.add(ds[i]);
    sg.add(gs[i]);
  }
  double cov = 0.0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    cov += (ds[i] - sd.mean()) * (gs[i] - sg.mean());
  }
  cov /= static_cast<double>(ds.size() - 1);
  EXPECT_GT(cov / (sd.stddev() * sg.stddev()), 0.93);
}

TEST(GridScorer, OutOfBoxPosesArePenalized) {
  Fixture f;
  const GridScorer grid(f.receptor, f.ligand);
  Pose far_away;
  far_away.position = {500.0f, 0.0f, 0.0f};
  EXPECT_GE(grid.score(far_away),
            grid.options().out_of_box_penalty * 0.5 * static_cast<double>(f.ligand.size()));
}

TEST(GridScorer, BatchMatchesSingle) {
  Fixture f;
  const GridScorer grid(f.receptor, f.ligand);
  util::Xoshiro256 rng(9);
  std::vector<Pose> poses(10);
  for (auto& p : poses) {
    p.position = {static_cast<float>(rng.uniform(-10, 10)),
                  static_cast<float>(rng.uniform(-10, 10)),
                  static_cast<float>(rng.uniform(-10, 10))};
  }
  std::vector<double> out(poses.size());
  grid.score_batch(poses, out);
  for (std::size_t i = 0; i < poses.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], grid.score(poses[i]));
  }
}

TEST(GridScorer, BatchSizeMismatchThrows) {
  Fixture f;
  const GridScorer grid(f.receptor, f.ligand);
  std::vector<Pose> poses(3);
  std::vector<double> out(4);
  EXPECT_THROW(grid.score_batch(poses, out), std::invalid_argument);
}

TEST(GridScorer, FinerSpacingReducesError) {
  Fixture f;
  const LennardJonesScorer direct(f.receptor, f.ligand);
  GridScorerOptions coarse, fine;
  coarse.spacing = 1.5f;
  fine.spacing = 0.5f;
  const GridScorer gc(f.receptor, f.ligand, coarse);
  const GridScorer gf(f.receptor, f.ligand, fine);

  util::Xoshiro256 rng(11);
  const float r = f.receptor.radius_about_centroid() + 3.0f;
  double err_c = 0.0, err_f = 0.0;
  int n = 0;
  for (int i = 0; i < 100 && n < 20; ++i) {
    Pose pose;
    const geom::Vec3 dir{static_cast<float>(rng.normal()), static_cast<float>(rng.normal()),
                         static_cast<float>(rng.normal())};
    pose.position = dir.normalized() * r;
    const double d = direct.score(pose);
    if (d > -0.5 || d < -100.0) continue;
    err_c += std::abs(gc.score(pose) - d);
    err_f += std::abs(gf.score(pose) - d);
    ++n;
  }
  ASSERT_GT(n, 5);
  EXPECT_LT(err_f, err_c);
}

TEST(GridScorer, NodeValueValidation) {
  Fixture f;
  const GridScorer grid(f.receptor, f.ligand);
  EXPECT_THROW((void)grid.node_value(mol::Element::kBr, 0, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)grid.node_value(mol::Element::kC, -1, 0, 0), std::out_of_range);
  EXPECT_THROW((void)grid.node_value(mol::Element::kC, 100000, 0, 0), std::out_of_range);
}

}  // namespace
}  // namespace metadock::scoring
