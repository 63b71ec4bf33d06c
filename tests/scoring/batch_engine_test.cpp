// Property tests for the batched scoring engine: the lane-padded layout
// keeps every receptor atom in place with zero-weight padding, the scalar
// and AVX2 kernels compute bit-identical energies, and both agree with the
// reference score() up to FP association order.
#include "scoring/batch_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "mol/synth.h"
#include "scoring/pair_params.h"
#include "util/rng.h"

namespace metadock::scoring {
namespace {

mol::Molecule make_receptor(std::size_t atoms, std::uint64_t seed = 11) {
  mol::ReceptorParams p;
  p.atom_count = atoms;
  p.seed = seed;
  return mol::make_receptor(p);
}

mol::Molecule make_ligand(std::size_t atoms, std::uint64_t seed = 12) {
  mol::LigandParams p;
  p.atom_count = atoms;
  p.seed = seed;
  return mol::make_ligand(p);
}

std::vector<Pose> random_poses(std::size_t n, std::uint64_t seed = 5) {
  util::Xoshiro256 rng(seed);
  std::vector<Pose> poses(n);
  for (auto& p : poses) {
    p.position = {static_cast<float>(rng.uniform(-12, 12)),
                  static_cast<float>(rng.uniform(-12, 12)),
                  static_cast<float>(rng.uniform(-12, 12))};
    p.orientation = geom::random_quat(rng.uniformf(), rng.uniformf(), rng.uniformf());
  }
  return poses;
}

/// FP-association tolerance: the paths reorder float additions, nothing
/// else, so agreement is a few ulps of the largest partial sum.
void expect_close(double got, double ref, const char* what, std::size_t i) {
  EXPECT_NEAR(got, ref, 1e-4 * (1.0 + std::abs(ref))) << what << " pose " << i;
}

// ---------------------------------------------------------------------------
// PaddedReceptor layout

std::size_t slot_of(const PaddedReceptor& pr, std::size_t i) {
  return i / pr.tile_size * pr.tile_stride + i % pr.tile_size;
}

// Receptor and tile sizes that are not multiples of the lane width.
constexpr std::size_t kOddSizes[] = {1, 7, 9, 17, 255, 257, 333};

TEST(PaddedReceptor, TilesKeepAtomOrderAndPadEachTileToLanes) {
  const LigandAtoms ligand = LigandAtoms::from(make_ligand(13));
  for (std::size_t atoms : kOddSizes) {
    const ReceptorAtoms receptor = ReceptorAtoms::from(make_receptor(atoms));
    for (std::size_t tile : {1u, 7u, 9u, 17u, 255u, 256u, 257u, 333u, 4096u}) {
      const PaddedReceptor pr = PaddedReceptor::build(receptor, ligand, tile);
      ASSERT_EQ(pr.size(), atoms);
      ASSERT_EQ(pr.tiles(), (atoms + tile - 1) / tile);
      EXPECT_EQ(pr.tile_stride % kLanes, 0u);
      for (std::size_t t = 0; t < pr.tiles(); ++t) {
        const std::size_t real = std::min(tile, atoms - t * tile);
        EXPECT_EQ(pr.tile_length(t) % kLanes, 0u) << "tile " << tile << " t " << t;
        EXPECT_GE(pr.tile_length(t), real);
        EXPECT_LT(pr.tile_length(t), real + kLanes);
      }
      ASSERT_EQ(pr.padded_size(),
                (pr.tiles() - 1) * pr.tile_stride + pr.tile_length(pr.tiles() - 1));

      std::vector<char> real(pr.padded_size(), 0);
      for (std::size_t i = 0; i < atoms; ++i) {
        const std::size_t s = slot_of(pr, i);
        ASSERT_LT(s, pr.padded_size());
        real[s] = 1;
        EXPECT_EQ(pr.x[s], receptor.x[i]);
        EXPECT_EQ(pr.y[s], receptor.y[i]);
        EXPECT_EQ(pr.z[s], receptor.z[i]);
      }
      // Padding slots carry no LJ coefficients in any column.
      for (std::size_t s = 0; s < pr.padded_size(); ++s) {
        if (real[s] != 0) continue;
        for (std::uint32_t col : pr.column) {
          EXPECT_EQ(pr.a[col + s], 0.0f);
          EXPECT_EQ(pr.b[col + s], 0.0f);
        }
      }
    }
  }
}

TEST(PaddedReceptor, ColumnsHoldPairTableCoefficientsPerLigandElement) {
  const ReceptorAtoms receptor = ReceptorAtoms::from(make_receptor(333));
  const LigandAtoms ligand = LigandAtoms::from(make_ligand(13));
  const PaddedReceptor pr = PaddedReceptor::build(receptor, ligand, 17);
  const std::set<std::uint8_t> elements(ligand.type.begin(), ligand.type.end());
  const std::set<std::uint32_t> columns(pr.column.begin(), pr.column.end());
  // One column pair per distinct ligand element, none for the others.
  EXPECT_EQ(columns.size(), elements.size());
  EXPECT_EQ(pr.a.size(), elements.size() * pr.padded_size());
  EXPECT_EQ(pr.b.size(), pr.a.size());
  const PairTable& table = PairTable::instance();
  for (std::size_t j = 0; j < ligand.size(); ++j) {
    for (std::size_t i = 0; i < receptor.size(); ++i) {
      const PairCoeff& c = table.get(static_cast<mol::Element>(ligand.type[j]),
                                     static_cast<mol::Element>(receptor.type[i]));
      EXPECT_EQ(pr.a[pr.column[j] + slot_of(pr, i)], c.a);
      EXPECT_EQ(pr.b[pr.column[j] + slot_of(pr, i)], c.b);
    }
  }
}

TEST(PaddedReceptor, ZeroTileSizeThrows) {
  const ReceptorAtoms receptor = ReceptorAtoms::from(make_receptor(10));
  const LigandAtoms ligand = LigandAtoms::from(make_ligand(5));
  EXPECT_THROW(PaddedReceptor::build(receptor, ligand, 0), std::invalid_argument);
}

/// The engines this host can run: scalar always, AVX2 when supported.
std::vector<SimdLevel> runnable_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (simd_kernel_supported()) levels.push_back(SimdLevel::kAvx2);
  return levels;
}

BatchScoringEngine make_engine(const LennardJonesScorer& scorer, SimdLevel level) {
  BatchEngineOptions opt;
  opt.simd = level;
  return BatchScoringEngine(scorer, opt);
}

TEST(PaddedReceptor, OddReceptorAndTileSizesMatchReference) {
  const mol::Molecule lig = make_ligand(11);
  const auto poses = random_poses(9, 77);
  for (std::size_t atoms : kOddSizes) {
    const mol::Molecule rec = make_receptor(atoms);
    for (std::size_t tile : kOddSizes) {
      ScoringOptions opt;
      opt.tile_size = static_cast<int>(tile);
      const LennardJonesScorer scorer(rec, lig, opt);
      for (SimdLevel level : runnable_levels()) {
        const BatchScoringEngine engine = make_engine(scorer, level);
        std::vector<double> got(poses.size());
        engine.score_batch(poses, got);
        for (std::size_t i = 0; i < poses.size(); ++i) {
          expect_close(got[i], scorer.score(poses[i]), simd_level_name(level).data(), i);
        }
      }
    }
  }
}

TEST(PaddedReceptor, LigandElementAbsentFromReceptor) {
  // The synthetic receptor is H/C/N/O/S only; halogens and P get columns
  // that exist for this ligand alone.
  mol::Molecule lig("halogens");
  lig.add_atom(mol::Element::kBr, {0.0f, 0.0f, 0.0f});
  lig.add_atom(mol::Element::kCl, {1.8f, 0.0f, 0.0f});
  lig.add_atom(mol::Element::kF, {0.0f, 1.4f, 0.0f});
  lig.add_atom(mol::Element::kP, {0.0f, 0.0f, 1.6f});
  lig.add_atom(mol::Element::kC, {1.0f, 1.0f, 1.0f});
  const mol::Molecule rec = make_receptor(257);
  const ReceptorAtoms receptor = ReceptorAtoms::from(rec);
  for (mol::Element e : {mol::Element::kBr, mol::Element::kCl, mol::Element::kF,
                         mol::Element::kP}) {
    ASSERT_EQ(std::count(receptor.type.begin(), receptor.type.end(), static_cast<std::uint8_t>(e)),
              0);
  }
  const LennardJonesScorer scorer(rec, lig);
  const auto poses = random_poses(17, 31);
  for (SimdLevel level : runnable_levels()) {
    const BatchScoringEngine engine = make_engine(scorer, level);
    EXPECT_EQ(std::set<std::uint32_t>(engine.receptor().column.begin(),
                                      engine.receptor().column.end())
                  .size(),
              5u);
    std::vector<double> got(poses.size());
    engine.score_batch(poses, got);
    for (std::size_t i = 0; i < poses.size(); ++i) {
      expect_close(got[i], scorer.score(poses[i]), simd_level_name(level).data(), i);
    }
  }
}

TEST(PaddedReceptor, PaddingLanesAddExactlyZeroUnderCutoff) {
  // near: 5 atoms in one 8-lane tile, so 3 lanes are padding.  far: the
  // same 5 atoms plus 3 real atoms well outside the cutoff, which the
  // kernels mask to +0.  Padding must contribute exactly what masked-out
  // real pairs do, so both receptors score bit-identically.
  mol::Molecule near("near");
  near.add_atom(mol::Element::kC, {3.0f, 0.0f, 0.0f});
  near.add_atom(mol::Element::kN, {0.0f, 3.5f, 0.0f});
  near.add_atom(mol::Element::kO, {0.0f, 0.0f, -4.0f});
  near.add_atom(mol::Element::kH, {-2.5f, 1.0f, 0.0f});
  near.add_atom(mol::Element::kS, {6.0f, 6.0f, 0.0f});
  mol::Molecule far = near;
  far.set_name("far");
  far.add_atom(mol::Element::kC, {90.0f, 0.0f, 0.0f});
  far.add_atom(mol::Element::kO, {0.0f, -95.0f, 0.0f});
  far.add_atom(mol::Element::kN, {0.0f, 0.0f, 99.0f});
  const mol::Molecule lig = make_ligand(6);
  ScoringOptions opt;
  opt.cutoff = 8.0f;
  opt.tile_size = 8;
  const LennardJonesScorer near_scorer(near, lig, opt);
  const LennardJonesScorer far_scorer(far, lig, opt);
  std::vector<Pose> poses = random_poses(16, 3);
  for (Pose& p : poses) p.position = p.position * 0.1f;  // stay near the atoms
  for (SimdLevel level : runnable_levels()) {
    const BatchScoringEngine near_engine = make_engine(near_scorer, level);
    const BatchScoringEngine far_engine = make_engine(far_scorer, level);
    ASSERT_EQ(near_engine.receptor().padded_size(), kLanes);
    ASSERT_EQ(far_engine.receptor().padded_size(), kLanes);
    std::vector<double> near_e(poses.size()), far_e(poses.size());
    near_engine.score_batch(poses, near_e);
    far_engine.score_batch(poses, far_e);
    for (std::size_t i = 0; i < poses.size(); ++i) {
      EXPECT_EQ(near_e[i], far_e[i]) << simd_level_name(level) << " pose " << i;
      EXPECT_NE(near_e[i], 0.0) << "pose " << i << " must see in-cutoff pairs";
      expect_close(near_e[i], near_scorer.score(poses[i]), "near-vs-reference", i);
    }
  }
}

TEST(PaddedReceptor, PairsPerEvalCountsRealAtomsOnly) {
  const mol::Molecule lig = make_ligand(13);
  for (std::size_t atoms : kOddSizes) {
    const mol::Molecule rec = make_receptor(atoms);
    for (int tile : {1, 9, 256}) {
      ScoringOptions opt;
      opt.tile_size = tile;
      const LennardJonesScorer scorer(rec, lig, opt);
      const BatchScoringEngine engine(scorer);
      EXPECT_EQ(engine.pairs_per_eval(), atoms * 13u);
      EXPECT_EQ(engine.pairs_per_eval(), scorer.pairs_per_eval());
      EXPECT_GE(engine.receptor().padded_size(), atoms);
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel equivalence

/// One parity case: receptor and ligand sizes (deliberately not multiples
/// of the lane width), scoring options and tile size.
struct KernelCase {
  const char* name;
  std::size_t receptor_atoms;
  std::size_t ligand_atoms;
  float cutoff;
  int tile_size;
};

/// Names the case in test listings instead of dumping its bytes.
void PrintTo(const KernelCase& c, std::ostream* os) { *os << c.name; }

class BatchEquivalence : public ::testing::TestWithParam<KernelCase> {};

TEST_P(BatchEquivalence, ScalarSimdAndReferenceAgree) {
  const KernelCase& c = GetParam();
  ScoringOptions opt;
  opt.cutoff = c.cutoff;
  opt.tile_size = c.tile_size;
  const LennardJonesScorer scorer(make_receptor(c.receptor_atoms), make_ligand(c.ligand_atoms),
                                  opt);
  const BatchScoringEngine scalar = make_engine(scorer, SimdLevel::kScalar);
  ASSERT_EQ(scalar.pose_block(), 16);

  // Batch sizes around the pose-block boundary: empty, 1, a partial block,
  // one full block, a block plus a remainder, and more than two blocks.
  for (std::size_t n : {0u, 1u, 7u, 16u, 17u, 33u}) {
    const auto poses = random_poses(n, 100 + n);
    std::vector<double> got(n);
    scalar.score_batch(poses, got);
    for (std::size_t i = 0; i < n; ++i) {
      // score() sums in its own order: the oracle agrees up to association.
      expect_close(got[i], scorer.score(poses[i]), "scalar-vs-reference", i);
      // A block of one is the degenerate traversal, so it pins block
      // invariance.
      EXPECT_EQ(got[i], scalar.score(poses[i])) << "batch " << n << " pose " << i;
    }
    if (simd_kernel_supported()) {
      // Both kernels compute the order of DESIGN.md §10: the same bits.
      const BatchScoringEngine simd = make_engine(scorer, SimdLevel::kAvx2);
      std::vector<double> simd_got(n);
      simd.score_batch(poses, simd_got);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(simd_got[i], got[i]) << "batch " << n << " pose " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchEquivalence,
    ::testing::Values(
        // Cutoff on and off at the default tile.
        KernelCase{"lj_nocut_tile256", 333, 13, 0.0f, 256},
        KernelCase{"lj_cut_tile256", 333, 13, 8.0f, 256},
        // Tile sizes.
        KernelCase{"lj_nocut_tile1", 333, 13, 0.0f, 1},
        KernelCase{"lj_nocut_tile17", 333, 13, 0.0f, 17},
        KernelCase{"lj_cut_tile64", 333, 13, 6.5f, 64},
        KernelCase{"lj_nocut_tile4096", 333, 13, 0.0f, 4096},
        // Edge shapes.
        KernelCase{"sub_lane_receptor", 13, 5, 0.0f, 256},
        KernelCase{"single_atom_ligand", 33, 1, 0.0f, 256},
        KernelCase{"odd_everything", 13, 3, 0.0f, 256},
        KernelCase{"one_full_lane_plus_tail", 17, 1, 0.0f, 256},
        KernelCase{"paper_like_small", 101, 7, 0.0f, 256}),
    [](const ::testing::TestParamInfo<KernelCase>& info) { return std::string(info.param.name); });

TEST(BatchScoringEngine, AutoImplResolvesToConcrete) {
  EXPECT_NE(resolve_scoring_impl(ScoringImpl::kAuto), ScoringImpl::kAuto);
  EXPECT_EQ(resolve_scoring_impl(ScoringImpl::kBatched), ScoringImpl::kBatched);
  EXPECT_EQ(resolve_scoring_impl(ScoringImpl::kAuto),
            simd_kernel_supported() ? ScoringImpl::kBatchedSimd : ScoringImpl::kBatched);
}

TEST(BatchScoringEngine, BadOptionsThrow) {
  const mol::Molecule rec = make_receptor(50);
  const mol::Molecule lig = make_ligand(5);
  const LennardJonesScorer scorer(rec, lig);
  BatchEngineOptions opt;
  opt.pose_block = 0;
  EXPECT_THROW(BatchScoringEngine(scorer, opt), std::invalid_argument);
  if (!simd_kernel_supported()) {
    BatchEngineOptions simd_opt;
    simd_opt.simd = SimdLevel::kAvx2;
    EXPECT_THROW(BatchScoringEngine(scorer, simd_opt), std::invalid_argument);
  }
}

TEST(BatchScoringEngine, SizeMismatchThrows) {
  const mol::Molecule rec = make_receptor(50);
  const mol::Molecule lig = make_ligand(5);
  const LennardJonesScorer scorer(rec, lig);
  const BatchScoringEngine engine(scorer);
  const auto poses = random_poses(4);
  std::vector<double> out(3);
  EXPECT_THROW(engine.score_batch(poses, out), std::invalid_argument);
}

TEST(PoseBatch, RealRefusesLengthMismatch) {
  const std::vector<Pose> poses(4);
  std::vector<double> out(5);
  EXPECT_THROW((void)PoseBatch::real(poses, out), std::invalid_argument);
  out.resize(4);
  EXPECT_EQ(PoseBatch::real(poses, out).n, 4u);
}

TEST(PoseBatch, SlicesViewTheSameStorage) {
  const std::vector<Pose> poses(10);
  std::vector<double> out(10);
  const PoseBatch part = PoseBatch::real(poses, out).slice(3, 4);
  EXPECT_EQ(part.n, 4u);
  EXPECT_EQ(part.poses.data(), poses.data() + 3);
  EXPECT_EQ(part.out.data(), out.data() + 3);
  EXPECT_THROW((void)PoseBatch::real(poses, out).slice(8, 3), std::out_of_range);
}

TEST(PoseBatch, CostOnlySlicesStayCostOnly) {
  const PoseBatch part = PoseBatch::cost_only(100).slice(40, 25);
  EXPECT_EQ(part.n, 25u);
  EXPECT_TRUE(part.poses.empty());
  EXPECT_TRUE(part.out.empty());
  EXPECT_THROW((void)PoseBatch::cost_only(10).slice(11, 0), std::out_of_range);
}

}  // namespace
}  // namespace metadock::scoring
