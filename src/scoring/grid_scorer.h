// Grid-based scoring — the AutoDock-style alternative scoring function the
// paper's conclusions point to ("with many other types of scoring functions
// still to be explored").
//
// The receptor's interaction field is precomputed once per probe element on
// a regular lattice: G_t(x) = sum over receptor atoms of LJ(t, type_i,
// |x - x_i|) within a cutoff.  Scoring a pose then costs O(ligand atoms) trilinear interpolations
// instead of O(receptor x ligand) pair evaluations — the classic
// memory-for-compute trade of docking codes.  Accuracy degrades near steep
// repulsive walls (finite lattice spacing), which the tests quantify.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "geom/aabb.h"
#include "mol/molecule.h"
#include "scoring/lennard_jones.h"
#include "scoring/pose.h"

namespace metadock::scoring {

struct GridScorerOptions {
  /// Lattice spacing (Angstrom).  AutoDock's classic default; coarser
  /// grids smear the repulsive wall and bias energies upward (quantified
  /// in the tests: mean relative error ~0.14 at 0.35 A vs ~0.96 at 0.75 A).
  float spacing = 0.375f;
  /// Padding beyond the receptor bounds so surface poses stay in-box.
  float padding = 8.0f;
  /// Pair interactions beyond this distance are dropped (the r^-6 tail at
  /// 8 A is < 2% of the well depth for typical parameters).
  float cutoff = 8.0f;
  /// Energy assigned per ligand atom that leaves the grid box.
  double out_of_box_penalty = 1e4;
};

class GridScorer {
 public:
  /// Builds probe grids for every element that occurs in `ligand`.
  GridScorer(const mol::Molecule& receptor, const mol::Molecule& ligand,
             GridScorerOptions options = {});

  /// Interpolated interaction energy of a posed ligand.
  [[nodiscard]] double score(const Pose& pose) const;

  void score_batch(std::span<const Pose> poses, std::span<double> out) const;

  /// Exact (non-interpolated) probe energy at a lattice node — what the
  /// grid stores; exposed for tests.
  [[nodiscard]] double node_value(mol::Element e, int ix, int iy, int iz) const;

  [[nodiscard]] std::size_t grid_points() const noexcept {
    return static_cast<std::size_t>(nx_) * ny_ * nz_;
  }
  [[nodiscard]] std::size_t grids_built() const noexcept { return grids_used_; }
  [[nodiscard]] const geom::Aabb& box() const noexcept { return box_; }
  [[nodiscard]] const GridScorerOptions& options() const noexcept { return options_; }

  /// Grid memory footprint in bytes (what a device would have to hold).
  [[nodiscard]] std::size_t payload_bytes() const noexcept {
    return grid_points() * sizeof(float) * grids_used_;
  }

 private:
  /// Trilinear interpolation into one grid; sets `outside` when p leaves
  /// the lattice.
  [[nodiscard]] double sample(const std::vector<float>& grid, const geom::Vec3& p,
                              bool& outside) const;

  /// Interpolated energy of one already-transformed ligand (tx/ty/tz hold
  /// ligand_.size() world-space coordinates).
  [[nodiscard]] double score_transformed(const float* tx, const float* ty, const float* tz) const;

  GridScorerOptions options_;
  geom::Aabb box_;
  int nx_ = 0, ny_ = 0, nz_ = 0;
  /// One grid per element index (empty for elements absent from ligands).
  std::array<std::vector<float>, static_cast<std::size_t>(mol::kElementCount)> type_grids_;
  std::size_t grids_used_ = 0;
  LigandAtoms ligand_;
};

}  // namespace metadock::scoring
