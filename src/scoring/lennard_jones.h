// The paper's scoring function: Lennard-Jones free energy of a posed ligand
// against the whole receptor, with no electrostatic term (the paper's
// choice).  score() is the straightforward reference loop: the test oracle
// for the batched engine (scoring/batch_engine.h), which is the one host
// path behind every evaluator and virtual kernel.
//
// It computes the *full* receptor x ligand pair sum, as the paper does (no
// cutoff by default), accumulating in double.
#pragma once

#include <cstdint>
#include <vector>

#include "mol/molecule.h"
#include "scoring/pair_params.h"
#include "scoring/pose.h"

namespace metadock::scoring {

/// Modeled single-precision flops for one receptor-ligand pair interaction
/// (distance, r^-6/r^-12 evaluation, accumulate).  Shared by the CPU and
/// GPU cost models so their ratio — the speed-up the paper reports — only
/// depends on modeled hardware throughput, not on bookkeeping choices.
inline constexpr double kModelFlopsPerPair = 16.0;
/// Modeled bytes per receptor atom (four floats plus the type byte): the
/// paper's GPU record, which the GPU kernel streams, the CPU model caches
/// and the cluster broadcasts.  It models that layout, not this host's, so
/// host layout choices never move a modelled time.
inline constexpr double kModelBytesPerReceptorAtom = 17.0;

struct ScoringOptions {
  /// Interaction cutoff in Angstrom; 0 means every pair counts (the
  /// paper's full pair sum).  A finite cutoff matches the grid scorer.
  /// Negative and NaN values are refused.
  float cutoff = 0.0f;
  /// Receptor tile size of the batched engine's lane-padded layout, in
  /// atoms.  256 atoms of (x,y,z,type) is ~4 KB — comfortably a
  /// shared-memory tile per block.
  int tile_size = 256;
};

/// Flat, type-erased ligand snapshot used by the inner loops: local
/// coordinates plus per-atom LJ row pointers resolved once.
struct LigandAtoms {
  std::vector<float> x, y, z;
  std::vector<std::uint8_t> type;

  static LigandAtoms from(const mol::Molecule& ligand);
  [[nodiscard]] std::size_t size() const noexcept { return x.size(); }
};

/// Receptor snapshot in SoA form.
struct ReceptorAtoms {
  std::vector<float> x, y, z;
  std::vector<std::uint8_t> type;

  static ReceptorAtoms from(const mol::Molecule& receptor);
  [[nodiscard]] std::size_t size() const noexcept { return x.size(); }
};

class LennardJonesScorer {
 public:
  LennardJonesScorer(const mol::Molecule& receptor, const mol::Molecule& ligand,
                     ScoringOptions options = {});

  /// Reference scalar path.
  [[nodiscard]] double score(const Pose& pose) const;

  [[nodiscard]] std::size_t receptor_size() const noexcept { return receptor_.size(); }
  [[nodiscard]] std::size_t ligand_size() const noexcept { return ligand_.size(); }
  [[nodiscard]] const ScoringOptions& options() const noexcept { return options_; }
  [[nodiscard]] const ReceptorAtoms& receptor() const noexcept { return receptor_; }
  [[nodiscard]] const LigandAtoms& ligand() const noexcept { return ligand_; }

  /// Pair interactions per single pose evaluation (receptor x ligand) —
  /// the cost models' basic unit of work.
  [[nodiscard]] std::uint64_t pairs_per_eval() const noexcept {
    return static_cast<std::uint64_t>(receptor_.size()) * ligand_.size();
  }

 private:
  ReceptorAtoms receptor_;
  LigandAtoms ligand_;
  ScoringOptions options_;
};

namespace detail {

/// Poses can momentarily place atoms on top of each other during random
/// initialization; every pair loop clamps r^2 so the r^-12 wall stays
/// finite.  Shared by all scoring paths (reference, batched, grid).
inline constexpr float kMinR2 = 0.01f;

/// Applies `pose` to every ligand atom, writing receptor-space coordinates
/// into tx/ty/tz (each at least lig.size() floats).  The shared
/// pose-transform primitive behind the reference, batched, and grid paths.
void transform_ligand(const LigandAtoms& lig, const Pose& pose, float* tx, float* ty, float* tz);

}  // namespace detail

}  // namespace metadock::scoring
