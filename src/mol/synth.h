// Synthetic molecular structure generators.
//
// The paper docks against PDB entries 2BSM (receptor 3264 atoms, ligand 45)
// and 2BXG (receptor 8609 atoms, ligand 32).  Those files are not available
// offline, so we generate deterministic synthetic equivalents: globular
// receptors packed at protein-like atom density with a protein-like element
// mix, and chain-grown small-molecule ligands.  Scoring cost depends only on
// atom counts and spatial distribution, both of which are preserved, so the
// performance study is unaffected; the LJ energy landscape (clash wall,
// attractive well near the surface) is qualitatively the same.
#pragma once

#include <cstdint>

#include "mol/molecule.h"

namespace metadock::mol {

struct ReceptorParams {
  std::size_t atom_count = 3264;
  /// Protein interiors average roughly 0.1 atoms per cubic Angstrom
  /// (hydrogens included); the generator sizes its sphere from this.
  double density = 0.1;
  /// Minimum inter-atom spacing (Angstrom) enforced by rejection.
  double min_spacing = 1.7;
  std::uint64_t seed = 1;
};

struct LigandParams {
  std::size_t atom_count = 45;
  std::uint64_t seed = 2;
};

/// Generates a globular receptor: `atom_count` atoms packed inside a sphere
/// at protein density, protein-like element frequencies.  Deterministic in
/// the seed.  Centered at the origin.
[[nodiscard]] Molecule make_receptor(const ReceptorParams& params);

/// Generates a drug-like ligand: a self-avoiding heavy-atom chain/branch
/// skeleton with bond-length spacing, hydrogens attached last.  Centered at
/// the origin.  Deterministic in the seed.
[[nodiscard]] Molecule make_ligand(const LigandParams& params);

/// The benchmark datasets of the paper (Table 5).
struct Dataset {
  const char* pdb_id;
  std::size_t receptor_atoms;
  std::size_t ligand_atoms;
};

inline constexpr Dataset kDataset2BSM{"2BSM", 3264, 45};
inline constexpr Dataset kDataset2BXG{"2BXG", 8609, 32};

/// Builds the named dataset's receptor (seeded by pdb id).
[[nodiscard]] Molecule make_dataset_receptor(const Dataset& ds);

/// Builds the named dataset's ligand (seeded by pdb id).
[[nodiscard]] Molecule make_dataset_ligand(const Dataset& ds);

}  // namespace metadock::mol
