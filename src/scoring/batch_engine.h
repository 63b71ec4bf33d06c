// Batched, SIMD-vectorized host scoring engine — the one host scoring
// path behind every evaluator and virtual kernel.
//
// The reference loop (`LennardJonesScorer::score`) re-streams the whole
// receptor once per pose and cannot vectorize its inner loop because of
// the per-atom `PairCoeff` gather (`row[rtype[i]]`).  This engine
// restructures the hot loop along two axes:
//
//   1. Pose-blocked x receptor-tiled traversal: `score_batch` transforms a
//      block of poses once, then streams each receptor tile through *all*
//      poses in the block before moving on — the CPU-cache mirror of the
//      paper's shared-memory tile being reused by every warp in a block.
//      The receptor is read from memory once per block instead of once per
//      pose.
//
//   2. Lane-padded receptor layout: atoms keep their order, each tile is
//      padded to a multiple of 8 lanes, and the `PairCoeff` gather is
//      precomputed into per-atom A/B columns for each ligand element.  The
//      inner loop is one straight, branch-free FMA loop per (pose, ligand
//      atom, tile) with no scalar tail; padding slots add exactly 0.
//
// Two kernels back the engine: a portable scalar one and an explicit
// AVX2/FMA one (compiled when METADOCK_SIMD is ON and the target is
// x86-64; dispatched at runtime via cpuid).  Both compute one canonical
// evaluation order (DESIGN.md §10): eight float lanes per tile, fixed FMAs,
// a fixed horizontal-sum tree, double totals.  So they produce the same
// bits; the kernel choice is a speed choice only.  score() keeps its own
// order and agrees with them up to FP association.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "scoring/lennard_jones.h"
#include "scoring/pose.h"
#include "scoring/pose_block.h"

namespace metadock::scoring {

// ---------------------------------------------------------------------------
// SIMD capability / implementation selection

enum class SimdLevel : std::uint8_t { kScalar, kAvx2 };

/// True when the AVX2/FMA kernel was compiled into this binary
/// (METADOCK_SIMD=ON on an x86-64 target).
[[nodiscard]] bool simd_kernel_compiled() noexcept;

/// True when the AVX2 kernel is compiled *and* the CPU we are running on
/// supports AVX2+FMA (runtime cpuid dispatch).
[[nodiscard]] bool simd_kernel_supported() noexcept;

/// Fastest level this host can run: kAvx2 when supported, else kScalar.
/// The scalar kernel is always present — dispatch can never come up empty.
[[nodiscard]] SimdLevel default_simd_level() noexcept;

[[nodiscard]] std::string_view simd_level_name(SimdLevel level) noexcept;

/// True when `level` can execute on this host (kScalar always can).
[[nodiscard]] bool simd_level_supported(SimdLevel level) noexcept;

/// Kernel names for reports (kBatched = scalar, kBatchedSimd = AVX2/FMA,
/// kAuto = default_simd_level()).  Nothing selects a kernel with them; they
/// stay only for e2ebench/e2e_bench.cpp's kernel-name print.
enum class ScoringImpl : std::uint8_t { kAuto, kBatched, kBatchedSimd };

/// Resolves kAuto to kBatchedSimd when the AVX2 kernel is compiled in and
/// the CPU supports it, kBatched otherwise.  Other values pass through.
[[nodiscard]] ScoringImpl resolve_scoring_impl(ScoringImpl impl) noexcept;

[[nodiscard]] std::string_view scoring_impl_name(ScoringImpl impl) noexcept;

// ---------------------------------------------------------------------------
// Lane-padded receptor layout

/// Floats per SIMD lane group; every tile is padded to a multiple of it.
inline constexpr std::size_t kLanes = 8;

/// Receptor SoA in original atom order, cut into tiles of `tile_size` atoms
/// (atom i in tile i / tile_size).  Each tile is padded to a multiple of
/// kLanes, so tile t starts at t * tile_stride and no kernel needs a scalar
/// tail.  For every element that occurs in the ligand, `a`/`b` hold one
/// column of LJ coefficients aligned with the atoms: ligand atom j reads its
/// (A, B) against receptor slot i at a[column[j] + i], b[column[j] + i].
/// Padding slots have A = B = charge = 0, so each adds exactly 0.
struct PaddedReceptor {
  std::vector<float> x, y, z, charge;
  std::vector<float> a, b;
  /// Per ligand atom: offset of its element's coefficient column.
  std::vector<std::uint32_t> column;
  std::size_t atoms = 0;
  std::size_t tile_size = 0;
  std::size_t tile_stride = 0;  // tile_size rounded up to kLanes

  /// Real atoms; padding is never counted.
  [[nodiscard]] std::size_t size() const noexcept { return atoms; }
  [[nodiscard]] std::size_t padded_size() const noexcept { return x.size(); }
  [[nodiscard]] std::size_t tiles() const noexcept { return (atoms + tile_size - 1) / tile_size; }
  /// Padded slots of tile t (a multiple of kLanes).
  [[nodiscard]] std::size_t tile_length(std::size_t t) const noexcept;

  static PaddedReceptor build(const ReceptorAtoms& receptor, const LigandAtoms& ligand,
                              std::size_t tile_size);
};

// ---------------------------------------------------------------------------
// The engine

struct BatchEngineOptions {
  /// Poses transformed and kept hot per receptor sweep (the CPU analogue of
  /// warps-per-block).  Each pose costs lig_n * 12 bytes of scratch.
  int pose_block = 16;
  /// Kernel to run.  Both write the same bits, so only tests and the
  /// kernel microbenchmark pick one; construction throws when kAvx2 is
  /// requested on a host without AVX2/FMA.
  SimdLevel simd = default_simd_level();
};

class BatchScoringEngine {
 public:
  /// Snapshots the scorer's receptor into the lane-padded layout.  Holds a
  /// reference to the scorer's ligand and options, so the scorer must
  /// outlive the engine (same lifetime contract as DeviceScoringKernel).
  explicit BatchScoringEngine(const LennardJonesScorer& scorer, BatchEngineOptions options = {});

  /// Scores every pose into out (same indexing), pose_block poses at a
  /// time.  Thread-safe: scratch lives in the calling thread's arena
  /// (util::thread_arena), shared state is const.
  void score_batch(std::span<const Pose> poses, std::span<double> out) const;

  /// Columnar entry point: identical math and blocking, but poses are
  /// read straight out of SoA columns with no gather/repack.  Produces
  /// bit-identical results to the AoS overload (same kernel, same order).
  void score_batch(const PoseSoAView& poses, std::span<double> out) const;

  /// Single-pose convenience (a block of one).
  [[nodiscard]] double score(const Pose& pose) const;

  [[nodiscard]] const PaddedReceptor& receptor() const noexcept { return receptor_; }
  [[nodiscard]] int pose_block() const noexcept { return options_.pose_block; }
  [[nodiscard]] std::uint64_t pairs_per_eval() const noexcept {
    return static_cast<std::uint64_t>(receptor_.size()) * ligand_->size();
  }

 private:
  void score_block(const Pose* poses, std::size_t n, double* out) const;
  template <typename PoseAt>
  void score_block_impl(PoseAt&& pose_at, std::size_t n, double* out) const;

  const LigandAtoms* ligand_;
  ScoringOptions scoring_;
  BatchEngineOptions options_;
  PaddedReceptor receptor_;
};

// ---------------------------------------------------------------------------
// Kernels (internal; exposed for the equivalence tests)

namespace detail {

/// One receptor tile of n padded slots (r* point at its first slot, a/b at
/// its first slot of coefficient column 0) against a block of transformed
/// ligands.  lx/ly/lz are pose-major: pose p's atom j lives at
/// [p * lig_n + j].  energy[p] is accumulated into (callers zero it once
/// per batch).
struct BlockKernelArgs {
  const float* rx = nullptr;
  const float* ry = nullptr;
  const float* rz = nullptr;
  const float* rcharge = nullptr;
  const float* ra = nullptr;
  const float* rb = nullptr;
  std::size_t n = 0;
  const std::uint32_t* column = nullptr;
  const float* lx = nullptr;
  const float* ly = nullptr;
  const float* lz = nullptr;
  const float* lcharge = nullptr;
  std::size_t lig_n = 0;
  std::size_t n_poses = 0;
  bool coulomb = false;
  float dielectric = 4.0f;
  float cutoff2 = 0.0f;
  double* energy = nullptr;
};

/// Portable kernel: the AVX2 kernel's order one lane at a time, with
/// std::fmaf for its FMAs, so both kernels write the same bits.
void score_block_tile_scalar(const BlockKernelArgs& args);

/// Explicit AVX2/FMA kernel; calling it when !simd_kernel_compiled() is a
/// logic error (std::terminate via the stub).
void score_block_tile_avx2(const BlockKernelArgs& args);

}  // namespace detail

}  // namespace metadock::scoring
