#include "scoring/batch_engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "mol/atom.h"
#include "scoring/pair_params.h"
#include "util/pool.h"

namespace metadock::scoring {

bool simd_kernel_supported() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  return simd_kernel_compiled() && __builtin_cpu_supports("avx2") &&
         __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

SimdLevel default_simd_level() noexcept {
  return simd_kernel_supported() ? SimdLevel::kAvx2 : SimdLevel::kScalar;
}

std::string_view simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "?";
}

bool simd_level_supported(SimdLevel level) noexcept {
  return level == SimdLevel::kScalar || simd_kernel_supported();
}

ScoringImpl resolve_scoring_impl(ScoringImpl impl) noexcept {
  if (impl != ScoringImpl::kAuto) return impl;
  return simd_kernel_supported() ? ScoringImpl::kBatchedSimd : ScoringImpl::kBatched;
}

std::string_view scoring_impl_name(ScoringImpl impl) noexcept {
  switch (impl) {
    case ScoringImpl::kAuto:
      return "auto";
    case ScoringImpl::kBatched:
      return "batched-scalar";
    case ScoringImpl::kBatchedSimd:
      return "batched-simd";
  }
  return "?";
}

std::size_t PaddedReceptor::tile_length(std::size_t t) const noexcept {
  const std::size_t real = std::min(tile_size, atoms - t * tile_size);
  return (real + kLanes - 1) / kLanes * kLanes;
}

PaddedReceptor PaddedReceptor::build(const ReceptorAtoms& receptor, const LigandAtoms& ligand,
                                     std::size_t tile_size) {
  if (tile_size == 0) {
    throw std::invalid_argument("PaddedReceptor: tile_size must be positive");
  }
  PaddedReceptor out;
  out.atoms = receptor.size();
  out.tile_size = tile_size;
  out.tile_stride = (tile_size + kLanes - 1) / kLanes * kLanes;
  const std::size_t tiles = out.tiles();
  const std::size_t padded =
      tiles == 0 ? 0 : (tiles - 1) * out.tile_stride + out.tile_length(tiles - 1);
  const auto slot = [&](std::size_t i) { return i / tile_size * out.tile_stride + i % tile_size; };
  out.x.assign(padded, 0.0f);
  out.y.assign(padded, 0.0f);
  out.z.assign(padded, 0.0f);
  out.charge.assign(padded, 0.0f);
  for (std::size_t i = 0; i < out.atoms; ++i) {
    out.x[slot(i)] = receptor.x[i];
    out.y[slot(i)] = receptor.y[i];
    out.z[slot(i)] = receptor.z[i];
    out.charge[slot(i)] = receptor.charge[i];
  }

  // One (A, B) column pair per element present in the ligand.
  constexpr auto kNoColumn = std::numeric_limits<std::uint32_t>::max();
  std::array<std::uint32_t, static_cast<std::size_t>(mol::kElementCount)> column_of{};
  column_of.fill(kNoColumn);
  const PairTable& table = PairTable::instance();
  out.column.resize(ligand.size());
  for (std::size_t j = 0; j < ligand.size(); ++j) {
    std::uint32_t& col = column_of[ligand.type[j]];
    if (col == kNoColumn) {
      col = static_cast<std::uint32_t>(out.a.size());
      out.a.resize(out.a.size() + padded, 0.0f);
      out.b.resize(out.b.size() + padded, 0.0f);
      const PairCoeff* row = table.row(static_cast<mol::Element>(ligand.type[j]));
      for (std::size_t i = 0; i < out.atoms; ++i) {
        out.a[col + slot(i)] = row[receptor.type[i]].a;
        out.b[col + slot(i)] = row[receptor.type[i]].b;
      }
    }
    out.column[j] = col;
  }
  return out;
}

namespace detail {

namespace {

/// The canonical order of DESIGN.md §10, one lane at a time: slot i feeds
/// lane i mod 8, and every FMA of the AVX2 kernel is a std::fmaf here, so
/// both kernels produce the same bits.
template <bool kCoulomb, bool kCutoff>
void score_block_tile(const BlockKernelArgs& a) {
  for (std::size_t p = 0; p < a.n_poses; ++p) {
    const float* lx = a.lx + p * a.lig_n;
    const float* ly = a.ly + p * a.lig_n;
    const float* lz = a.lz + p * a.lig_n;
    double energy = 0.0;
    for (std::size_t j = 0; j < a.lig_n; ++j) {
      const float px = lx[j], py = ly[j], pz = lz[j];
      const float* ca = a.ra + a.column[j];
      const float* cb = a.rb + a.column[j];
      const float qscale = kCoulomb ? kCoulombConst * a.lcharge[j] / a.dielectric : 0.0f;
      std::array<float, kLanes> acc{};
      for (std::size_t i = 0; i < a.n; ++i) {
        const float dx = a.rx[i] - px;
        const float dy = a.ry[i] - py;
        const float dz = a.rz[i] - pz;
        float r2 = std::fmaf(dz, dz, std::fmaf(dy, dy, dx * dx));
        r2 = r2 > kMinR2 ? r2 : kMinR2;  // _mm256_max_ps(r2, kMinR2), NaN included
        const float inv2 = 1.0f / r2;
        const float inv6 = (inv2 * inv2) * inv2;
        const float lj = std::fmaf(ca[i], inv6, -cb[i]);
        float& lane = acc[i % kLanes];
        if constexpr (!kCoulomb && !kCutoff) {
          lane = std::fmaf(lj, inv6, lane);
        } else {
          float pair = lj * inv6;
          if constexpr (kCoulomb) pair = std::fmaf(qscale * a.rcharge[i], inv2, pair);
          if constexpr (kCutoff) pair = r2 <= a.cutoff2 ? pair : 0.0f;
          lane = lane + pair;
        }
      }
      // The AVX2 kernel's horizontal-sum tree.
      energy += static_cast<double>(((acc[0] + acc[4]) + (acc[2] + acc[6])) +
                                    ((acc[1] + acc[5]) + (acc[3] + acc[7])));
    }
    a.energy[p] += energy;
  }
}

}  // namespace

void score_block_tile_scalar(const BlockKernelArgs& a) {
  const bool cut = a.cutoff2 > 0.0f;
  if (a.coulomb) {
    cut ? score_block_tile<true, true>(a) : score_block_tile<true, false>(a);
  } else {
    cut ? score_block_tile<false, true>(a) : score_block_tile<false, false>(a);
  }
}

}  // namespace detail

BatchScoringEngine::BatchScoringEngine(const LennardJonesScorer& scorer,
                                       BatchEngineOptions options)
    : ligand_(&scorer.ligand()),
      scoring_(scorer.options()),
      options_(options),
      receptor_(PaddedReceptor::build(scorer.receptor(), scorer.ligand(),
                                      static_cast<std::size_t>(scorer.options().tile_size))) {
  if (options_.pose_block <= 0) {
    throw std::invalid_argument("BatchScoringEngine: pose_block must be positive");
  }
  if (!simd_level_supported(options_.simd)) {
    throw std::invalid_argument(
        std::string("BatchScoringEngine: ") + std::string(simd_level_name(options_.simd)) +
        " kernel requested but unavailable on this host (build with METADOCK_SIMD=ON on x86-64 "
        "and run on a CPU with that ISA; use default_simd_level() to auto-detect)");
  }
}

template <typename PoseAt>
void BatchScoringEngine::score_block_impl(PoseAt&& pose_at, std::size_t n, double* out) const {
  // Scratch comes from the calling thread's arena: zero heap traffic per
  // block after the arena warms up, and thread confinement keeps this
  // safe without synchronization.
  util::Arena& arena = util::thread_arena();
  util::ArenaScope scope(arena);
  const std::size_t lig_n = ligand_->size();
  std::span<float> lx = arena.make_span<float>(n * lig_n);
  std::span<float> ly = arena.make_span<float>(n * lig_n);
  std::span<float> lz = arena.make_span<float>(n * lig_n);
  for (std::size_t p = 0; p < n; ++p) {
    detail::transform_ligand(*ligand_, pose_at(p), lx.data() + p * lig_n, ly.data() + p * lig_n,
                             lz.data() + p * lig_n);
  }
  std::fill(out, out + n, 0.0);

  detail::BlockKernelArgs args;
  args.column = receptor_.column.data();
  args.lx = lx.data();
  args.ly = ly.data();
  args.lz = lz.data();
  args.lcharge = ligand_->charge.data();
  args.lig_n = lig_n;
  args.n_poses = n;
  args.coulomb = scoring_.coulomb;
  args.dielectric = scoring_.dielectric;
  args.cutoff2 = scoring_.cutoff * scoring_.cutoff;
  args.energy = out;

  const auto kernel = options_.simd == SimdLevel::kAvx2 ? detail::score_block_tile_avx2
                                                       : detail::score_block_tile_scalar;
  // The tile streams through every pose of the block before the next tile
  // loads — one receptor pass per block, not per pose.
  for (std::size_t t = 0; t < receptor_.tiles(); ++t) {
    const std::size_t begin = t * receptor_.tile_stride;
    args.rx = receptor_.x.data() + begin;
    args.ry = receptor_.y.data() + begin;
    args.rz = receptor_.z.data() + begin;
    args.rcharge = receptor_.charge.data() + begin;
    args.ra = receptor_.a.data() + begin;
    args.rb = receptor_.b.data() + begin;
    args.n = receptor_.tile_length(t);
    kernel(args);
  }
}

void BatchScoringEngine::score_block(const Pose* poses, std::size_t n, double* out) const {
  score_block_impl([poses](std::size_t p) { return poses[p]; }, n, out);
}

void BatchScoringEngine::score_batch(std::span<const Pose> poses, std::span<double> out) const {
  if (poses.size() != out.size()) {
    throw std::invalid_argument("BatchScoringEngine::score_batch: size mismatch");
  }
  const auto block = static_cast<std::size_t>(options_.pose_block);
  for (std::size_t base = 0; base < poses.size(); base += block) {
    const std::size_t n = std::min(block, poses.size() - base);
    score_block(poses.data() + base, n, out.data() + base);
  }
}

void BatchScoringEngine::score_batch(const PoseSoAView& poses, std::span<double> out) const {
  if (poses.size() != out.size()) {
    throw std::invalid_argument("BatchScoringEngine::score_batch: size mismatch");
  }
  const auto block = static_cast<std::size_t>(options_.pose_block);
  for (std::size_t base = 0; base < poses.size(); base += block) {
    const std::size_t n = std::min(block, poses.size() - base);
    score_block_impl([&poses, base](std::size_t p) { return poses.get(base + p); }, n,
                     out.data() + base);
  }
}

double BatchScoringEngine::score(const Pose& pose) const {
  double out = 0.0;
  score_block(&pose, 1, &out);
  return out;
}

}  // namespace metadock::scoring
