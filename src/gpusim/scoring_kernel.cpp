#include "gpusim/scoring_kernel.h"

#include <algorithm>
#include <stdexcept>

#include "obs/host_metrics.h"
#include "util/thread_pool.h"
// metadock-lint: allow(wall-clock) host-throughput metrics only, never results
#include "util/timer.h"

namespace metadock::gpusim {

namespace {

scoring::BatchEngineOptions engine_options(const ScoringKernelOptions& options) {
  if (options.warps_per_block <= 0 || options.tile_atoms <= 0) {
    throw std::invalid_argument("DeviceScoringKernel: bad options");
  }
  scoring::BatchEngineOptions be;
  be.pose_block = options.warps_per_block;
  return be;
}

}  // namespace

void score_on_host(const scoring::BatchScoringEngine& engine, const scoring::PoseBatch& batch,
                   obs::Observer* observer) {
  if (batch.poses.empty()) return;
  // Times the real host work behind host.pairs_per_second; virtual time is
  // priced by the device or CPU model and never reads this timer.
  // metadock-lint: allow(wall-clock) host-throughput metrics only
  const util::WallTimer timer;
  // Pose blocks are independent (as CUDA blocks are on real hardware), so
  // the host scores them across its threads.
  const auto block = static_cast<std::size_t>(engine.pose_block());
  util::ThreadPool::global().parallel_for((batch.n + block - 1) / block, [&](std::size_t b) {
    const scoring::PoseBatch part = batch.slice(b * block, std::min(block, batch.n - b * block));
    engine.score_batch(part.poses, part.out);
  });
  obs::record_host_scoring(
      observer, timer.seconds(),
      static_cast<double>(engine.pairs_per_eval()) * static_cast<double>(batch.n));
}

DeviceScoringKernel::DeviceScoringKernel(Device& device,
                                         const scoring::LennardJonesScorer& scorer,
                                         ScoringKernelOptions options)
    : device_(device),
      scorer_(scorer),
      options_(options),
      batch_(scorer, engine_options(options)) {
  // Initial molecule allocation + upload: receptor and ligand
  // coordinate/type payloads live on the device for the kernel's lifetime.
  const double molecule_bytes =
      kBytesPerReceptorAtom *
      (static_cast<double>(scorer_.receptor_size()) + static_cast<double>(scorer_.ligand_size()));
  device_.allocate(molecule_bytes);
  device_.copy_to_device(molecule_bytes);
}

DeviceScoringKernel::~DeviceScoringKernel() {
  device_.deallocate(kBytesPerReceptorAtom * (static_cast<double>(scorer_.receptor_size()) +
                                              static_cast<double>(scorer_.ligand_size())));
}

KernelLaunch DeviceScoringKernel::launch_config(std::size_t n_poses) const {
  KernelLaunch launch;
  const auto wpb = static_cast<std::size_t>(options_.warps_per_block);
  launch.grid_blocks = static_cast<std::int64_t>((n_poses + wpb - 1) / wpb);
  launch.block_threads = options_.warps_per_block * 32;
  if (options_.tiled) {
    // Receptor tile + transformed-ligand buffer live in shared memory.
    launch.shared_bytes_per_block = static_cast<std::size_t>(
        kBytesPerReceptorAtom * options_.tile_atoms +
        kBytesPerReceptorAtom * static_cast<double>(scorer_.ligand_size()) *
            options_.warps_per_block);
  }
  return launch;
}

KernelCost DeviceScoringKernel::cost(std::size_t n_poses) const {
  KernelCost cost;
  const auto pairs = static_cast<double>(scorer_.pairs_per_eval()) * static_cast<double>(n_poses);
  cost.flops = pairs * kFlopsPerPair;

  const double receptor_bytes =
      kBytesPerReceptorAtom * static_cast<double>(scorer_.receptor_size());
  const KernelLaunch launch = launch_config(n_poses);
  if (options_.tiled) {
    // Each block streams the receptor once through its shared-memory tiles;
    // the tile is then reused by every warp and every ligand atom.
    cost.global_bytes = receptor_bytes * static_cast<double>(launch.grid_blocks);
  } else {
    // Naive kernel: the inner loop re-touches receptor data once per pair
    // (each ligand atom of each warp re-streams the receptor).  The L2
    // absorbs most touches for receptors of this size; kNaiveMissRate is
    // the fraction that reaches DRAM-equivalent bandwidth.
    cost.global_bytes =
        pairs * kBytesPerReceptorAtom * kNaiveMissRate;
  }
  cost.global_bytes += kBytesPerPose * static_cast<double>(n_poses)     // poses in
                       + kBytesPerScore * static_cast<double>(n_poses);  // scores out
  return cost;
}

double DeviceScoringKernel::upload_seconds(std::size_t n) const {
  return transfer_time_s(device_.spec(), kBytesPerPose * static_cast<double>(n),
                         device_.cost_params());
}

double DeviceScoringKernel::download_seconds(std::size_t n) const {
  return transfer_time_s(device_.spec(), kBytesPerScore * static_cast<double>(n),
                         device_.cost_params());
}

double DeviceScoringKernel::kernel_seconds(std::size_t n) const {
  return kernel_time_s(device_.spec(), launch_config(n), cost(n), device_.cost_params()) *
         device_.slowdown();
}

void DeviceScoringKernel::score(const scoring::PoseBatch& batch) {
  if (batch.n == 0) return;
  device_.copy_to_device(kBytesPerPose * static_cast<double>(batch.n));
  launch(-1, batch);
  device_.copy_from_device(kBytesPerScore * static_cast<double>(batch.n));
}

void DeviceScoringKernel::launch(int stream, const scoring::PoseBatch& batch) {
  if (batch.n == 0) return;
  if (stream < 0) {
    device_.launch(launch_config(batch.n), cost(batch.n));
  } else {
    device_.launch_async(stream, launch_config(batch.n), cost(batch.n));
  }
  // One block of warps = one pose block (pose_block == warps_per_block):
  // the engine transforms the block's poses once and streams each receptor
  // tile through all of them, like the shared-memory tile of the block.
  score_on_host(batch_, batch, device_.observer());
}

void DeviceScoringKernel::upload_poses_async(int stream, std::size_t n) {
  if (n == 0) return;
  device_.copy_to_device_async(stream, kBytesPerPose * static_cast<double>(n));
}

void DeviceScoringKernel::download_scores_async(int stream, std::size_t n) {
  if (n == 0) return;
  device_.copy_from_device_async(stream, kBytesPerScore * static_cast<double>(n));
}

}  // namespace metadock::gpusim
