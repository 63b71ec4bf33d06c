// The docking scoring kernel on a virtual device.
//
// Mapping follows the paper exactly: "we identify each candidate solution to
// a CUDA warp, and warps are grouped into blocks depending on the CUDA
// thread block granularity".  One warp scores one conformation; its 32 lanes
// stride across receptor atoms; receptor tiles travel through shared memory
// so each block streams the receptor from DRAM once, regardless of how many
// warps it holds (the paper's "tilling implementation via shared memory").
#pragma once

#include "gpusim/device.h"
#include "scoring/batch_engine.h"
#include "scoring/lennard_jones.h"
#include "scoring/pose.h"

namespace metadock::gpusim {

struct ScoringKernelOptions {
  /// Conformations (warps) per thread block.
  int warps_per_block = 4;
  /// Shared-memory tiling on/off (off models the naive kernel where every
  /// warp streams the receptor from DRAM — the ablation baseline).
  bool tiled = true;
  /// Receptor atoms per shared-memory tile.
  int tile_atoms = 256;
};

/// The one place real scores are computed: scores a real `batch` on the
/// host pool, one pose block of `engine` per task (one CUDA block of warps
/// for a device kernel), and records the host.* throughput metrics
/// (obs/host_metrics.h).  Does nothing for a cost-only batch.
void score_on_host(const scoring::BatchScoringEngine& engine, const scoring::PoseBatch& batch,
                   obs::Observer* observer);

class DeviceScoringKernel {
 public:
  /// Binds a scorer (receptor + ligand already in SoA form) to a device:
  /// reserves device memory for the molecule payloads (throws
  /// std::runtime_error when the card's DRAM is exhausted) and accounts the
  /// initial host->device upload.  The destructor releases the reservation.
  DeviceScoringKernel(Device& device, const scoring::LennardJonesScorer& scorer,
                      ScoringKernelOptions options = {});
  ~DeviceScoringKernel();

  DeviceScoringKernel(const DeviceScoringKernel&) = delete;
  DeviceScoringKernel& operator=(const DeviceScoringKernel&) = delete;
  DeviceScoringKernel(DeviceScoringKernel&&) = delete;
  DeviceScoringKernel& operator=(DeviceScoringKernel&&) = delete;

  /// One synchronous round: H2D pose upload, kernel, D2H score download.
  /// A cost-only batch advances the clock exactly as a real one of the
  /// same size (trace replay at full paper scale).
  void score(const scoring::PoseBatch& batch);

  /// Kernel only, for callers that manage transfers themselves: Algorithm 2
  /// uploads the whole Scom to every GPU once per batch, and the overlapped
  /// dispatch owns a stream pipeline and calls Device::sync() at the batch
  /// barrier.  `stream < 0` launches on the device clock (synchronous),
  /// otherwise on that stream.  The launch is priced first; a real batch is
  /// scored only once it returns, so a failed launch writes no score.
  void launch(int stream, const scoring::PoseBatch& batch);
  /// Async H2D of `n` poses' payload (kBytesPerPose each) on `stream`.
  void upload_poses_async(int stream, std::size_t n);
  /// Async D2H of `n` scores (kBytesPerScore each) on `stream`.
  void download_scores_async(int stream, std::size_t n);

  [[nodiscard]] KernelLaunch launch_config(std::size_t n_poses) const;
  [[nodiscard]] KernelCost cost(std::size_t n_poses) const;

  // Modelled seconds of an H2D upload of n poses, a D2H download of n
  // scores, a kernel over n poses (at the current slowdown) and a whole
  // synchronous round as score() runs it.  No clock moves; on a fault-free
  // device each equals the clock advance up to 1 ns per operation.
  [[nodiscard]] double upload_seconds(std::size_t n) const;
  [[nodiscard]] double download_seconds(std::size_t n) const;
  [[nodiscard]] double kernel_seconds(std::size_t n) const;
  [[nodiscard]] double round_seconds(std::size_t n) const {
    return upload_seconds(n) + kernel_seconds(n) + download_seconds(n);
  }

  [[nodiscard]] Device& device() noexcept { return device_; }
  [[nodiscard]] const Device& device() const noexcept { return device_; }

  /// Modeled flops for one receptor-ligand atom pair (shared with cpusim).
  static constexpr double kFlopsPerPair = scoring::kModelFlopsPerPair;
  /// Bytes per receptor atom streamed by the kernel.
  static constexpr double kBytesPerReceptorAtom = scoring::kModelBytesPerReceptorAtom;
  /// Bytes per uploaded pose (position + quaternion as floats).
  static constexpr double kBytesPerPose = 28.0;
  /// Bytes per downloaded score (one double).
  static constexpr double kBytesPerScore = 8.0;
  /// Fraction of the naive (untiled) kernel's per-pair receptor touches
  /// that miss the cache hierarchy and cost DRAM bandwidth.
  static constexpr double kNaiveMissRate = 0.25;

 private:
  Device& device_;
  const scoring::LennardJonesScorer& scorer_;
  ScoringKernelOptions options_;
  /// Batched host engine backing the virtual kernel.  One block of warps
  /// maps to one pose block: pose_block == warps_per_block, so the
  /// engine's receptor sweep mirrors the shared-memory tile being reused
  /// by every warp of the block.
  scoring::BatchScoringEngine batch_;
};

}  // namespace metadock::gpusim
