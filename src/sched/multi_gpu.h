// Multi-GPU batch scorer — Algorithm 2 of the paper, hardened against
// device faults.
//
// Every scoring call (one Scom batch) is split across the node's GPUs at
// thread-block granularity: device g receives a contiguous stride of
// conformations sized by its share ("each GPU calculates the scoring
// function for a set of candidate solutions ... equally distributed among
// GPUs in form of CUDA thread blocks" — or proportionally to 1/Percent in
// the heterogeneous algorithm).  The host joins all controller threads
// before the metaheuristic continues, so each batch costs the *maximum*
// over the devices' times — the barrier that makes load balance matter.
//
// Split policies:
//   * static shares (homogeneous = equal, heterogeneous = Eq. 1 warm-up) —
//     one H2D/kernel/D2H round per device per batch;
//   * dynamic ("cooperative scheduling of jobs"): blocks are pulled from a
//     shared queue in fixed-size chunks by whichever device is predicted
//     free first; needs no warm-up but pays a dispatch latency per pull.
//
// Overlapped dispatch (`overlap`, default on for the static splits): each
// device's slice becomes a double-buffered two-stream pipeline — upload
// half 1 / launch half 1 / upload half 2 (overlapping kernel 1) / launch
// half 2 / download (overlapping kernel 2 via a recorded event) — so the
// barrier hides most of the PCIe time behind compute.  Optionally the host
// CPU scores a tail share of every batch concurrently (`cpu_tail_share`)
// and the barrier takes max(GPU pipelines, CPU tail).  Scores are
// bit-identical to the serial path; only the virtual timeline changes.
//
// Fault tolerance (gpusim::FaultPlan attached to the Runtime):
//   * transient launch failures are retried with capped exponential
//     backoff (FaultPolicy);
//   * a dead device (or one that exhausts its retries) is quarantined; its
//     in-flight slice is re-split across the survivors with the shares
//     renormalized, so survivors absorb the lost share proportionally;
//   * static shares are optionally re-derived from observed per-device
//     throughput every `rebalance_batches` batches (straggler demotion);
//   * when every GPU is lost, scoring degrades to the CPU model
//     (`cpu_fallback`) instead of aborting; without a fallback the typed
//     gpusim::AllDevicesLostError is raised.
// Every retry/quarantine/re-split is counted in the FaultReport, and no
// score is ever silently dropped: a slice either completes on some device
// (or the CPU) or the scorer throws.
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "cpusim/cpu_engine.h"
#include "gpusim/runtime.h"
#include "gpusim/scoring_kernel.h"
#include "meta/evaluator.h"
#include "obs/observer.h"
#include "sched/fault.h"
#include "scoring/lennard_jones.h"
#include "util/sync.h"

namespace metadock::sched {

struct MultiGpuOptions {
  gpusim::ScoringKernelOptions kernel;
  /// Static split: per-device work shares (normalized internally).  Leave
  /// empty with dynamic=true for the cooperative scheduler.
  std::vector<double> shares;
  /// Dynamic block-queue mode.
  bool dynamic = false;
  /// Blocks per queue pull in dynamic mode.  Each pull costs a dispatch
  /// latency (MultiGpuBatchScorer::kPullLatencySeconds) plus a kernel-launch
  /// overhead, so very small chunks trade balance for overhead (the
  /// scheduler-granularity ablation).
  std::size_t chunk_blocks = 128;
  /// Retry/quarantine/rebalance policy for injected faults.
  FaultPolicy faults;
  /// Double-buffered stream overlap (`--overlap`): each device's slice is
  /// pipelined as two half-batches across two streams, so H2D for one half
  /// overlaps the kernel of the other and D2H rides the transfer stream.
  /// Off reproduces the paper's fully synchronous Algorithm 2 round.
  /// Ignored (always serial) in dynamic mode, whose chunk queue already
  /// interleaves devices.  Scores are bit-identical either way — only the
  /// virtual timeline changes.
  bool overlap = true;
  /// Fraction of every batch the host CPU scores concurrently with the GPU
  /// pipelines (`--cpu-tail-share`, overlapped static mode only): the
  /// barrier takes max(GPU pipelines, CPU tail).  0 disables the tail;
  /// requires `cpu_fallback` as the engine.  Must be < 1.
  double cpu_tail_share = 0.0;
  /// CPU that absorbs the workload once every GPU is lost.  Without it, an
  /// all-devices-lost run throws gpusim::AllDevicesLostError.
  std::optional<cpusim::CpuSpec> cpu_fallback;
  /// Observability sink (nullable = off): batch spans on the host track,
  /// retry/quarantine/re-split/rebalance events, "sched.*" counters.
  obs::Observer* observer = nullptr;
};

/// Splits `n` conformations into per-device contiguous counts proportional
/// to `shares`, rounded to whole blocks of `warps_per_block` conformations
/// (largest-remainder on blocks).
[[nodiscard]] std::vector<std::size_t> split_batch(std::size_t n, int warps_per_block,
                                                   const std::vector<double>& shares);

class MultiGpuBatchScorer final : public meta::Evaluator {
 public:
  /// Modeled host-side dispatch latency per dynamic-mode queue pull.
  static constexpr double kPullLatencySeconds = 3e-6;

  /// Binds all devices of `rt`; the molecule upload to every device is
  /// accounted immediately (devices load in parallel -> node pays the max).
  /// Devices already dead under the runtime's fault plan are quarantined
  /// up front.
  MultiGpuBatchScorer(gpusim::Runtime& rt, const scoring::LennardJonesScorer& scorer,
                      MultiGpuOptions options);

  /// Real scoring: splits the batch, runs every device's slice, advances
  /// node time by the slowest device's delta.
  void evaluate(std::span<const scoring::Pose> poses, std::span<double> out) override {
    const util::ScopedSerial own(serial_);
    dispatch(scoring::PoseBatch::real(poses, out));
  }

  /// Cost-only variant for trace replay.
  void evaluate_cost_only(std::size_t n) {
    const util::ScopedSerial own(serial_);
    dispatch(scoring::PoseBatch::cost_only(n));
  }

  /// Barrier-aware node time: molecule upload + sum over batches of the
  /// slowest device's per-batch time (plus CPU-fallback time when engaged).
  [[nodiscard]] double node_seconds() const noexcept {
    util::ScopedSerial own(serial_);
    return node_seconds_;
  }

  /// Engine-facing timeline (meta::Evaluator): the barrier-aware node time.
  [[nodiscard]] double virtual_seconds() const override {
    util::ScopedSerial own(serial_);
    return node_seconds_;
  }

  /// Conformations each device has scored so far.
  [[nodiscard]] const std::vector<std::size_t>& device_conformations() const noexcept {
    util::ScopedSerial own(serial_);
    return device_confs_;
  }

  /// Fault accounting for the work dispatched so far.
  [[nodiscard]] const FaultReport& fault_report() const noexcept {
    util::ScopedSerial own(serial_);
    return faults_;
  }

  /// Modeled energy spent by the CPU engines (fallback + tail; 0 when
  /// neither was ever engaged).
  [[nodiscard]] double cpu_energy_joules() const noexcept {
    return (cpu_ ? cpu_->energy_joules() : 0.0) +
           (tail_cpu_ ? tail_cpu_->energy_joules() : 0.0);
  }

  /// Conformations the CPU tail partition has scored so far.
  [[nodiscard]] std::size_t cpu_tail_conformations() const noexcept {
    util::ScopedSerial own(serial_);
    return cpu_tail_confs_;
  }

  /// True when the device has been quarantined (dead or retries exhausted).
  [[nodiscard]] bool quarantined(std::size_t device) const {
    util::ScopedSerial own(serial_);
    return quarantined_.at(device);
  }

  /// Current static shares (renormalization happens at split time; all-zero
  /// means every device is quarantined).
  [[nodiscard]] const std::vector<double>& current_shares() const noexcept {
    util::ScopedSerial own(serial_);
    return shares_;
  }

 private:
  struct Slice {
    std::size_t offset = 0;
    std::size_t count = 0;
    /// Sent back to the worklist by a quarantine.
    bool requeued = false;
  };

  /// Scores one batch (real or cost-only): the CPU tail partition (if
  /// any), then one slice worklist shared by both split policies, then the
  /// barrier.  Static shares split each slice across the live devices; the
  /// cooperative queue gives each chunk to the live device with the lowest
  /// clock.  A failed slice is requeued after a quarantine and lands on the
  /// survivors or, with none left, on the CPU fallback.
  void dispatch(const scoring::PoseBatch& batch) REQUIRES(serial_);

  /// Runs one slice on one device, retrying transients per the policy.
  /// Returns false when the device must be quarantined (slice not done).
  bool run_with_retries(std::size_t d, const scoring::PoseBatch& slice) REQUIRES(serial_);

  /// Overlapped double-buffered pipeline for one device's slice: the slice
  /// is split into two block-aligned halves issued on two streams (upload
  /// overlaps the sibling half's kernel; downloads ride the first stream,
  /// the second half joining via a recorded event).  Returns the completed
  /// prefix in poses — `slice.n` on success, less when the device died or
  /// exhausted its retries mid-pipeline (the caller re-splits the rest).
  std::size_t run_overlapped(std::size_t d, const scoring::PoseBatch& slice) REQUIRES(serial_);

  [[nodiscard]] bool overlap_enabled() const noexcept {
    return options_.overlap && !options_.dynamic;
  }
  /// Lazily creates the two pipeline streams of device `d`.
  void ensure_streams(std::size_t d) REQUIRES(serial_);
  /// Lazily creates the CPU tail engine (requires cpu_fallback; validated
  /// at construction).
  cpusim::CpuScoringEngine& engage_tail() REQUIRES(serial_);

  void quarantine(std::size_t d) REQUIRES(serial_);
  /// Refills `out` with the indices of non-quarantined devices.
  void alive_into(std::vector<std::size_t>& out) const REQUIRES(serial_);
  /// Ensures the CPU fallback engine exists (throws AllDevicesLostError
  /// when no fallback CPU was configured).
  cpusim::CpuScoringEngine& engage_cpu() REQUIRES(serial_);
  void maybe_rebalance() REQUIRES(serial_);

  /// Single-owner role capability (DESIGN.md §16): the Evaluator contract
  /// says one logical thread drives the scorer, and every entry point
  /// claims this role for its duration.
  mutable util::Serial serial_;

  gpusim::Runtime& rt_;
  MultiGpuOptions options_;
  std::deque<std::optional<gpusim::DeviceScoringKernel>> kernels_;
  /// Working shares; 0 for quarantined devices.
  std::vector<double> shares_ GUARDED_BY(serial_);
  std::vector<bool> quarantined_ GUARDED_BY(serial_);
  std::vector<std::size_t> device_confs_ GUARDED_BY(serial_);
  double node_seconds_ GUARDED_BY(serial_) = 0.0;

  FaultReport faults_ GUARDED_BY(serial_);
  std::optional<cpusim::CpuScoringEngine> cpu_;
  /// Separate engine for the concurrent tail partition: the fallback engine
  /// (`cpu_`) serializes behind the barrier, the tail runs inside it.
  std::optional<cpusim::CpuScoringEngine> tail_cpu_;
  std::size_t cpu_tail_confs_ GUARDED_BY(serial_) = 0;
  /// Per-device pipeline stream ids ({-1,-1} until first overlapped use).
  std::vector<std::array<int, 2>> stream_ids_ GUARDED_BY(serial_);
  const scoring::LennardJonesScorer& scorer_;
  // Observed-throughput window for straggler rebalancing.  Both evaluate()
  // and evaluate_cost_only() feed it through the shared dispatch path, so a
  // trace replay rebalances exactly like the real run it replays.
  std::vector<std::size_t> window_confs_ GUARDED_BY(serial_);
  std::vector<double> window_seconds_ GUARDED_BY(serial_);
  std::size_t batches_dispatched_ GUARDED_BY(serial_) = 0;
};

}  // namespace metadock::sched
