#include "sched/multi_gpu.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace metadock::sched {

void split_batch_into(std::size_t n, int warps_per_block, std::span<const double> shares,
                      std::span<std::size_t> counts, util::Arena& scratch) {
  if (shares.empty()) throw std::invalid_argument("split_batch: no shares");
  if (warps_per_block <= 0) throw std::invalid_argument("split_batch: bad block size");
  if (counts.size() != shares.size()) {
    throw std::invalid_argument("split_batch_into: counts/shares size mismatch");
  }
  double sum = 0.0;
  for (double s : shares) {
    if (s < 0.0) throw std::invalid_argument("split_batch: negative share");
    sum += s;
  }
  if (sum <= 0.0) throw std::invalid_argument("split_batch: shares sum to zero");

  // Apportion whole blocks by largest remainder, then convert to
  // conformations; the final device absorbs the tail block's padding.
  const util::ArenaScope scope(scratch);
  const auto wpb = static_cast<std::size_t>(warps_per_block);
  const std::size_t total_blocks = (n + wpb - 1) / wpb;
  const std::size_t bins = shares.size();
  const std::span<std::size_t> blocks = scratch.make_span<std::size_t>(bins);
  const std::span<double> rema = scratch.make_span<double>(bins);
  std::size_t assigned = 0;
  for (std::size_t b = 0; b < bins; ++b) {
    const double exact = static_cast<double>(total_blocks) * shares[b] / sum;
    blocks[b] = static_cast<std::size_t>(exact);
    rema[b] = exact - static_cast<double>(blocks[b]);
    assigned += blocks[b];
  }
  const std::span<std::size_t> order = scratch.make_span<std::size_t>(bins);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return rema[a] > rema[b]; });
  for (std::size_t i = 0; assigned < total_blocks; ++i) {
    ++blocks[order[i % bins]];
    ++assigned;
  }

  std::size_t given = 0;
  for (std::size_t b = 0; b < bins; ++b) {
    counts[b] = std::min(blocks[b] * wpb, n - given);
    given += counts[b];
  }
}

std::vector<std::size_t> split_batch(std::size_t n, int warps_per_block,
                                     const std::vector<double>& shares) {
  std::vector<std::size_t> confs(shares.size(), 0);
  split_batch_into(n, warps_per_block, shares, confs, util::thread_arena());
  return confs;
}

MultiGpuBatchScorer::MultiGpuBatchScorer(gpusim::Runtime& rt,
                                         const scoring::LennardJonesScorer& scorer,
                                         MultiGpuOptions options)
    : rt_(rt), options_(std::move(options)), scorer_(scorer) {
  // Nobody else can hold the role during construction; claiming it here
  // lets quarantine() and the share bookkeeping run under the capability.
  const util::ScopedSerial own(serial_);
  const auto n_dev = static_cast<std::size_t>(rt_.device_count());
  if (n_dev == 0) throw std::invalid_argument("MultiGpuBatchScorer: no devices");
  if (options_.observer != nullptr) rt_.attach_observer(options_.observer);
  if (!options_.dynamic) {
    if (options_.shares.empty()) options_.shares.assign(n_dev, 1.0);
    if (options_.shares.size() != n_dev) {
      throw std::invalid_argument("MultiGpuBatchScorer: shares/device count mismatch");
    }
  }
  if (!(0.0 <= options_.cpu_tail_share && options_.cpu_tail_share < 1.0)) {
    throw std::invalid_argument("MultiGpuBatchScorer: cpu_tail_share must be in [0, 1)");
  }
  if (options_.cpu_tail_share > 0.0 && !options_.cpu_fallback) {
    throw std::invalid_argument(
        "MultiGpuBatchScorer: cpu_tail_share needs a cpu_fallback engine");
  }
  device_confs_.assign(n_dev, 0);
  quarantined_.assign(n_dev, false);
  window_confs_.assign(n_dev, 0);
  window_seconds_.assign(n_dev, 0.0);
  stream_ids_.assign(n_dev, {-1, -1});

  if (!options_.dynamic) {
    shares_ = options_.shares;
    const double sum = std::accumulate(shares_.begin(), shares_.end(), 0.0);
    // All-zero shares (every device declared lost before the run, e.g. by a
    // fault-tolerant warm-up) are legal: the split masks quarantined
    // devices and the CPU fallback absorbs the work.
    if (sum > 0.0) {
      for (double& s : shares_) s /= sum;
    }
  } else {
    shares_.assign(n_dev, 0.0);  // cooperative mode tracks no static shares
  }

  // Molecule upload happens on all live devices concurrently; a device
  // already dead under the fault plan is quarantined without an upload.
  std::vector<double> before(n_dev);
  for (std::size_t d = 0; d < n_dev; ++d) before[d] = rt_.device(static_cast<int>(d)).busy_seconds();
  for (std::size_t d = 0; d < n_dev; ++d) {
    kernels_.emplace_back();
    if (rt_.device(static_cast<int>(d)).is_dead()) {
      quarantine(d);
      continue;
    }
    kernels_.back().emplace(rt_.device(static_cast<int>(d)), scorer, options_.kernel);
  }
  double max_delta = 0.0;
  for (std::size_t d = 0; d < n_dev; ++d) {
    if (quarantined_[d]) continue;
    max_delta = std::max(max_delta,
                         rt_.device(static_cast<int>(d)).busy_seconds() - before[d]);
  }
  node_seconds_ += max_delta;
}

void MultiGpuBatchScorer::quarantine(std::size_t d) {
  if (quarantined_[d]) return;
  quarantined_[d] = true;
  if (d < shares_.size()) shares_[d] = 0.0;
  ++faults_.devices_lost;
  faults_.lost_devices.push_back(static_cast<int>(d));
  observe_quarantine(options_.observer, static_cast<int>(d),
                     rt_.device(static_cast<int>(d)).busy_seconds());
}

void MultiGpuBatchScorer::alive_into(util::ArenaVector<std::size_t>& out) const {
  out.clear();
  for (std::size_t d = 0; d < quarantined_.size(); ++d) {
    if (!quarantined_[d]) out.push_back(d);
  }
}

cpusim::CpuScoringEngine& MultiGpuBatchScorer::engage_cpu() {
  if (!cpu_) {
    if (!options_.cpu_fallback) {
      throw gpusim::AllDevicesLostError(
          "MultiGpuBatchScorer: every device is lost and no CPU fallback is configured");
    }
    // Same host engine as the device kernels, so degradation does not
    // change the science (bit-identical per-pose energies).
    cpu_.emplace(*options_.cpu_fallback, scorer_);
    cpu_->set_observer(options_.observer);
    faults_.degraded_to_cpu = true;
  }
  return *cpu_;
}

cpusim::CpuScoringEngine& MultiGpuBatchScorer::engage_tail() {
  if (!tail_cpu_) {
    // Same host engine as the device kernels: the tail partition changes
    // where poses are scored, never what they score.
    tail_cpu_.emplace(*options_.cpu_fallback, scorer_);
    tail_cpu_->set_observer(options_.observer);
  }
  return *tail_cpu_;
}

void MultiGpuBatchScorer::ensure_streams(std::size_t d) {
  if (stream_ids_[d][0] >= 0) return;
  gpusim::Device& dev = rt_.device(static_cast<int>(d));
  stream_ids_[d][0] = dev.create_stream();
  stream_ids_[d][1] = dev.create_stream();
}

bool MultiGpuBatchScorer::run_with_retries(std::size_t d, const scoring::PoseBatch& slice) {
  gpusim::Device& dev = rt_.device(static_cast<int>(d));
  // The throughput window sees the successful attempt only, not the
  // failed attempts and backoffs before it.
  double attempt_s = 0.0;
  const auto attempt = [&] {
    const double before = dev.busy_seconds();
    kernels_[d]->launch(-1, slice);
    attempt_s = dev.busy_seconds() - before;
  };
  if (launch_with_retries(dev, -1, options_.faults, options_.observer, faults_, attempt) !=
      LaunchOutcome::kDone) {
    return false;
  }
  device_confs_[d] += slice.n;
  window_confs_[d] += slice.n;
  window_seconds_[d] += attempt_s;
  return true;
}

std::size_t MultiGpuBatchScorer::run_overlapped(std::size_t d, const scoring::PoseBatch& slice) {
  gpusim::Device& dev = rt_.device(static_cast<int>(d));
  gpusim::DeviceScoringKernel& kern = *kernels_[d];
  ensure_streams(d);
  const int s0 = stream_ids_[d][0];
  const int s1 = stream_ids_[d][1];
  const double before = dev.busy_seconds();
  const std::size_t count = slice.n;

  // Block-aligned halves of the double buffer: splitting mid-block would
  // change the launch geometry (and so the scores' block mapping).  Split
  // only when the cost model predicts the pipeline beats a single-shot
  // round for this slice: halving can lose by stretching the kernels
  // (modeled occupancy scales with resident warps per SM, so sub-saturation
  // halves each cost as much as the whole) or by fixed per-op overheads
  // (an extra kernel launch plus doubled transfer latencies) that small
  // slices cannot hide.  The estimate prices both effects directly.
  const auto wpb = static_cast<std::size_t>(options_.kernel.warps_per_block);
  const std::size_t blocks = (count + wpb - 1) / wpb;
  std::size_t c0 = count;
  if (blocks >= 2) {
    const std::size_t half = std::min(count, (blocks + 1) / 2 * wpb);
    const std::size_t rest = count - half;
    // Pipeline shape: h2d(half) ; kernel(half) || h2d(rest) ; kernel(rest)
    // || d2h(half) ; d2h(rest) — the maxes cover transfer-bound slices
    // where a copy outlasts the kernel it hides under.
    const double h2d0 = kern.upload_seconds(half);
    const double k1_end = h2d0 +
                          std::max(kern.kernel_seconds(half), kern.upload_seconds(rest)) +
                          kern.kernel_seconds(rest);
    const double split_s =
        std::max(k1_end, h2d0 + kern.kernel_seconds(half) + kern.download_seconds(half)) +
        kern.download_seconds(rest);
    if (split_s < kern.round_seconds(count)) c0 = half;
  }
  const std::size_t c1 = count - c0;

  // Each half retries on its own stream: a backoff stalls only that
  // stream, so the sibling half keeps its pipeline running.
  std::size_t done = 0;  // scores that reached the host
  bool died = false;
  try {
    kern.upload_poses_async(s0, c0);
    LaunchOutcome half = launch_with_retries(dev, s0, options_.faults, options_.observer,
                                             faults_, [&] { kern.launch(s0, slice.slice(0, c0)); });
    if (half == LaunchOutcome::kDone) {
      // The first half's scores come home as soon as its kernel ends,
      // riding the d2h engine under the sibling kernel.  A half only
      // counts as done once its scores are on the host: a death before
      // this copy completes loses the scores with the card, and the
      // caller rescores the poses on a survivor.
      kern.download_scores_async(s0, c0);
      done = c0;
      if (c1 > 0) {
        // The second upload rides s1, overlapping the first half's kernel
        // on s0 (different engines; issue order does not move the virtual
        // start times, which only depend on stream cursors and engines).
        kern.upload_poses_async(s1, c1);
        half = launch_with_retries(dev, s1, options_.faults, options_.observer, faults_,
                                   [&] { kern.launch(s1, slice.slice(c0, c1)); });
        if (half == LaunchOutcome::kDone) {
          // The second half's scores join s0 via a recorded event — the
          // cross-stream dependency.
          dev.wait_event(s0, dev.record_event(s1));
          kern.download_scores_async(s0, c1);
          done = count;
        }
      }
    }
    died = half == LaunchOutcome::kDeviceLost;
  } catch (const gpusim::DeviceLostError&) {
    // Death clamps every stream at the boundary (the card fell off the
    // bus); halves that completed before it keep their scores, the caller
    // re-splits the rest across the survivors.
    died = true;
  }
  dev.sync();
  const double delta = dev.busy_seconds() - before;
  if (done > 0) {
    device_confs_[d] += done;
    window_confs_[d] += done;
    window_seconds_[d] += delta;
  }
  if (died && done == 0) {
    // Nothing was credited, so the whole pipeline's time is lost with the
    // device (transient-retry losses are accounted inside the retry loop).
    faults_.time_lost_seconds += delta;
  }
  return done;
}

void MultiGpuBatchScorer::maybe_rebalance() {
  if (options_.dynamic || options_.faults.rebalance_batches == 0) return;
  if (++batches_dispatched_ % options_.faults.rebalance_batches != 0) return;
  const util::ArenaScope scope(arena_);
  util::ArenaVector<std::size_t> alive(arena_, quarantined_.size());
  alive_into(alive);
  if (alive.size() < 2) return;
  // Only rebalance from a complete observation window: every survivor must
  // have scored something since the last rebalance, else throughputs are
  // not comparable.
  double sum = 0.0;
  const std::span<double> throughput = arena_.make_span<double>(alive.size());
  for (std::size_t i = 0; i < alive.size(); ++i) {
    const std::size_t d = alive[i];
    if (window_confs_[d] == 0 || window_seconds_[d] <= 0.0) return;
    throughput[i] = static_cast<double>(window_confs_[d]) / window_seconds_[d];
    sum += throughput[i];
  }
  for (std::size_t i = 0; i < alive.size(); ++i) shares_[alive[i]] = throughput[i] / sum;
  ++faults_.rebalances;
  if (obs::Observer* o = options_.observer) {
    o->tracer.mark("rebalance", "sched", obs::kHostTrack,
                   static_cast<std::uint64_t>(node_seconds_ * 1e9));
    o->metrics.counter("sched.rebalances").add();
  }
  std::fill(window_confs_.begin(), window_confs_.end(), 0);
  std::fill(window_seconds_.begin(), window_seconds_.end(), 0.0);
}

void MultiGpuBatchScorer::dispatch(const scoring::PoseBatch& batch) {
  const std::size_t n = batch.n;
  if (n == 0) return;
  const double batch_start_s = node_seconds_;
  const auto n_dev = kernels_.size();
  // All per-batch bookkeeping (device snapshots, slice worklist, split
  // weights/counts) is carved from the member arena and released at the
  // end of the batch: after the first batch warms the chunks, dispatch()
  // performs zero heap allocations.
  const util::ArenaScope batch_scope(arena_);
  const std::span<double> before = arena_.make_span<double>(n_dev);
  for (std::size_t d = 0; d < n_dev; ++d) {
    before[d] = rt_.device(static_cast<int>(d)).busy_seconds();
  }
  const double cpu_before = cpu_ ? cpu_->busy_seconds() : 0.0;
  const bool overlapped = overlap_enabled();
  bool any_alive = false;
  for (std::size_t d = 0; d < n_dev; ++d) any_alive = any_alive || !quarantined_[d];

  // CPU tail partition (overlapped mode only): the host scores the batch's
  // last `cpu_tail_share` poses concurrently with the GPU pipelines; the
  // barrier below takes max(GPU pipelines, CPU tail).  With no GPU left the
  // whole batch goes through the serialized fallback path instead.
  std::size_t head = n;
  double tail_delta = 0.0;
  if (overlapped && options_.cpu_tail_share > 0.0 && any_alive) {
    const auto tail =
        static_cast<std::size_t>(static_cast<double>(n) * options_.cpu_tail_share);
    if (tail > 0) {
      head = n - tail;
      cpusim::CpuScoringEngine& cpu = engage_tail();
      const double tail_before = cpu.busy_seconds();
      cpu.score(batch.slice(head, tail));
      tail_delta = cpu.busy_seconds() - tail_before;
      cpu_tail_confs_ += tail;
      if (obs::Observer* o = options_.observer) {
        o->metrics.counter("sched.cpu_tail_poses").add(static_cast<double>(tail));
      }
    }
  }

  const std::span<std::size_t> confs_before = arena_.make_span<std::size_t>(n_dev);
  std::copy(device_confs_.begin(), device_confs_.end(), confs_before.begin());
  if (!overlapped) {
    // Algorithm 2: "Host_To_GPU(Scom, Stmp)" — the whole batch is uploaded
    // to every live GPU before each device launches on its stride.  The
    // overlapped path instead uploads per-pipeline halves inside
    // run_overlapped, hiding them behind the sibling half's kernel.
    for (std::size_t d = 0; d < n_dev; ++d) {
      if (quarantined_[d]) continue;
      rt_.device(static_cast<int>(d))
          .copy_to_device(gpusim::DeviceScoringKernel::kBytesPerPose * static_cast<double>(n));
    }
  }

  // One worklist of contiguous slices for both split policies.  Static
  // shares start from the whole head as one slice; the cooperative queue
  // starts from chunk_blocks-sized chunks.  A device that fails a slice is
  // quarantined and the undone rest goes back on the list, to be placed on
  // the survivors (a re-split) or, once none is left, on the CPU fallback.
  // Each push after the initial ones follows a quarantine, and a device is
  // quarantined at most once, so n_dev extra slots bound the list.
  const auto wpb = static_cast<std::size_t>(options_.kernel.warps_per_block);
  const std::size_t chunk =
      options_.dynamic ? std::max<std::size_t>(1, options_.chunk_blocks) * wpb : head;
  util::ArenaVector<Slice> pending(arena_, (head + chunk - 1) / chunk + n_dev);
  for (std::size_t lo = 0; lo < head; lo += chunk) {
    pending.push_back({lo, std::min(chunk, head - lo)});
  }
  std::reverse(pending.begin(), pending.end());  // pop_back walks ascending
  util::ArenaVector<std::size_t> alive(arena_, n_dev);
  const std::span<double> weights_buf = arena_.make_span<double>(n_dev);
  const std::span<std::size_t> counts_buf = arena_.make_span<std::size_t>(n_dev);
  while (!pending.empty()) {
    const Slice slice = pending.back();
    pending.pop_back();
    alive_into(alive);
    if (alive.empty()) {
      engage_cpu().score(batch.slice(slice.offset, slice.count));
      faults_.cpu_fallback_conformations += slice.count;
      if (obs::Observer* o = options_.observer) {
        o->metrics.counter("sched.cpu_fallback_poses").add(static_cast<double>(slice.count));
      }
      continue;
    }
    std::span<std::size_t> counts = counts_buf.first(1);
    if (options_.dynamic) {
      // The whole chunk goes to the live device whose virtual clock is
      // lowest (the one that would request work first), after the pull's
      // host dispatch latency.
      std::size_t d = alive[0];
      for (std::size_t cand : alive) {
        if (rt_.device(static_cast<int>(cand)).busy_seconds() <
            rt_.device(static_cast<int>(d)).busy_seconds()) {
          d = cand;
        }
      }
      rt_.device(static_cast<int>(d)).advance_seconds(kPullLatencySeconds);
      alive.clear();  // from here on: the devices the slice is placed on
      alive.push_back(d);
      counts[0] = slice.count;
    } else {
      // Static shares: split across the survivors, their shares
      // renormalized (equal weights once every share is zero).
      const std::span<double> weights = weights_buf.first(alive.size());
      std::fill(weights.begin(), weights.end(), 1.0);
      double wsum = 0.0;
      for (std::size_t i = 0; i < alive.size(); ++i) wsum += shares_[alive[i]];
      if (wsum > 0.0) {
        for (std::size_t i = 0; i < alive.size(); ++i) weights[i] = shares_[alive[i]];
      }
      counts = counts_buf.first(alive.size());
      split_batch_into(slice.count, options_.kernel.warps_per_block, weights, counts, arena_);
    }
    std::size_t offset = slice.offset;
    std::size_t scored = 0;  // poses of this slice whose scores reached the host
    for (std::size_t i = 0; i < alive.size(); ++i) {
      if (counts[i] == 0) continue;
      const std::size_t d = alive[i];
      // A failed slice keeps the poses that reached the host (both
      // overlapped halves merge back into one remainder); the rest is
      // requeued.
      std::size_t done = 0;
      const scoring::PoseBatch part = batch.slice(offset, counts[i]);
      if (overlapped) {
        done = run_overlapped(d, part);
      } else if (run_with_retries(d, part)) {
        done = counts[i];
      }
      if (done < counts[i]) {
        quarantine(d);
        pending.push_back({offset + done, counts[i] - done, true});
      }
      scored += done;
      offset += counts[i];
    }
    // A re-split is a requeued slice that surviving GPUs scored, in whole
    // or in part; one that only reaches the CPU fallback is not.
    if (slice.requeued && scored > 0) {
      ++faults_.resplits;
      if (obs::Observer* o = options_.observer) {
        o->tracer.mark("resplit", "fault", obs::kHostTrack,
                       static_cast<std::uint64_t>(node_seconds_ * 1e9),
                       {{"poses", static_cast<double>(slice.count)}});
        o->metrics.counter("sched.resplits").add();
      }
    }
  }

  if (!overlapped) {
    // "GPU_To_Host(Scom, Stmp)": each device returns the scores it
    // produced.  The overlapped path downloaded them inside the pipelines.
    for (std::size_t d = 0; d < n_dev; ++d) {
      const std::size_t scored = device_confs_[d] - confs_before[d];
      if (scored > 0) {
        rt_.device(static_cast<int>(d))
            .copy_from_device(gpusim::DeviceScoringKernel::kBytesPerScore *
                              static_cast<double>(scored));
      }
    }
  }

  double max_delta = 0.0;
  for (std::size_t d = 0; d < n_dev; ++d) {
    max_delta = std::max(max_delta,
                         rt_.device(static_cast<int>(d)).busy_seconds() - before[d]);
  }
  // The CPU tail ran concurrently with the GPU pipelines: the batch costs
  // the slower of the two.
  node_seconds_ += std::max(max_delta, tail_delta);
  // CPU fallback work happens after the failure is detected, so it
  // serializes behind the surviving devices' barrier.
  if (cpu_) node_seconds_ += cpu_->busy_seconds() - cpu_before;

  if (overlapped) {
    if (obs::Observer* o = options_.observer) {
      // Counterfactual: what the fully synchronous Algorithm 2 round would
      // have cost the barrier — whole-head upload, one kernel over the
      // device's scored poses, score download — maximized over the
      // participants.  The clamp keeps fault-path noise out of the counter.
      double serial_max = 0.0;
      for (std::size_t d = 0; d < n_dev; ++d) {
        const std::size_t scored = device_confs_[d] - confs_before[d];
        if (scored == 0 || !kernels_[d].has_value()) continue;
        const gpusim::DeviceScoringKernel& kern = *kernels_[d];
        const double serial_d = kern.upload_seconds(head) + kern.kernel_seconds(scored) +
                                kern.download_seconds(scored);
        serial_max = std::max(serial_max, serial_d);
      }
      const double saved = serial_max - std::max(max_delta, tail_delta);
      if (saved > 0.0) o->metrics.counter("sched.overlap.saved_seconds").add(saved);
    }
  }

  if (obs::Observer* o = options_.observer) {
    obs::Span s;
    s.name = "batch";
    s.category = "sched";
    s.device = obs::kHostTrack;
    s.start_ns = static_cast<std::uint64_t>(batch_start_s * 1e9);
    s.dur_ns = static_cast<std::uint64_t>((node_seconds_ - batch_start_s) * 1e9);
    s.args = {{"poses", static_cast<double>(n)}};
    o->tracer.record(std::move(s));
    o->metrics.counter("sched.batches").add();
    o->metrics.histogram("sched.batch_barrier_seconds").record(node_seconds_ - batch_start_s);
  }

  maybe_rebalance();
}

}  // namespace metadock::sched
