// CPU scoring engine: really evaluates poses on the host (optionally across
// host threads) while accumulating virtual time from the CPU model — the
// OpenMP baseline of Tables 6-9.
#pragma once

#include "cpusim/cpu_spec.h"
#include "gpusim/virtual_clock.h"
#include "obs/observer.h"
#include "scoring/batch_engine.h"
#include "scoring/lennard_jones.h"
#include "scoring/pose.h"

namespace metadock::cpusim {

class CpuScoringEngine {
 public:
  CpuScoringEngine(CpuSpec spec, const scoring::LennardJonesScorer& scorer);

  /// Observability sink for real host throughput (nullable = off): the
  /// host.* scoring metrics defined in obs/host_metrics.h.
  void set_observer(obs::Observer* observer) noexcept { observer_ = observer; }

  /// Advances the virtual clock by the model for `batch.n` poses and, for
  /// a real batch, scores it on the host (gpusim::score_on_host).  A
  /// cost-only batch prices the same time (trace replay at paper scale).
  void score(const scoring::PoseBatch& batch);

  [[nodiscard]] const CpuSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] double busy_seconds() const noexcept { return clock_.seconds(); }
  [[nodiscard]] double energy_joules() const noexcept {
    return spec_.tdp_watts * busy_seconds();
  }
  void reset() noexcept { clock_.reset(); }

 private:
  [[nodiscard]] std::size_t receptor_bytes() const noexcept {
    return static_cast<std::size_t>(scoring::kModelBytesPerReceptorAtom *
                                    static_cast<double>(scorer_.receptor_size()));
  }

  CpuSpec spec_;
  const scoring::LennardJonesScorer& scorer_;
  scoring::BatchScoringEngine batch_;
  obs::Observer* observer_ = nullptr;
  gpusim::VirtualClock clock_;
};

}  // namespace metadock::cpusim
