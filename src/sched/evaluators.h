// meta::Evaluator adapter binding the metaheuristic engine to the
// simulated multicore CPU.
#pragma once

#include "cpusim/cpu_engine.h"
#include "meta/evaluator.h"

namespace metadock::sched {

/// Scores batches with the host threads while accumulating CPU-model
/// virtual time (the OpenMP baseline).
class CpuModelEvaluator final : public meta::Evaluator {
 public:
  CpuModelEvaluator(cpusim::CpuSpec spec, const scoring::LennardJonesScorer& scorer,
                    scoring::ScoringImpl impl = scoring::ScoringImpl::kAuto,
                    obs::Observer* observer = nullptr)
      : engine_(std::move(spec), scorer, impl) {
    engine_.set_observer(observer);
  }

  void evaluate(std::span<const scoring::Pose> poses, std::span<double> out) override {
    engine_.score(poses, out);
  }

  [[nodiscard]] double virtual_seconds() const override { return engine_.busy_seconds(); }

  [[nodiscard]] cpusim::CpuScoringEngine& engine() noexcept { return engine_; }

 private:
  cpusim::CpuScoringEngine engine_;
};

}  // namespace metadock::sched
