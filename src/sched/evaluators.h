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
                    obs::Observer* observer = nullptr)
      : engine_(std::move(spec), scorer) {
    engine_.set_observer(observer);
  }

  void evaluate(std::span<const scoring::Pose> poses, std::span<double> out) override {
    score(scoring::PoseBatch::real(poses, out));
  }

  /// Cost-only variant for trace replay (NodeExecutor::estimate).
  void evaluate_cost_only(std::size_t n) { score(scoring::PoseBatch::cost_only(n)); }

  [[nodiscard]] double virtual_seconds() const override { return engine_.busy_seconds(); }

  [[nodiscard]] cpusim::CpuScoringEngine& engine() noexcept { return engine_; }

  /// Conformations scored so far (real or cost-only).
  [[nodiscard]] std::size_t conformations() const noexcept { return conformations_; }

 private:
  void score(const scoring::PoseBatch& batch) {
    engine_.score(batch);
    conformations_ += batch.n;
  }

  cpusim::CpuScoringEngine engine_;
  std::size_t conformations_ = 0;
};

}  // namespace metadock::sched
