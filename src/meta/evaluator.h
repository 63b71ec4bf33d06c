// Scoring back-end interface for the metaheuristic engine.
//
// The engine gathers every conformation that needs scoring in a phase into
// one batch — the set the paper ships to the GPUs as "CUDA thread blocks"
// (one warp per conformation).  Implementations are: direct host scoring
// (tests/examples), the CPU-model engine (OpenMP column), and the multi-GPU
// executors in `sched`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "scoring/batch_engine.h"
#include "scoring/lennard_jones.h"
#include "scoring/pose.h"

namespace metadock::scoring {

/// Read-only columnar view over `n` poses.  Columns are parallel arrays;
/// the view does not own them and must not outlive the backing storage.
struct PoseSoAView {
  const float* px = nullptr;
  const float* py = nullptr;
  const float* pz = nullptr;
  const float* qw = nullptr;
  const float* qx = nullptr;
  const float* qy = nullptr;
  const float* qz = nullptr;
  std::size_t n = 0;

  [[nodiscard]] std::size_t size() const { return n; }

  [[nodiscard]] Pose get(std::size_t i) const {
    Pose p;
    p.position = {px[i], py[i], pz[i]};
    p.orientation = {qw[i], qx[i], qy[i], qz[i]};
    return p;
  }
};

}  // namespace metadock::scoring

namespace metadock::meta {

class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// Scores every pose into out (same indexing).  Must be deterministic in
  /// the poses — results may not depend on batch splitting.
  virtual void evaluate(std::span<const scoring::Pose> poses, std::span<double> out) = 0;

  /// Columnar adapter: repacks the columns into Pose structs and forwards
  /// to evaluate().  Nothing in src/ calls it; it stays only because
  /// e2ebench/e2e_bench.cpp's timing decorator overrides it.
  virtual void evaluate_soa(const scoring::PoseSoAView& poses, std::span<double> out) {
    std::vector<scoring::Pose> aos(poses.size());
    for (std::size_t i = 0; i < poses.size(); ++i) aos[i] = poses.get(i);
    evaluate(aos, out);
  }

  /// Virtual seconds consumed by this evaluator's backing resources so far
  /// (the barrier-aware node time for multi-device evaluators).  Gives the
  /// observability layer a timeline for engine-level spans; evaluators
  /// without a clock (host scoring in tests) report 0.
  [[nodiscard]] virtual double virtual_seconds() const { return 0.0; }
};

/// Adapts any batch-scoring callable (e.g. scoring::GridScorer) to the
/// Evaluator interface: Fn(std::span<const Pose>, std::span<double>).
template <typename Fn>
class CallableEvaluator final : public Evaluator {
 public:
  explicit CallableEvaluator(Fn fn) : fn_(std::move(fn)) {}

  void evaluate(std::span<const scoring::Pose> poses, std::span<double> out) override {
    fn_(poses, out);
    evals_ += poses.size();
  }

  [[nodiscard]] std::uint64_t evaluations() const noexcept { return evals_; }

 private:
  Fn fn_;
  std::uint64_t evals_ = 0;
};

/// Scores on the calling thread with the batched engine (pose-blocked,
/// type-partitioned; SIMD when available) — the fast host path for tests,
/// examples and tools that do not need a simulated device behind them.
class BatchedEvaluator final : public Evaluator {
 public:
  explicit BatchedEvaluator(const scoring::LennardJonesScorer& scorer,
                            scoring::BatchEngineOptions options = {})
      : engine_(scorer, options) {}

  void evaluate(std::span<const scoring::Pose> poses, std::span<double> out) override {
    engine_.score_batch(poses, out);
    evals_ += poses.size();
  }

  [[nodiscard]] const scoring::BatchScoringEngine& engine() const noexcept { return engine_; }
  [[nodiscard]] std::uint64_t evaluations() const noexcept { return evals_; }

 private:
  scoring::BatchScoringEngine engine_;
  std::uint64_t evals_ = 0;
};

}  // namespace metadock::meta
