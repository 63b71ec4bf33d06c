#include "cpusim/cpu_engine.h"

#include "gpusim/scoring_kernel.h"

namespace metadock::cpusim {

CpuScoringEngine::CpuScoringEngine(CpuSpec spec, const scoring::LennardJonesScorer& scorer)
    : spec_(std::move(spec)), scorer_(scorer), batch_(scorer) {}

void CpuScoringEngine::score(const scoring::PoseBatch& batch) {
  gpusim::score_on_host(batch_, batch, observer_);
  const double pairs =
      static_cast<double>(scorer_.pairs_per_eval()) * static_cast<double>(batch.n);
  clock_.advance_seconds(scoring_time_s(spec_, pairs, receptor_bytes()));
}

}  // namespace metadock::cpusim
