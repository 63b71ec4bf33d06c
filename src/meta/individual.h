// Candidate solutions ("individuals"/"conformations") and per-spot search
// state for the metaheuristic template.
#pragma once

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "scoring/pose.h"

namespace metadock::meta {

struct Individual {
  scoring::Pose pose;
  double score = std::numeric_limits<double>::infinity();
};

/// Sorts better (lower-energy) individuals first.
inline bool better(const Individual& a, const Individual& b) { return a.score < b.score; }

using Population = std::vector<Individual>;

/// Sorts by ascending score.  std::sort is not stable, but its permutation
/// is a function of the scores alone, so equal inputs sort identically.
inline void sort_by_score(std::span<Individual> set) { std::sort(set.begin(), set.end(), better); }

/// Include(Scom, S), the elitist merge: copies `scom` behind the first
/// `live` individuals of `s` and sorts those live + scom.size() slots, so
/// the best `live` of the union lead `s` (with live = 0, the sorted Scom
/// replaces the front of `s`).
inline void include_best(std::span<Individual> s, std::size_t live,
                         std::span<const Individual> scom) {
  if (s.size() < live + scom.size()) throw std::length_error("include_best: S too small");
  std::copy(scom.begin(), scom.end(), s.begin() + static_cast<std::ptrdiff_t>(live));
  sort_by_score(s.first(live + scom.size()));
}

}  // namespace metadock::meta
