#include "scoring/grid_scorer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "geom/cell_grid.h"
#include "scoring/pair_params.h"

namespace metadock::scoring {

GridScorer::GridScorer(const mol::Molecule& receptor, const mol::Molecule& ligand,
                       GridScorerOptions options)
    : options_(options), ligand_(LigandAtoms::from(ligand)) {
  if (receptor.empty() || ligand.empty()) {
    throw std::invalid_argument("GridScorer: receptor and ligand must be non-empty");
  }
  // The negated forms also refuse NaN.
  if (!(options_.spacing > 0.0f)) {
    throw std::invalid_argument("GridScorer: spacing must be positive");
  }
  if (!(options_.cutoff > 0.0f)) {
    throw std::invalid_argument("GridScorer: cutoff must be positive");
  }
  if (!(options_.padding >= 0.0f)) {
    throw std::invalid_argument("GridScorer: padding must be >= 0");
  }

  box_ = receptor.bounds();
  box_.pad(options_.padding);
  const geom::Vec3 size = box_.size();
  nx_ = static_cast<int>(std::floor(size.x / options_.spacing)) + 1;
  ny_ = static_cast<int>(std::floor(size.y / options_.spacing)) + 1;
  nz_ = static_cast<int>(std::floor(size.z / options_.spacing)) + 1;

  // Which probe elements do we need?
  std::array<bool, static_cast<std::size_t>(mol::kElementCount)> needed{};
  for (std::uint8_t t : ligand_.type) needed[t] = true;

  const std::vector<geom::Vec3> positions = receptor.positions();
  const geom::CellGrid cells = geom::CellGrid::over_points(positions, options_.cutoff);
  const PairTable& table = PairTable::instance();
  const float cutoff2 = options_.cutoff * options_.cutoff;

  for (int t = 0; t < mol::kElementCount; ++t) {
    if (needed[static_cast<std::size_t>(t)]) {
      type_grids_[static_cast<std::size_t>(t)].assign(grid_points(), 0.0f);
      ++grids_used_;
    }
  }

  // Fill all grids in one sweep over lattice nodes: gather the receptor
  // atoms within the cutoff once per node, then accumulate every probe.
  for (int iz = 0; iz < nz_; ++iz) {
    for (int iy = 0; iy < ny_; ++iy) {
      for (int ix = 0; ix < nx_; ++ix) {
        const geom::Vec3 p{box_.lo.x + static_cast<float>(ix) * options_.spacing,
                           box_.lo.y + static_cast<float>(iy) * options_.spacing,
                           box_.lo.z + static_cast<float>(iz) * options_.spacing};
        const std::size_t node =
            (static_cast<std::size_t>(iz) * ny_ + iy) * nx_ + static_cast<std::size_t>(ix);
        cells.for_each_within(p, options_.cutoff, [&](std::uint32_t id, const geom::Vec3& a) {
          const float r2 = std::max(p.distance2(a), detail::kMinR2);
          if (r2 > cutoff2) return;
          const float inv2 = 1.0f / r2;
          const float inv6 = inv2 * inv2 * inv2;
          const mol::Element re = receptor.element(id);
          for (int t = 0; t < mol::kElementCount; ++t) {
            auto& grid = type_grids_[static_cast<std::size_t>(t)];
            if (grid.empty()) continue;
            const PairCoeff& c = table.get(static_cast<mol::Element>(t), re);
            grid[node] += (c.a * inv6 - c.b) * inv6;
          }
        });
      }
    }
  }
}

double GridScorer::node_value(mol::Element e, int ix, int iy, int iz) const {
  const auto& grid = type_grids_[static_cast<std::size_t>(e)];
  if (grid.empty()) throw std::invalid_argument("GridScorer::node_value: no grid for element");
  if (ix < 0 || iy < 0 || iz < 0 || ix >= nx_ || iy >= ny_ || iz >= nz_) {
    throw std::out_of_range("GridScorer::node_value: node outside lattice");
  }
  return grid[(static_cast<std::size_t>(iz) * ny_ + iy) * nx_ + static_cast<std::size_t>(ix)];
}

double GridScorer::sample(const std::vector<float>& grid, const geom::Vec3& p,
                          bool& outside) const {
  const float fx = (p.x - box_.lo.x) / options_.spacing;
  const float fy = (p.y - box_.lo.y) / options_.spacing;
  const float fz = (p.z - box_.lo.z) / options_.spacing;
  const int ix = static_cast<int>(std::floor(fx));
  const int iy = static_cast<int>(std::floor(fy));
  const int iz = static_cast<int>(std::floor(fz));
  if (ix < 0 || iy < 0 || iz < 0 || ix + 1 >= nx_ || iy + 1 >= ny_ || iz + 1 >= nz_) {
    outside = true;
    return 0.0;
  }
  const float tx = fx - static_cast<float>(ix);
  const float ty = fy - static_cast<float>(iy);
  const float tz = fz - static_cast<float>(iz);
  auto at = [&](int dx, int dy, int dz) {
    return static_cast<double>(
        grid[(static_cast<std::size_t>(iz + dz) * ny_ + (iy + dy)) * nx_ +
             static_cast<std::size_t>(ix + dx)]);
  };
  const double c00 = at(0, 0, 0) * (1 - tx) + at(1, 0, 0) * tx;
  const double c10 = at(0, 1, 0) * (1 - tx) + at(1, 1, 0) * tx;
  const double c01 = at(0, 0, 1) * (1 - tx) + at(1, 0, 1) * tx;
  const double c11 = at(0, 1, 1) * (1 - tx) + at(1, 1, 1) * tx;
  const double c0 = c00 * (1 - ty) + c10 * ty;
  const double c1 = c01 * (1 - ty) + c11 * ty;
  return c0 * (1 - tz) + c1 * tz;
}

double GridScorer::score_transformed(const float* tx, const float* ty, const float* tz) const {
  double energy = 0.0;
  for (std::size_t j = 0; j < ligand_.size(); ++j) {
    const geom::Vec3 p{tx[j], ty[j], tz[j]};
    bool outside = false;
    const double e = sample(type_grids_[ligand_.type[j]], p, outside);
    energy += outside ? options_.out_of_box_penalty : e;
  }
  return energy;
}

double GridScorer::score(const Pose& pose) const {
  thread_local std::vector<float> tx, ty, tz;
  tx.resize(ligand_.size());
  ty.resize(ligand_.size());
  tz.resize(ligand_.size());
  detail::transform_ligand(ligand_, pose, tx.data(), ty.data(), tz.data());
  return score_transformed(tx.data(), ty.data(), tz.data());
}

void GridScorer::score_batch(std::span<const Pose> poses, std::span<double> out) const {
  if (poses.size() != out.size()) {
    throw std::invalid_argument("GridScorer::score_batch: size mismatch");
  }
  // Same pose-transform scratch scheme as the batched LJ engine: transform
  // the whole batch once, then interpolate from the packed coordinates.
  thread_local std::vector<float> tx, ty, tz;
  const std::size_t lig_n = ligand_.size();
  tx.resize(poses.size() * lig_n);
  ty.resize(poses.size() * lig_n);
  tz.resize(poses.size() * lig_n);
  for (std::size_t p = 0; p < poses.size(); ++p) {
    detail::transform_ligand(ligand_, poses[p], tx.data() + p * lig_n, ty.data() + p * lig_n,
                             tz.data() + p * lig_n);
  }
  for (std::size_t p = 0; p < poses.size(); ++p) {
    out[p] = score_transformed(tx.data() + p * lig_n, ty.data() + p * lig_n,
                               tz.data() + p * lig_n);
  }
}

}  // namespace metadock::scoring
