#include "mol/molecule.h"

namespace metadock::mol {

void Molecule::reserve(std::size_t n) {
  x_.reserve(n);
  y_.reserve(n);
  z_.reserve(n);
  elements_.reserve(n);
}

void Molecule::add_atom(Element e, const geom::Vec3& pos) {
  x_.push_back(pos.x);
  y_.push_back(pos.y);
  z_.push_back(pos.z);
  elements_.push_back(e);
}

std::vector<geom::Vec3> Molecule::positions() const {
  std::vector<geom::Vec3> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) out.push_back(position(i));
  return out;
}

geom::Aabb Molecule::bounds() const {
  geom::Aabb box;
  for (std::size_t i = 0; i < size(); ++i) box.extend(position(i));
  return box;
}

geom::Vec3 Molecule::centroid() const {
  if (empty()) return {};
  // Accumulate in double: centroids of ~10^4 float coordinates lose digits.
  double sx = 0.0, sy = 0.0, sz = 0.0;
  for (std::size_t i = 0; i < size(); ++i) {
    sx += x_[i];
    sy += y_[i];
    sz += z_[i];
  }
  const auto n = static_cast<double>(size());
  return {static_cast<float>(sx / n), static_cast<float>(sy / n), static_cast<float>(sz / n)};
}

float Molecule::radius_about_centroid() const {
  const geom::Vec3 c = centroid();
  float r2 = 0.0f;
  for (std::size_t i = 0; i < size(); ++i) {
    r2 = std::max(r2, position(i).distance2(c));
  }
  return std::sqrt(r2);
}

void Molecule::translate(const geom::Vec3& d) {
  for (std::size_t i = 0; i < size(); ++i) {
    x_[i] += d.x;
    y_[i] += d.y;
    z_[i] += d.z;
  }
}

void Molecule::transform(const geom::Transform& t) {
  for (std::size_t i = 0; i < size(); ++i) {
    set_position(i, t.apply(position(i)));
  }
}

void Molecule::center_at_origin() { translate(-centroid()); }

}  // namespace metadock::mol
