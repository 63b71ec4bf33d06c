// Structure-of-arrays molecule representation.
//
// Scoring iterates over every (receptor, ligand) atom pair, so coordinates
// are stored as parallel float arrays: the hot loops stream x/y/z/type
// contiguously, which is also exactly the layout the (virtual) GPU kernels
// tile through shared memory.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "geom/aabb.h"
#include "geom/transform.h"
#include "geom/vec3.h"
#include "mol/atom.h"

namespace metadock::mol {

class Molecule {
 public:
  Molecule() = default;
  explicit Molecule(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  [[nodiscard]] std::size_t size() const noexcept { return x_.size(); }
  [[nodiscard]] bool empty() const noexcept { return x_.empty(); }

  void reserve(std::size_t n);
  void add_atom(Element e, const geom::Vec3& pos);

  [[nodiscard]] geom::Vec3 position(std::size_t i) const { return {x_[i], y_[i], z_[i]}; }
  void set_position(std::size_t i, const geom::Vec3& p) {
    x_[i] = p.x;
    y_[i] = p.y;
    z_[i] = p.z;
  }
  [[nodiscard]] Element element(std::size_t i) const { return elements_[i]; }

  [[nodiscard]] std::span<const float> xs() const noexcept { return x_; }
  [[nodiscard]] std::span<const float> ys() const noexcept { return y_; }
  [[nodiscard]] std::span<const float> zs() const noexcept { return z_; }
  [[nodiscard]] std::span<const Element> elements() const noexcept { return elements_; }

  /// All positions as a vector (copies; for grid building etc.).
  [[nodiscard]] std::vector<geom::Vec3> positions() const;

  [[nodiscard]] geom::Aabb bounds() const;
  [[nodiscard]] geom::Vec3 centroid() const;

  /// Maximum distance of any atom from the centroid (the rigid-ligand
  /// "radius" used for clash-free pose initialization).
  [[nodiscard]] float radius_about_centroid() const;

  void translate(const geom::Vec3& d);

  /// Applies a rigid transform to every atom.
  void transform(const geom::Transform& t);

  /// Translates so that the centroid lands at the origin.  Ligands are kept
  /// centered so a conformation's position/orientation act about the center.
  void center_at_origin();

  /// Modelled transfer size of the atoms in the paper's GPU layout: three
  /// coordinates, a fourth float and the element per atom (17 bytes, as
  /// scoring::kModelBytesPerReceptorAtom), not this class's own footprint.
  [[nodiscard]] std::size_t payload_bytes() const noexcept {
    return size() * (3 * sizeof(float) + sizeof(float) + sizeof(Element));
  }

 private:
  std::string name_;
  std::vector<float> x_, y_, z_;
  std::vector<Element> elements_;
};

}  // namespace metadock::mol
