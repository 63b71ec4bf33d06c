#include "mol/molecule.h"

#include <gtest/gtest.h>

#include <numbers>

namespace metadock::mol {
namespace {

Molecule three_atoms() {
  Molecule m("m");
  m.add_atom(Element::kC, {0, 0, 0});
  m.add_atom(Element::kO, {3, 0, 0});
  m.add_atom(Element::kN, {0, 3, 0});
  return m;
}

TEST(Molecule, SizeAndAccessors) {
  const Molecule m = three_atoms();
  EXPECT_EQ(m.size(), 3u);
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.element(1), Element::kO);
  EXPECT_EQ(m.position(2), geom::Vec3(0, 3, 0));
  EXPECT_EQ(m.name(), "m");
}

TEST(Molecule, SpansMatchAtoms) {
  const Molecule m = three_atoms();
  EXPECT_EQ(m.xs().size(), 3u);
  EXPECT_FLOAT_EQ(m.xs()[1], 3.0f);
  EXPECT_FLOAT_EQ(m.ys()[2], 3.0f);
  EXPECT_EQ(m.elements()[0], Element::kC);
}

TEST(Molecule, CentroidIsMeanPosition) {
  const Molecule m = three_atoms();
  const geom::Vec3 c = m.centroid();
  EXPECT_NEAR(c.x, 1.0f, 1e-6f);
  EXPECT_NEAR(c.y, 1.0f, 1e-6f);
  EXPECT_NEAR(c.z, 0.0f, 1e-6f);
}

TEST(Molecule, EmptyCentroidIsOrigin) {
  const Molecule m;
  EXPECT_EQ(m.centroid(), geom::Vec3(0, 0, 0));
}

TEST(Molecule, BoundsCoverAllAtoms) {
  const Molecule m = three_atoms();
  const geom::Aabb b = m.bounds();
  EXPECT_EQ(b.lo, geom::Vec3(0, 0, 0));
  EXPECT_EQ(b.hi, geom::Vec3(3, 3, 0));
}

TEST(Molecule, TranslateMovesEveryAtom) {
  Molecule m = three_atoms();
  m.translate({1, 2, 3});
  EXPECT_EQ(m.position(0), geom::Vec3(1, 2, 3));
  EXPECT_EQ(m.position(1), geom::Vec3(4, 2, 3));
}

TEST(Molecule, CenterAtOriginZerosCentroid) {
  Molecule m = three_atoms();
  m.center_at_origin();
  EXPECT_NEAR(m.centroid().norm(), 0.0f, 1e-5f);
}

TEST(Molecule, TransformRotatesAboutOrigin) {
  Molecule m("t");
  m.add_atom(Element::kC, {1, 0, 0});
  geom::Transform t;
  t.rotation = geom::Quat::axis_angle({0, 0, 1}, std::numbers::pi_v<float> / 2);
  m.transform(t);
  EXPECT_NEAR(m.position(0).x, 0.0f, 1e-5f);
  EXPECT_NEAR(m.position(0).y, 1.0f, 1e-5f);
}

TEST(Molecule, RadiusAboutCentroid) {
  Molecule m("r");
  m.add_atom(Element::kC, {-2, 0, 0});
  m.add_atom(Element::kC, {2, 0, 0});
  EXPECT_NEAR(m.radius_about_centroid(), 2.0f, 1e-5f);
}

TEST(Molecule, TranslationPreservesRadius) {
  Molecule m = three_atoms();
  const float r = m.radius_about_centroid();
  m.translate({100, -50, 25});
  EXPECT_NEAR(m.radius_about_centroid(), r, 1e-3f);
}

TEST(Molecule, PayloadBytesScaleWithSize) {
  const Molecule m = three_atoms();
  EXPECT_EQ(m.payload_bytes(), 3u * (3 * 4 + 4 + 1));
}

TEST(Molecule, ReserveDoesNotChangeSize) {
  Molecule m;
  m.reserve(100);
  EXPECT_TRUE(m.empty());
}

}  // namespace
}  // namespace metadock::mol
