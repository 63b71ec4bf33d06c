// Select and Include on a population (std::vector<Individual>): sorting
// moves each pose together with its score, and the elitist merge keeps the
// best of S ∪ Scom.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "geom/quat.h"
#include "meta/individual.h"
#include "util/rng.h"

namespace metadock::meta {
namespace {

scoring::Pose sample_pose(std::uint64_t seed) {
  auto rng = util::stream(seed);
  scoring::Pose pose;
  pose.position = {static_cast<float>(rng.uniform(-10, 10)),
                   static_cast<float>(rng.uniform(-10, 10)),
                   static_cast<float>(rng.uniform(-10, 10))};
  pose.orientation = geom::random_quat(rng.uniformf(), rng.uniformf(), rng.uniformf());
  return pose;
}

bool same_pose(const scoring::Pose& a, const scoring::Pose& b) {
  return a.position.x == b.position.x && a.position.y == b.position.y &&
         a.position.z == b.position.z && a.orientation.w == b.orientation.w &&
         a.orientation.x == b.orientation.x && a.orientation.y == b.orientation.y &&
         a.orientation.z == b.orientation.z;
}

TEST(Population, SortByScoreKeepsEachPoseWithItsScore) {
  const std::vector<double> scores{4.0, -2.0, 7.0, 0.5, -9.0, 3.25};
  Population pop;
  for (std::size_t i = 0; i < scores.size(); ++i) pop.push_back({sample_pose(i), scores[i]});
  sort_by_score(pop);

  const std::vector<std::size_t> expected_order{4, 1, 3, 5, 0, 2};
  for (std::size_t i = 0; i < pop.size(); ++i) {
    EXPECT_DOUBLE_EQ(pop[i].score, scores[expected_order[i]]);
    EXPECT_TRUE(same_pose(pop[i].pose, sample_pose(expected_order[i]))) << i;
  }
}

TEST(Population, IncludeBestIsElitist) {
  Population s(6);
  const std::vector<double> base{1.0, 2.0, 3.0, 4.0};
  for (std::size_t i = 0; i < 4; ++i) s[i] = {sample_pose(i), base[i]};
  const Population scom{{sample_pose(10), 0.5},    // better than everything
                        {sample_pose(11), 99.0}};  // worse than everything

  include_best(s, 4, scom);

  EXPECT_DOUBLE_EQ(s[0].score, 0.5);
  EXPECT_TRUE(same_pose(s[0].pose, sample_pose(10)));
  EXPECT_DOUBLE_EQ(s[1].score, 1.0);
  EXPECT_TRUE(same_pose(s[1].pose, sample_pose(0)));
  EXPECT_DOUBLE_EQ(s[3].score, 3.0);  // the 99.0 and the old 4.0 fell off
  EXPECT_THROW(include_best(std::span(s).first(5), 4, scom), std::length_error);
}

}  // namespace
}  // namespace metadock::meta
