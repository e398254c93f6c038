#include "geom/rect.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pbsm {
namespace {

TEST(RectTest, DefaultIsEmpty) {
  Rect r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.Area(), 0.0);
  EXPECT_EQ(r.width(), 0.0);
  EXPECT_EQ(r.Margin(), 0.0);
}

TEST(RectTest, BasicMetrics) {
  const Rect r(0, 0, 4, 3);
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.width(), 4.0);
  EXPECT_EQ(r.height(), 3.0);
  EXPECT_EQ(r.Area(), 12.0);
  EXPECT_EQ(r.Margin(), 7.0);
  EXPECT_EQ(r.Center(), (Point{2.0, 1.5}));
}

TEST(RectTest, IntersectsIsClosed) {
  const Rect a(0, 0, 1, 1);
  EXPECT_TRUE(a.Intersects(Rect(1, 1, 2, 2)));  // Corner touch.
  EXPECT_TRUE(a.Intersects(Rect(1, 0, 2, 1)));  // Edge touch.
  EXPECT_FALSE(a.Intersects(Rect(1.0001, 0, 2, 1)));
  EXPECT_TRUE(a.Intersects(a));
  EXPECT_TRUE(a.Intersects(Rect(0.25, 0.25, 0.75, 0.75)));  // Containment.
}

TEST(RectTest, EmptyNeverIntersects) {
  const Rect a(0, 0, 1, 1);
  const Rect empty;
  EXPECT_FALSE(a.Intersects(empty));
  EXPECT_FALSE(empty.Intersects(a));
  EXPECT_FALSE(empty.Intersects(empty));
  EXPECT_FALSE(a.Contains(empty));
}

TEST(RectTest, ContainsRectAndPoint) {
  const Rect a(0, 0, 10, 10);
  EXPECT_TRUE(a.Contains(Rect(0, 0, 10, 10)));  // Itself (closed).
  EXPECT_TRUE(a.Contains(Rect(2, 2, 8, 8)));
  EXPECT_FALSE(a.Contains(Rect(2, 2, 11, 8)));
  EXPECT_TRUE(a.Contains(Point{0, 0}));
  EXPECT_TRUE(a.Contains(Point{10, 10}));
  EXPECT_FALSE(a.Contains(Point{10.5, 5}));
}

TEST(RectTest, ExpandFromEmpty) {
  Rect r;
  r.Expand(Point{3, 4});
  EXPECT_EQ(r, Rect(3, 4, 3, 4));
  r.Expand(Point{-1, 10});
  EXPECT_EQ(r, Rect(-1, 4, 3, 10));
  Rect q;
  q.Expand(r);
  EXPECT_EQ(q, r);
}

TEST(RectTest, UnionAndIntersection) {
  const Rect a(0, 0, 4, 4);
  const Rect b(2, 2, 6, 6);
  EXPECT_EQ(Rect::Union(a, b), Rect(0, 0, 6, 6));
  EXPECT_EQ(Rect::Intersection(a, b), Rect(2, 2, 4, 4));
  EXPECT_EQ(Rect::OverlapArea(a, b), 4.0);
  EXPECT_TRUE(Rect::Intersection(a, Rect(5, 5, 6, 6)).empty());
  EXPECT_EQ(Rect::OverlapArea(a, Rect(5, 5, 6, 6)), 0.0);
}

TEST(RectTest, UnionWithEmptyIsIdentity) {
  const Rect a(1, 2, 3, 4);
  EXPECT_EQ(Rect::Union(a, Rect()), a);
  EXPECT_EQ(Rect::Union(Rect(), a), a);
}

class RectPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RectPropertyTest, IntersectionConsistentWithIntersects) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    auto rand_rect = [&]() {
      const double x = rng.UniformDouble(-10, 10);
      const double y = rng.UniformDouble(-10, 10);
      return Rect(x, y, x + rng.NextDouble() * 5, y + rng.NextDouble() * 5);
    };
    const Rect a = rand_rect();
    const Rect b = rand_rect();
    EXPECT_EQ(a.Intersects(b), !Rect::Intersection(a, b).empty());
    EXPECT_EQ(a.Intersects(b), b.Intersects(a));
    // Union contains both.
    const Rect u = Rect::Union(a, b);
    EXPECT_TRUE(u.Contains(a));
    EXPECT_TRUE(u.Contains(b));
    // Containment implies intersection.
    if (a.Contains(b)) {
      EXPECT_TRUE(a.Intersects(b));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RectPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 1996));

}  // namespace
}  // namespace pbsm
