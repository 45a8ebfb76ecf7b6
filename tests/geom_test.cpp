// Unit tests for the geom module: points, rectangles, intervals, grids.
#include <gtest/gtest.h>

#include "geom/grid2d.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "util/error.h"

namespace fp {
namespace {

TEST(Point, Arithmetic) {
  const Point a{1.0, 2.0};
  const Point b{3.0, -1.0};
  EXPECT_EQ(a + b, (Point{4.0, 1.0}));
  EXPECT_EQ(a - b, (Point{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Point{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, (Point{2.0, 4.0}));
}

TEST(Point, Distances) {
  const Point a{0.0, 0.0};
  const Point b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(euclidean(a, b), 5.0);
  EXPECT_DOUBLE_EQ(manhattan(a, b), 7.0);
  EXPECT_DOUBLE_EQ(length(b), 5.0);
}

TEST(Point, DistanceIsSymmetric) {
  const Point a{1.5, -2.0};
  const Point b{-0.5, 7.0};
  EXPECT_DOUBLE_EQ(euclidean(a, b), euclidean(b, a));
  EXPECT_DOUBLE_EQ(manhattan(a, b), manhattan(b, a));
}

TEST(IPoint, Ordering) {
  EXPECT_LT((IPoint{1, 2}), (IPoint{2, 0}));
  EXPECT_EQ((IPoint{3, 4}), (IPoint{3, 4}));
}

TEST(Rect, BasicQueries) {
  const Rect r{0.0, 0.0, 4.0, 2.0};
  EXPECT_DOUBLE_EQ(r.width(), 4.0);
  EXPECT_DOUBLE_EQ(r.height(), 2.0);
  EXPECT_DOUBLE_EQ(r.area(), 8.0);
  EXPECT_EQ(r.center(), (Point{2.0, 1.0}));
  EXPECT_TRUE(r.valid());
}

TEST(Rect, Contains) {
  const Rect r{0.0, 0.0, 4.0, 2.0};
  EXPECT_TRUE(r.contains({2.0, 1.0}));
  EXPECT_TRUE(r.contains({0.0, 0.0}));  // boundary inclusive
  EXPECT_TRUE(r.contains({4.0, 2.0}));
  EXPECT_FALSE(r.contains({4.1, 1.0}));
  EXPECT_FALSE(r.contains({2.0, -0.1}));
}

TEST(Rect, UnitedCoversBoth) {
  const Rect a{0.0, 0.0, 1.0, 1.0};
  const Rect b{2.0, -1.0, 3.0, 0.5};
  const Rect u = a.united(b);
  EXPECT_DOUBLE_EQ(u.x0, 0.0);
  EXPECT_DOUBLE_EQ(u.y0, -1.0);
  EXPECT_DOUBLE_EQ(u.x1, 3.0);
  EXPECT_DOUBLE_EQ(u.y1, 1.0);
}

TEST(Rect, IntersectionOfDisjointIsInvalid) {
  const Rect a{0.0, 0.0, 1.0, 1.0};
  const Rect b{2.0, 2.0, 3.0, 3.0};
  EXPECT_FALSE(a.intersected(b).valid());
}

TEST(Rect, IntersectionOverlap) {
  const Rect a{0.0, 0.0, 2.0, 2.0};
  const Rect b{1.0, 1.0, 3.0, 3.0};
  const Rect i = a.intersected(b);
  EXPECT_TRUE(i.valid());
  EXPECT_DOUBLE_EQ(i.area(), 1.0);
}

TEST(Rect, Inflated) {
  const Rect r = Rect{1.0, 1.0, 2.0, 2.0}.inflated(0.5);
  EXPECT_DOUBLE_EQ(r.x0, 0.5);
  EXPECT_DOUBLE_EQ(r.y1, 2.5);
}

TEST(Grid2D, FillAndAccess) {
  Grid2D<int> g(3, 2, 7);
  EXPECT_EQ(g.width(), 3u);
  EXPECT_EQ(g.height(), 2u);
  EXPECT_EQ(g.size(), 6u);
  EXPECT_EQ(g.at(2, 1), 7);
  g.at(1, 0) = 42;
  EXPECT_EQ(g.at(1, 0), 42);
  EXPECT_EQ(g(1, 0), 42);
}

TEST(Grid2D, OutOfBoundsThrows) {
  Grid2D<int> g(3, 2);
  EXPECT_THROW((void)g.at(3, 0), InternalError);
  EXPECT_THROW((void)g.at(0, 2), InternalError);
}

TEST(Grid2D, FillResets) {
  Grid2D<double> g(4, 4, 1.0);
  g.fill(-2.5);
  for (const double v : g.data()) EXPECT_DOUBLE_EQ(v, -2.5);
}

TEST(Grid2D, DefaultIsEmpty) {
  Grid2D<int> g;
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.size(), 0u);
}

}  // namespace
}  // namespace fp
