#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/stopwatch.h"

namespace pbsm {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformRanges) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t u = rng.Uniform(7);
    EXPECT_LT(u, 7u);
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const double x = rng.UniformDouble(2.5, 7.5);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 7.5);
  }
}

TEST(RngTest, UniformCoversAllBuckets) {
  Rng rng(2);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.Uniform(10)];
  for (const int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(3);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(4);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(StatsTest, EmptySample) {
  const SampleStats s = ComputeStats(std::vector<double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.CoefficientOfVariation(), 0.0);
}

TEST(StatsTest, KnownSample) {
  const SampleStats s = ComputeStats(std::vector<double>{2, 4, 4, 4, 5, 5,
                                                         7, 9});
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);  // Classic textbook sample.
  EXPECT_DOUBLE_EQ(s.CoefficientOfVariation(), 0.4);
  EXPECT_EQ(s.min, 2.0);
  EXPECT_EQ(s.max, 9.0);
}

TEST(StatsTest, UniformDistributionHasZeroCov) {
  const SampleStats s =
      ComputeStats(std::vector<uint64_t>{100, 100, 100, 100});
  EXPECT_DOUBLE_EQ(s.CoefficientOfVariation(), 0.0);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + std::sqrt(i);
  const double t = watch.ElapsedSeconds();
  EXPECT_GT(t, 0.0);
  EXPECT_LT(t, 30.0);
  EXPECT_GE(watch.ElapsedMicros(), 0);
}

TEST(TimeAccumulatorTest, AccumulatesScopes) {
  TimeAccumulator acc;
  {
    TimeAccumulator::Scope scope(&acc);
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
  }
  const double once = acc.seconds();
  EXPECT_GT(once, 0.0);
  {
    TimeAccumulator::Scope scope(&acc);
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
  }
  EXPECT_GT(acc.seconds(), once);
  acc.Reset();
  EXPECT_EQ(acc.seconds(), 0.0);
}

}  // namespace
}  // namespace pbsm
