#include "service/index_cache.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "datagen/loader.h"
#include "datagen/tiger_gen.h"
#include "tests/test_util.h"

namespace pbsm {
namespace {

constexpr double kFill = 0.75;

class IndexCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TigerGenerator::Params params;
    params.seed = 7;
    TigerGenerator gen(params);
    roads_ = gen.GenerateRoads(300);
    hydro_ = gen.GenerateHydrography(150);
    rail_ = gen.GenerateRail(80);
  }

  std::vector<Tuple> roads_;
  std::vector<Tuple> hydro_;
  std::vector<Tuple> rail_;
};

TEST_F(IndexCacheTest, MissBuildsThenHitReuses) {
  StorageEnv env(1024 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(
      auto road, LoadRelation(env.pool(), nullptr, "road", roads_));
  IndexCache cache(env.pool(), {});
  // The hit/miss counters are process-global (shared registry), so tests
  // assert on deltas.
  const uint64_t hits0 = cache.hits(), misses0 = cache.misses();

  EXPECT_FALSE(cache.Contains(road.AsInput(), kFill));
  PBSM_ASSERT_OK_AND_ASSIGN(IndexCache::TreeRef first,
                            cache.GetOrBuild(road.AsInput(), kFill));
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(cache.Contains(road.AsInput(), kFill));
  EXPECT_EQ(cache.misses() - misses0, 1u);

  PBSM_ASSERT_OK_AND_ASSIGN(IndexCache::TreeRef second,
                            cache.GetOrBuild(road.AsInput(), kFill));
  EXPECT_EQ(first.get(), second.get());  // Same tree, not a rebuild.
  EXPECT_EQ(cache.hits() - hits0, 1u);
  EXPECT_EQ(cache.misses() - misses0, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(IndexCacheTest, DifferentFillFactorIsADifferentEntry) {
  StorageEnv env(1024 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(
      auto road, LoadRelation(env.pool(), nullptr, "road", roads_));
  IndexCache cache(env.pool(), {});
  PBSM_ASSERT_OK_AND_ASSIGN(IndexCache::TreeRef a,
                            cache.GetOrBuild(road.AsInput(), 0.75));
  PBSM_ASSERT_OK_AND_ASSIGN(IndexCache::TreeRef b,
                            cache.GetOrBuild(road.AsInput(), 0.95));
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(IndexCacheTest, LruEvictionAtCapacity) {
  StorageEnv env(2048 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(
      auto road, LoadRelation(env.pool(), nullptr, "road", roads_));
  PBSM_ASSERT_OK_AND_ASSIGN(
      auto hydro, LoadRelation(env.pool(), nullptr, "hydro", hydro_));
  IndexCache::Config config;
  config.capacity = 1;
  config.num_shards = 1;  // One shard so the capacity bound is exact.
  IndexCache cache(env.pool(), config);
  const uint64_t evictions0 = cache.evictions();

  PBSM_ASSERT_OK_AND_ASSIGN(IndexCache::TreeRef road_tree,
                            cache.GetOrBuild(road.AsInput(), kFill));
  PBSM_ASSERT_OK_AND_ASSIGN(IndexCache::TreeRef hydro_tree,
                            cache.GetOrBuild(hydro.AsInput(), kFill));
  EXPECT_EQ(cache.evictions() - evictions0, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Contains(road.AsInput(), kFill));
  EXPECT_TRUE(cache.Contains(hydro.AsInput(), kFill));

  // The evicted tree stays alive for its holder (pinning contract): its
  // index file is still present in the pool until the last ref dies.
  ASSERT_NE(road_tree, nullptr);
  EXPECT_NE(road_tree->file(), kInvalidFileId);
}

TEST_F(IndexCacheTest, InvalidateDatasetRemovesItsEntries) {
  StorageEnv env(2048 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(
      auto road, LoadRelation(env.pool(), nullptr, "road", roads_));
  PBSM_ASSERT_OK_AND_ASSIGN(
      auto rail, LoadRelation(env.pool(), nullptr, "rail", rail_));
  IndexCache cache(env.pool(), {});
  PBSM_ASSERT_OK_AND_ASSIGN(IndexCache::TreeRef a,
                            cache.GetOrBuild(road.AsInput(), kFill));
  PBSM_ASSERT_OK_AND_ASSIGN(IndexCache::TreeRef b,
                            cache.GetOrBuild(rail.AsInput(), kFill));
  a.reset();
  b.reset();
  EXPECT_EQ(cache.size(), 2u);

  cache.InvalidateDataset("road");
  EXPECT_FALSE(cache.Contains(road.AsInput(), kFill));
  EXPECT_TRUE(cache.Contains(rail.AsInput(), kFill));
  EXPECT_EQ(cache.size(), 1u);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(IndexCacheTest, DroppingTheHeapFileInvalidatesViaListener) {
  StorageEnv env(2048 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(
      auto road, LoadRelation(env.pool(), nullptr, "road", roads_));
  IndexCache cache(env.pool(), {});
  {
    PBSM_ASSERT_OK_AND_ASSIGN(IndexCache::TreeRef tree,
                              cache.GetOrBuild(road.AsInput(), kFill));
  }
  EXPECT_TRUE(cache.Contains(road.AsInput(), kFill));

  // Storage-level drop of the dataset's heap file: the cache's registered
  // drop listener must invalidate the tree without any explicit call.
  PBSM_ASSERT_OK(env.pool()->DropFile(road.info.file));
  EXPECT_FALSE(cache.Contains(road.AsInput(), kFill));
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(IndexCacheTest, ConcurrentRequestsBuildExactlyOnce) {
  StorageEnv env(2048 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(
      auto road, LoadRelation(env.pool(), nullptr, "road", roads_));
  IndexCache cache(env.pool(), {});
  const uint64_t misses0 = cache.misses();

  constexpr int kThreads = 8;
  std::vector<IndexCache::TreeRef> trees(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto tree = cache.GetOrBuild(road.AsInput(), kFill);
      if (tree.ok()) trees[i] = std::move(tree).value();
    });
  }
  for (std::thread& t : threads) t.join();

  // Thundering-herd protection: one bulk load, everyone shares it.
  EXPECT_EQ(cache.misses() - misses0, 1u);
  ASSERT_NE(trees[0], nullptr);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(trees[i].get(), trees[0].get());
  }
}

TEST_F(IndexCacheTest, NoPinnedFramesAfterTeardown) {
  StorageEnv env(2048 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(
      auto road, LoadRelation(env.pool(), nullptr, "road", roads_));
  {
    IndexCache cache(env.pool(), {});
    PBSM_ASSERT_OK_AND_ASSIGN(IndexCache::TreeRef tree,
                              cache.GetOrBuild(road.AsInput(), kFill));
    EXPECT_NE(tree, nullptr);
  }
  EXPECT_EQ(env.pool()->pinned_frames(), 0u);
}

}  // namespace
}  // namespace pbsm
