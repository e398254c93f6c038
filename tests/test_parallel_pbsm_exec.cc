#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <utility>

#include "common/thread_pool.h"
#include "core/spatial_join.h"
#include "datagen/loader.h"
#include "datagen/tiger_gen.h"
#include "tests/test_util.h"

namespace pbsm {
namespace {

using PairSet = std::set<std::pair<uint64_t, uint64_t>>;

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool tp(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    tp.Submit([&count] { count.fetch_add(1); });
  }
  tp.Wait();
  EXPECT_EQ(count.load(), 1000);
  // The pool is reusable for a second batch.
  tp.ParallelFor(64, [&count](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1064);
}

TEST(ThreadPoolTest, WorkStealingDrainsImbalancedQueues) {
  // One long task + many short ones: the short ones must finish via steals
  // while the long task's home worker is busy.
  ThreadPool tp(4);
  std::atomic<int> done{0};
  tp.Submit([&] {
    // Busy-wait until the short tasks are done (steals make this finite).
    while (done.load() < 100) std::this_thread::yield();
  });
  for (int i = 0; i < 100; ++i) {
    tp.Submit([&done] { done.fetch_add(1); });
  }
  tp.Wait();
  EXPECT_EQ(done.load(), 100);
}

class ParallelPbsmExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<StorageEnv>(1024 * kPageSize);
    TigerGenerator gen(TigerGenerator::Params{});
    PBSM_ASSERT_OK_AND_ASSIGN(
        StoredRelation roads,
        LoadRelation(env_->pool(), nullptr, "road", gen.GenerateRoads(1500)));
    PBSM_ASSERT_OK_AND_ASSIGN(
        StoredRelation hydro,
        LoadRelation(env_->pool(), nullptr, "hydro",
                     gen.GenerateHydrography(500)));
    roads_ = std::make_unique<StoredRelation>(std::move(roads));
    hydro_ = std::make_unique<StoredRelation>(std::move(hydro));
  }

  /// Runs the parallel executor through the facade.
  Result<JoinResult> RunParallel(const JoinOptions& opts,
                                 PairSet* pairs = nullptr,
                                 ParallelJoinStats* stats = nullptr) {
    JoinSpec spec;
    spec.method = JoinMethod::kParallelPbsm;
    spec.options = opts;
    spec.parallel_stats = stats;
    if (pairs != nullptr) {
      spec.sink = [pairs](Oid r, Oid s) {
        pairs->emplace(r.Encode(), s.Encode());
      };
    }
    return SpatialJoin(env_->pool(), roads_->AsInput(), hydro_->AsInput(),
                       spec);
  }

  PairSet SerialReference(SweepAlgorithm sweep, size_t budget) {
    JoinSpec spec;
    spec.options.memory_budget_bytes = budget;
    spec.options.sweep = sweep;
    PairSet expected;
    spec.sink = [&](Oid r, Oid s) {
      expected.emplace(r.Encode(), s.Encode());
    };
    auto result = SpatialJoin(env_->pool(), roads_->AsInput(),
                              hydro_->AsInput(), spec);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(expected.size(), 0u);
    return expected;
  }

  std::unique_ptr<StorageEnv> env_;
  std::unique_ptr<StoredRelation> roads_, hydro_;
};

TEST_F(ParallelPbsmExecTest, MatchesSerialAcrossThreadCountsAndSweeps) {
  for (const SweepAlgorithm sweep :
       {SweepAlgorithm::kForwardSweep, SweepAlgorithm::kIntervalTreeSweep}) {
    const PairSet expected = SerialReference(sweep, 1 << 20);
    for (const uint32_t threads : {1u, 2u, 8u}) {
      JoinOptions opts;
      opts.memory_budget_bytes = 1 << 20;
      opts.sweep = sweep;
      opts.num_threads = threads;
      PairSet got;
      ParallelJoinStats stats;
      auto result = RunParallel(opts, &got, &stats);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(got, expected)
          << threads << " threads, sweep " << static_cast<int>(sweep);
      // The sink saw each de-duplicated pair exactly once.
      EXPECT_EQ(result->num_results, got.size());
      EXPECT_EQ(stats.num_threads, threads);
      EXPECT_EQ(stats.worker_busy_seconds.size(), threads);
      EXPECT_GT(stats.TotalBusySeconds(), 0.0);
      // TotalBusySeconds sums per-task timings while the denominator is
      // per-worker busy time, which also covers timer and queue overhead
      // between tasks — so the ratio can land epsilon below 1.0.
      EXPECT_GE(stats.CriticalPathSpeedup(), 0.95);
    }
  }
}

TEST_F(ParallelPbsmExecTest, DefaultThreadCountUsesHardwareConcurrency) {
  JoinOptions opts;
  opts.memory_budget_bytes = 1 << 20;
  opts.num_threads = 0;  // Hardware concurrency.
  ParallelJoinStats stats;
  auto result = RunParallel(opts, nullptr, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(stats.num_threads, ThreadPool::DefaultThreads());
  EXPECT_GT(result->num_results, 0u);
}

TEST_F(ParallelPbsmExecTest, PartitionOverrideIsRespected) {
  JoinOptions opts;
  opts.memory_budget_bytes = 1 << 20;
  opts.num_threads = 2;
  opts.num_partitions_override = 3;
  auto result = RunParallel(opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->breakdown.num_partitions, 3u);
}

// The balance metric counts key pointers per partition, so thread timing
// cannot move it: two runs of one configuration agree exactly.
TEST_F(ParallelPbsmExecTest, SweepBalanceIsDeterministic) {
  JoinOptions opts;
  opts.memory_budget_bytes = 1 << 20;
  opts.num_threads = 4;
  opts.num_tiles = 64;
  ParallelJoinStats first, second;
  ASSERT_TRUE(RunParallel(opts, nullptr, &first).ok());
  ASSERT_TRUE(RunParallel(opts, nullptr, &second).ok());
  EXPECT_GT(first.SweepBalanceCov(), 0.0);
  EXPECT_EQ(first.SweepBalanceCov(), second.SweepBalanceCov());
  EXPECT_EQ(first.sweep_task_key_pointers, second.sweep_task_key_pointers);
}

TEST_F(ParallelPbsmExecTest, CostBreakdownHasAllPhases) {
  // No merge phase exists — its absence from the breakdown is the
  // observable contract of duplicate-free filtering.
  JoinOptions opts;
  opts.memory_budget_bytes = 1 << 20;
  opts.num_threads = 2;
  auto result = RunParallel(opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const JoinCostBreakdown& cost = result->breakdown;
  ASSERT_EQ(cost.phases.size(), 3u);
  EXPECT_EQ(cost.phases[0].first, "partition inputs");
  EXPECT_EQ(cost.phases[1].first, "filter partitions");
  EXPECT_EQ(cost.phases[2].first, "refinement");
  EXPECT_GT(cost.candidates, 0u);
  EXPECT_EQ(cost.duplicates_removed, 0u);
  EXPECT_GT(cost.Total().cpu_seconds, 0.0);
}

TEST_F(ParallelPbsmExecTest, MergeDedupModeIsIgnored) {
  // The merge-dedup reference point is the serial PBSM filter; the
  // parallel executor runs the two-layer filter under either mode and
  // returns the same pairs.
  JoinOptions opts;
  opts.memory_budget_bytes = 1 << 20;
  opts.num_threads = 2;
  PairSet two_layer, merge;
  ASSERT_TRUE(RunParallel(opts, &two_layer).ok());
  opts.dedup_mode = DedupMode::kMerge;
  auto result = RunParallel(opts, &merge);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(merge, two_layer);
  EXPECT_EQ(merge,
            SerialReference(SweepAlgorithm::kForwardSweep, 1 << 20));
  ASSERT_EQ(result->breakdown.phases.size(), 3u);
  EXPECT_EQ(result->breakdown.phases[1].first, "filter partitions");
}

}  // namespace
}  // namespace pbsm
