#ifndef PBSM_CORE_PARALLEL_STATS_H_
#define PBSM_CORE_PARALLEL_STATS_H_

#include <cstdint>
#include <vector>

namespace pbsm {

/// Execution statistics of one parallel PBSM run (JoinMethod::kParallelPbsm
/// through the SpatialJoin facade), beyond the cost breakdown: per-phase
/// wall times and per-worker/per-task busy times for load-balance and
/// scalability analysis. Request one via JoinSpec::parallel_stats.
struct ParallelJoinStats {
  uint32_t num_threads = 0;

  double partition_wall_seconds = 0.0;  ///< Parallel filter scan + route.
  /// Concurrent per-partition duplicate-free mini-joins.
  double sweep_wall_seconds = 0.0;
  double refine_wall_seconds = 0.0;     ///< Parallel sharded refinement.
  double total_wall_seconds = 0.0;

  /// Busy seconds per pool worker, summed over every task it executed
  /// (all phases). Work-stealing makes the assignment dynamic.
  std::vector<double> worker_busy_seconds;
  /// Busy seconds of each phase-1 range-scan task (2 x threads tasks:
  /// one per input chunk).
  std::vector<double> partition_task_seconds;
  /// Busy seconds of each per-partition sweep task (empty pairs included
  /// as 0 so the index matches the partition number).
  std::vector<double> sweep_task_seconds;
  /// Busy seconds of each refinement shard task.
  std::vector<double> refine_task_seconds;
  /// Key pointers (both sides) each per-partition filter task joined; 0
  /// where either side was empty and no sweep ran. Unlike the task times,
  /// a pure function of the data and the partitioning.
  std::vector<uint64_t> sweep_task_key_pointers;

  /// Coefficient of variation of the non-empty partitions' key-pointer
  /// counts — the partition-balance metric (the parallel analogue of
  /// Figure 4). Deterministic: two runs of one configuration agree exactly.
  double SweepBalanceCov() const;

  /// Sum of all task busy seconds (the single-thread work equivalent).
  double TotalBusySeconds() const;

  /// TotalBusySeconds / max worker busy seconds: the speedup a machine with
  /// one core per worker would achieve on this task decomposition. On a
  /// host with fewer cores than workers, wall-clock speedup is capped by
  /// the hardware while this metric still reflects the decomposition.
  double CriticalPathSpeedup() const;
};

}  // namespace pbsm

#endif  // PBSM_CORE_PARALLEL_STATS_H_
