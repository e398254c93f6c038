#ifndef PBSM_SERVICE_JOIN_PLANNER_H_
#define PBSM_SERVICE_JOIN_PLANNER_H_

#include <string>
#include <vector>

#include "core/refinement_engine.h"
#include "core/selectivity.h"
#include "core/spatial_join.h"
#include "service/shard_manager.h"
#include "storage/catalog.h"

namespace pbsm {

/// Everything the planner knows about one join input. `histogram` may be
/// null (catalog-only costing falls back to EstimateCandidatePairs);
/// `index_cached` reflects the service's IndexCache, letting warm queries
/// skip the index-build term of the R-tree methods.
struct PlannerSide {
  const RelationInfo* info = nullptr;
  const SpatialHistogram* histogram = nullptr;
  bool index_cached = false;
};

/// One costed alternative, for explain output and planner tests.
struct MethodCost {
  JoinMethod method = JoinMethod::kPbsm;
  double estimated_seconds = 0.0;
};

/// One operator of the planned tree, pre-order with explicit nesting depth
/// (0 = root; a node's children follow it at depth + 1). `op` matches the
/// exec-layer operator key (`refine`, `filter_join`, ...) so explain output
/// lines up with the `exec.<op>.*` metrics the execution will emit.
/// `est_rows` is the planner's row-count estimate flowing *out* of the
/// operator — an upper bound for refine, whose output selectivity the
/// planner does not model.
struct PlanOpEstimate {
  int depth = 0;
  std::string op;
  std::string detail;
  double est_rows = 0.0;
  double est_seconds = 0.0;
};

/// The planner's decision: the method to run plus the full cost table it
/// was picked from (ascending by cost) and the shared candidate estimate.
struct PlanChoice {
  JoinMethod method = JoinMethod::kPbsm;
  double estimated_seconds = 0.0;
  double estimated_candidates = 0.0;
  /// Cell-grid precision for adaptive refinement, derived from the catalog
  /// extent statistics of both inputs (ChooseGridOrder) — the service
  /// writes it into JoinOptions::refine.grid_order so every executor
  /// rasterizes at the planner's precision instead of re-deriving it.
  uint32_t grid_order = 0;
  std::vector<MethodCost> alternatives;  ///< All six, cheapest first.
  /// Pre-order operator tree the exec layer will build for the chosen
  /// method, with the per-method cost split onto the operators that pay it.
  std::vector<PlanOpEstimate> operator_tree;

  /// "pbsm(0.29s) > rtree(0.41s) > ..." for logs and `serve` explain.
  std::string ToString() const;
  /// Indented one-operator-per-line rendering of `operator_tree` with the
  /// per-operator row and cost estimates, for `--explain`.
  std::string TreeString() const;
};

/// Cost-model coefficients (seconds per unit work), calibrated on the
/// repo's TIGER-style workloads. The absolute scale does not need to match
/// any particular host — only the *ratios* between methods matter, since
/// the planner picks an argmin. Overridable for tests.
struct PlannerCosts {
  /// Refinement of one candidate pair, at the reference complexity of ~30
  /// combined vertices per pair (scaled by the actual average).
  double refine_per_candidate = 4.2e-6;
  double pbsm_per_tuple = 1.0e-6;        ///< Partition + sweep, per tuple.
  double parallel_overhead_per_tuple = 0.3e-6;
  double parallel_scaling = 0.85;        ///< Per-extra-thread efficiency.
  double index_build_per_tuple_log = 1.2e-7;  ///< x n*log2(n), per side.
  double rtree_traverse_per_tuple = 3.0e-7;
  double inl_probe_log = 3.0e-6;         ///< x n_probe*log2(n_indexed).

  /// Discount on the index-scan terms (rtree traversal, INL probes): node
  /// scans of bulk-loaded trees run on the in-memory quantized ribbons
  /// instead of AoS page parsing — calibrated from bench_micro_rtree
  /// --compare-layouts, where the ribbon probe path runs at >= 2x the AoS
  /// path.
  double simd_node_scan_factor = 0.5;
  double hash_per_tuple = 2.3e-6;
  double zorder_per_tuple = 2.0e-6;
  double zorder_candidate_inflation = 4.0;  ///< Z-cell false-positive factor.

  /// Merge-dedup of one candidate pair — the phase the two-layer filter
  /// deletes. Charged to serial pbsm only, under DedupMode::kMerge (the
  /// parallel executor is always two-layer).
  double merge_dedup_per_candidate = 1.1e-6;
  /// Dedup scheme the serial PBSM filter will run with; mirrors
  /// JoinOptions::dedup_mode (same default).
  DedupMode dedup_mode = DedupMode::kTwoLayer;

  /// Refinement strategy the join will run with; mirrors
  /// JoinOptions::refine.mode (same default). Under the adaptive modes the
  /// per-candidate refinement cost splits into a cheap cell test for every
  /// candidate plus the full exact predicate on only the boundary-collision
  /// fraction.
  RefineMode refine_mode = RefineMode::kExact;
  /// Cell classification + amortized cover build, per candidate pair.
  double cell_test_per_candidate = 0.7e-6;
  /// Fraction of candidates the cell filter cannot settle (boundary
  /// collisions and short-run exact fallbacks), measured on the TIGER-style
  /// workloads. Those pairs still pay refine_per_candidate.
  double adaptive_exact_fraction = 0.15;
};

/// Costs all six join methods for r JOIN s and returns the cheapest.
/// `num_threads` is the worker count the parallel executor would get
/// (0 = hardware concurrency, mirroring JoinOptions::num_threads).
PlanChoice PlanJoin(const PlannerSide& r, const PlannerSide& s,
                    uint32_t num_threads = 0,
                    const PlannerCosts& costs = PlannerCosts());

/// The planner call every service path shares — sub-join execution,
/// Explain and PlanShardedJoin: costs r JOIN s over one shard's datasets
/// from their statistics and that shard's index-cache warmth, under the
/// knobs the join will run with (threads, dedup scheme, refinement mode,
/// index fill factor).
PlanChoice PlanShardSlices(const ShardManager::ShardDataset& r,
                           const ShardManager::ShardDataset& s,
                           const IndexCache& cache,
                           const JoinOptions& options);

/// Plan of one shard's sub-join within a sharded query.
struct ShardSlicePlan {
  uint32_t shard = 0;
  uint64_t r_cardinality = 0;
  uint64_t s_cardinality = 0;
  PlanChoice choice;  ///< Default-initialized when the slice pair is empty.
};

/// The router's scatter as the planner sees it: one independently costed
/// plan per shard. Methods may differ across shards — each slice is costed
/// from that shard's own statistics and index-cache state.
struct ShardedPlan {
  std::vector<ShardSlicePlan> slices;
  /// max over slices of estimated_seconds — the scatter's estimated
  /// latency on a host with one core per shard.
  double critical_path_seconds = 0.0;
  /// sum over slices — the estimated single-core (work) cost.
  double serial_seconds = 0.0;

  /// One line per shard plus the critical-path/serial totals.
  std::string ToString() const;
};

/// Costs r JOIN s per shard of `shards` (shard-aware costing: each slice's
/// histogram, cardinalities, and cache warmth). Empty slice pairs get a
/// zero-cost entry. `options` must match what the router will run with, so
/// cache-warmth checks hit the same entries.
Result<ShardedPlan> PlanShardedJoin(const ShardManager& shards,
                                    const std::string& r_dataset,
                                    const std::string& s_dataset,
                                    const JoinOptions& options = JoinOptions());

}  // namespace pbsm

#endif  // PBSM_SERVICE_JOIN_PLANNER_H_
