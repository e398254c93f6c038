// Per-layer numbers of the traced run: outside-in timing probes that call a
// layer's public functions on a workload's own data, and the one place
// that turns a workload's measurements into the per-layer metric table.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/join_options.h"
#include "harness.h"
#include "reference.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/tuple.h"

namespace perfbench {

/// Mean microseconds of DiskManager::ReadPage (or, with `write`, of
/// rewriting each page's current bytes with WritePage) over the heap's
/// pages, cycling through them `rounds` times.
double ProbeDiskPageUs(pbsm::DiskManager* disk, const pbsm::HeapFile& heap,
                       bool write, int rounds);

/// Mean nanoseconds of the exact predicate over a fixed, seeded sample of
/// the reference's MBR-overlapping pairs.
double ProbePredicateNs(const std::vector<RefPair>& pairs,
                        const std::vector<RefItem>& r,
                        const std::vector<RefItem>& s,
                        pbsm::SpatialPredicate pred, uint64_t seed);

/// Mean microseconds of HeapFile::Append of the given tuples' records into
/// a scratch heap in `pool`.
double ProbeHeapAppendUs(pbsm::BufferPool* pool,
                         const std::vector<pbsm::Tuple>& tuples);

/// Median seconds of BuildIndexByBulkLoad over `input` (three builds); the
/// last tree is kept in `*tree` for the window probe.
double ProbeRtreeBuildS(pbsm::BufferPool* pool, const pbsm::JoinInput& input,
                        std::optional<pbsm::RStarTree>* tree);

/// Mean microseconds of RStarTree::WindowQuery over the given windows.
double ProbeWindowQueryUs(const pbsm::RStarTree& tree,
                          const std::vector<pbsm::Rect>& windows);

/// Everything a workload measured that feeds the per-layer table. Fields a
/// workload does not exercise stay 0 and are reported as 0.
struct LayerInputs {
  // Set-up spans (medians over the set-up repetitions).
  double generate_s = 0, load_s = 0, register_s = 0, view_build_s = 0;

  // Probes.
  double read_page_us = 0, write_page_us = 0, heap_append_us = 0;
  double intersects_ns = 0, contains_ns = 0;
  double rtree_build_s = 0, window_query_us = 0;

  // Operations completed in the measured window; counts below are divided
  // by it.
  uint64_t ops = 0;
  /// Joins among those operations (normalizes the core.* counts).
  uint64_t joins = 0;
  double disk_reads = 0, random_reads = 0, disk_writes = 0;  ///< Totals.
  double modeled_io_s = 0, paper_s = 0;                      ///< Totals.
  CounterWindow counters;

  // Traced-window attribution and overhead.
  LayerTimes layers;
  Samples traced_latency, untraced_latency;

  // View maintenance.
  Samples view_insert_s, view_delete_s, view_query_s, write_s;

  // Service responses.
  Samples queue_s, exec_s;
  std::map<std::string, uint64_t> plan_mix;  ///< Method name -> queries.
  uint64_t plan_total = 0;
  Samples shard_critical_s, shard_skew, shard_stolen;
};

/// Adds every per-layer metric to `report`, in a fixed order.
void EmitPerLayer(const LayerInputs& in, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
