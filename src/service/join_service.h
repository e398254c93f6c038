#ifndef PBSM_SERVICE_JOIN_SERVICE_H_
#define PBSM_SERVICE_JOIN_SERVICE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/spatial_join.h"
#include "service/index_cache.h"
#include "service/join_router.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/heap_file.h"

namespace pbsm {

struct JoinServiceConfig {
  /// Concurrent query executors (each runs one join at a time).
  uint32_t num_workers = 2;

  /// Bounded request queue; a full queue rejects Submit with
  /// kResourceExhausted (backpressure, not unbounded buffering).
  size_t queue_capacity = 64;

  /// Per-query join knobs (memory budget, tiles, refinement mode, ...).
  /// `cancel` is overwritten per query; `num_threads` caps the parallel
  /// executor if the planner picks it.
  JoinOptions join_defaults;
};

/// Long-running in-process spatial-join service over the caller's buffer
/// pool: the JoinRouter scheduler over one borrowed shard. Datasets are
/// registered by name and read in place — no copy, no second pool, OIDs
/// and sinks exactly the caller's. It adds to the router's single-shard
/// behaviour only registration and the cache accessor; planning, index
/// caching, admission, timeouts, views, Explain and drain/abort Shutdown
/// are the scheduler's (see JoinRouter).
///
/// Thread-safety: every public method may be called from any thread. The
/// service borrows each HeapFile; the caller keeps ownership and must keep
/// it alive until DropDataset or shutdown.
class JoinService : public JoinRouter {
 public:
  JoinService(BufferPool* pool, JoinServiceConfig config);

  /// Registers `name` for use in requests. Scans the heap once to build
  /// the planner histogram and the MBR table used for window filtering
  /// (skipped when `build_stats` is false — the planner then falls back to
  /// catalog-only estimates and window queries are rejected).
  Status RegisterDataset(const std::string& name, const HeapFile* heap,
                         const RelationInfo& info, bool build_stats = true);

  IndexCache& cache() { return *shards().shard(0).cache; }
  size_t queue_depth() const { return JoinRouter::queue_depth(0); }
};

}  // namespace pbsm

#endif  // PBSM_SERVICE_JOIN_SERVICE_H_
