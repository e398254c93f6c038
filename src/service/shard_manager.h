#ifndef PBSM_SERVICE_SHARD_MANAGER_H_
#define PBSM_SERVICE_SHARD_MANAGER_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "core/selectivity.h"
#include "core/spatial_sharding.h"
#include "service/index_cache.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"

namespace pbsm {

struct ShardManagerConfig {
  uint32_t num_shards = 1;

  /// Buffer pool of EACH shard — shards do not share frames, so a sharded
  /// service multiplies its total memory by num_shards by design (that is
  /// the scaling story: independent pools stop serializing all traffic
  /// through one latch domain and one eviction clock).
  size_t shard_pool_bytes = 16ull << 20;

  /// Histogram grid used both for the one-time shard-layout computation and
  /// for each shard's per-slice planner histograms.
  uint32_t histogram_nx = 32;
  uint32_t histogram_ny = 32;

  /// Per-shard index cache (capacity is per shard, not global).
  IndexCache::Config cache;

  /// Disk model / retry policy of each shard's private DiskManager.
  DiskModel disk_model;
  IoRetryPolicy io_retry;

  /// Base directory for the per-shard scratch DiskManagers; empty picks a
  /// unique /tmp directory which is removed on destruction.
  std::string scratch_dir;
};

/// The shards a JoinRouter schedules over, in one of two modes:
///
///  - owned (ShardManager(config)): N vertical strips (ShardLayout), each
///    backed by its own DiskManager + BufferPool + IndexCache and holding a
///    replicated slice of every registered dataset;
///  - borrowed (ShardManager(pool)): one shard over the caller's own pool
///    and heaps — the single-node JoinService. Registration copies nothing:
///    the shard's dataset IS the caller's heap, so OIDs need no translation
///    and every pair is owned by the one strip.
///
/// Owned registration scans the caller's (global) heap once and routes each
/// tuple into every shard whose strip its MBR overlaps, building per-shard
/// heap slices, planner histograms, and the local-OID → (global OID, MBR)
/// maps the router's sinks use to translate results back into the caller's
/// OID space and to apply the border-ownership filter. Borrowed
/// registration only scans for the planner histogram and the MBR table
/// window queries filter on.
///
/// The owned layout is computed from the FIRST registered dataset's
/// histogram (replication-aware column loads; see ComputeShardLayout) and
/// frozen: all datasets must route under one layout or cross-dataset pairs
/// could land in a shard holding only one side. Register the dominant
/// dataset first for the best balance.
///
/// Thread-safety: registration calls are serialized internally; lookups and
/// shard access are safe concurrently with each other and with running
/// queries. A ShardDatasetRef returned by FindDataset stays valid after
/// DropDataset until released (queries keep their snapshot).
class ShardManager {
 public:
  /// One dataset's slice within one shard.
  struct ShardDataset {
    /// The slice heap (owned shards) or the caller's heap (borrowed).
    const HeapFile* heap = nullptr;
    std::unique_ptr<HeapFile> owned_heap;  ///< Null on a borrowed shard.
    RelationInfo info;               ///< Slice stats (global coordinates).
    std::optional<SpatialHistogram> histogram;  ///< Planner input.
    /// Slice Oid.Encode() -> Oid in the caller's global heap. Empty on a
    /// borrowed shard, whose OIDs already are the caller's.
    std::unordered_map<uint64_t, Oid> local_to_global;
    /// Slice Oid.Encode() -> feature MBR (window + ownership filters).
    std::unordered_map<uint64_t, Rect> mbrs;
  };
  using ShardDatasetRef = std::shared_ptr<const ShardDataset>;

  /// One shard: a full private storage stack, or the caller's pool. Member
  /// order is destruction order in reverse — the cache must die before the
  /// pool (it drops index files through it), the pool before the disk.
  struct Shard {
    uint32_t id = 0;
    std::string dir;
    std::unique_ptr<DiskManager> disk;        ///< Null when borrowed.
    std::unique_ptr<BufferPool> owned_pool;   ///< Null when borrowed.
    BufferPool* pool = nullptr;
    std::unique_ptr<IndexCache> cache;
    mutable std::mutex mutex;
    std::map<std::string, ShardDatasetRef> datasets;  ///< Guarded by mutex.
  };

  /// N owned shards with private storage stacks.
  explicit ShardManager(ShardManagerConfig config);
  /// One borrowed shard over `pool` (default histogram and cache config).
  explicit ShardManager(BufferPool* pool);
  ~ShardManager();

  ShardManager(const ShardManager&) = delete;
  ShardManager& operator=(const ShardManager&) = delete;

  /// Owned: scans `heap` and replicates its tuples into the shards (see
  /// class comment); the first call freezes the shard layout from this
  /// dataset's histogram, and the caller may drop `heap` afterwards.
  /// Borrowed: registers `heap` itself, which the caller must keep alive
  /// until DropDataset; `build_stats` false skips the scan (the planner
  /// falls back to catalog-only estimates and window queries are refused).
  /// Owned shards always build their statistics — ownership needs them.
  Status RegisterDataset(const std::string& name, const HeapFile* heap,
                         const RelationInfo& info, bool build_stats = true);

  /// Removes `name` from every shard and invalidates cached indexes over
  /// its slices. Running queries finish against their snapshot refs.
  Status DropDataset(const std::string& name);

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  bool borrowed() const { return borrowed_; }
  /// The frozen layout (by value: freezing races a pre-registration read
  /// otherwise). Cheap — num_shards-1 doubles.
  ShardLayout layout() const;
  Shard& shard(uint32_t i) { return *shards_[i]; }
  const Shard& shard(uint32_t i) const { return *shards_[i]; }

  Result<ShardDatasetRef> FindDataset(uint32_t shard,
                                      const std::string& name) const;

  /// Sum of pinned frames across all shard pools — the leak check the
  /// sharded tests assert to zero after every query settles.
  size_t total_pinned_frames() const;

 private:
  /// Computes and freezes the layout on first registration.
  Status EnsureLayout(const HeapFile* heap, const RelationInfo& info);
  Status RegisterBorrowed(const std::string& name, const HeapFile* heap,
                          const RelationInfo& info, bool build_stats);

  const ShardManagerConfig config_;
  const bool borrowed_;
  std::string base_dir_;
  bool owns_base_dir_ = false;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex layout_mutex_;
  bool layout_frozen_ = false;        ///< Guarded by layout_mutex_.
  ShardLayout layout_;                ///< Immutable once frozen.
  std::mutex register_mutex_;         ///< Serializes registrations.

  Counter* replicated_ = MetricsRegistry::Global().GetCounter(
      "service.shard.replicated_tuples");
};

}  // namespace pbsm

#endif  // PBSM_SERVICE_SHARD_MANAGER_H_
