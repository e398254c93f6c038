#ifndef PBSM_CORE_INDEX_BUILD_H_
#define PBSM_CORE_INDEX_BUILD_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/join_options.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"

namespace pbsm {

/// Scans a relation and extracts one (MBR, OID) key-pointer per tuple —
/// the first stage of bulk loading and of the PBSM filter step.
Result<std::vector<RTreeEntry>> ExtractKeyPointers(const HeapFile& heap);

/// Builds an R*-tree on `input` using the Paradise bulk-loading mechanism
/// (§4.1): extract key-pointers, spatially sort by the Hilbert value of the
/// MBR center, pack bottom-up. The sort is an external sort bounded by
/// `memory_budget` (runs spill through the buffer pool); when the relation
/// is already in Hilbert order — a clustered load — the sort is skipped,
/// which is the clustering saving of Figure 10. The tree carries quantized
/// node ribbons (rtree/node_ribbon.h).
Result<RStarTree> BuildIndexByBulkLoad(BufferPool* pool,
                                       const JoinInput& input,
                                       const std::string& index_name,
                                       double fill_factor,
                                       size_t memory_budget = 64ull << 20);

/// Builds an R*-tree on `input` with one Insert per tuple — the expensive
/// construction path the paper contrasts with bulk loading (§1).
Result<RStarTree> BuildIndexByInserts(BufferPool* pool,
                                      const JoinInput& input,
                                      const std::string& index_name);

}  // namespace pbsm

#endif  // PBSM_CORE_INDEX_BUILD_H_
