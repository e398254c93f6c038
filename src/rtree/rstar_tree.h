#ifndef PBSM_RTREE_RSTAR_TREE_H_
#define PBSM_RTREE_RSTAR_TREE_H_

#include <functional>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/plane_sweep_join.h"
#include "geom/rect.h"
#include "rtree/node_layout.h"
#include "rtree/node_ribbon.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace pbsm {

/// One R-tree entry: a bounding rectangle plus a 64-bit handle.
/// In internal nodes the handle is a child page number; in leaves it is the
/// encoded OID of the indexed tuple (the paper's key-pointer).
struct RTreeEntry {
  Rect mbr;
  uint64_t handle = 0;
};

/// Shape statistics for a built tree (Table 2/3's "R*-tree size" column).
struct RTreeStats {
  uint16_t height = 0;         ///< Number of levels (1 = root-only leaf).
  uint32_t num_nodes = 0;
  uint64_t num_entries = 0;    ///< Leaf-level entries.
  uint64_t size_bytes = 0;     ///< num_nodes * page size.
};

/// A disk-resident R*-tree over (MBR, OID) key-pointers.
///
/// Nodes are pages accessed through the BufferPool, so index probes compete
/// for buffer frames with data pages — the effect driving the paper's
/// Figures 7/14/15. Two construction paths are provided:
///  * `Insert` — the classic R*-tree algorithm (Beckmann et al. 1990):
///    least-overlap-enlargement subtree choice at the leaf level, forced
///    reinsertion of the 30% most distant entries on first overflow per
///    level, and the R* axis/distribution split otherwise;
///  * `BulkLoad` — Hilbert-sorted bottom-up packing, the Paradise mechanism
///    the paper insists on (§1: 109.9 s bulk load vs 864.5 s inserts).
///
/// Bulk-loaded trees additionally carry in-memory quantized "ribbons" of the
/// node entries (rtree/node_ribbon.h), so WindowQuery and the BKS93 tree
/// join scan nodes with the vector kernels without re-parsing pages.
/// Insert/Delete invalidate the ribbons and drop back to the AoS page-scan
/// path.
class RStarTree {
 public:
  /// Creates an empty tree in a new file `name`.
  static Result<RStarTree> Create(BufferPool* pool, const std::string& name);

  /// Builds a tree by bulk loading. `entries` are leaf key-pointers; they
  /// are Hilbert-sorted by MBR center over their minimum cover, packed into
  /// leaves at `fill_factor`, and upper levels are packed the same way.
  /// `layout` selects the in-memory node representation built alongside the
  /// pages (rtree/node_layout.h); kAos is the page-scan baseline.
  /// Convenience wrapper over BulkLoadSorted for in-memory entry sets.
  static Result<RStarTree> BulkLoad(
      BufferPool* pool, const std::string& name,
      std::vector<RTreeEntry> entries, double fill_factor = 0.75,
      NodeLayout layout = NodeLayout::kSoaQuantized);

  /// Yields the next entry in spatial sort order; false at end of stream.
  using EntryStream = std::function<Result<bool>(RTreeEntry*)>;

  /// Streaming bottom-up packer: consumes entries already in spatial sort
  /// order (e.g. from an external sort that respected the operator's memory
  /// budget) and packs leaves and upper levels at `fill_factor`. Only one
  /// level of parent entries is held in memory (plus, unless kAos, the
  /// per-node ribbons built after packing).
  static Result<RStarTree> BulkLoadSorted(
      BufferPool* pool, const std::string& name, const EntryStream& next,
      double fill_factor = 0.75,
      NodeLayout layout = NodeLayout::kSoaQuantized);

  RStarTree(RStarTree&&) = default;
  RStarTree& operator=(RStarTree&&) = default;
  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;

  /// Inserts one key-pointer (R*-tree insertion algorithm).
  Status Insert(const Rect& mbr, uint64_t oid);

  /// Removes the leaf entry with exactly this (mbr, oid). Returns the
  /// Guttman R-tree deletion algorithm's behaviour: nodes that underflow
  /// (fewer than kMinEntries entries) are dissolved and their surviving
  /// entries reinserted at their original level; the root collapses when
  /// it has a single child. Sets `*found` to whether the entry existed.
  Status Delete(const Rect& mbr, uint64_t oid, bool* found);

  /// Appends to `out` the handle of every leaf entry whose MBR intersects
  /// `window`. This is the filter-step probe used by indexed nested loops.
  /// Node scans run on the batch filter kernel selected by `simd` (see
  /// core/sweep_kernel.h).
  Status WindowQuery(const Rect& window, std::vector<uint64_t>* out,
                     SimdMode simd = SimdMode::kAuto) const;

  /// Reads node `page_no` into `level` (0 = leaf) and `entries`.
  /// Exposed for the BKS93 synchronized tree join.
  Status ReadNode(uint32_t page_no, uint16_t* level,
                  std::vector<RTreeEntry>* entries) const;

  Result<RTreeStats> ComputeStats() const;

  /// (Re)builds the in-memory node ribbons for `layout` by walking the
  /// tree once; kAos clears them. Called by the bulk loaders;
  /// exposed so a caller can re-accelerate a tree after mutations. Must not
  /// race with concurrent readers — build before sharing the tree.
  Status BuildRibbons(NodeLayout layout);

  /// The in-memory node layout currently active (kAos when ribbons are
  /// absent or were invalidated by Insert/Delete).
  NodeLayout layout() const { return layout_; }

  /// The ribbon of node `page_no`, or nullptr when none is built (AoS
  /// layout, or a page this tree never ribboned). Ribbons are immutable
  /// after the bulk load, so concurrent const readers need no locking.
  const NodeRibbon* ribbon(uint32_t page_no) const {
    if (page_no >= ribbons_.size() || !ribbons_[page_no].built()) {
      return nullptr;
    }
    return &ribbons_[page_no];
  }

  uint32_t root_page() const { return root_page_; }
  uint16_t height() const { return height_; }
  uint64_t num_entries() const { return num_entries_; }
  FileId file() const { return file_; }

  /// Maximum entries per node given the page size (M in R*-tree terms).
  static constexpr size_t kMaxEntries =
      (kPageSize - 8) / (4 * sizeof(double) + sizeof(uint64_t));
  /// Minimum fill (m = 40% of M, the R* recommendation).
  static constexpr size_t kMinEntries = (kMaxEntries * 2) / 5;
  /// Entries force-reinserted on first overflow (30% of M).
  static constexpr size_t kReinsertCount = (kMaxEntries * 3) / 10;

 private:
  RStarTree(BufferPool* pool, FileId file)
      : pool_(pool), file_(file) {}

  /// In-memory copy of one node page.
  struct Node {
    uint32_t page_no = 0;
    uint16_t level = 0;
    std::vector<RTreeEntry> entries;

    Rect ComputeMbr() const {
      Rect r;
      for (const auto& e : entries) r.Expand(e.mbr);
      return r;
    }
  };

  Result<Node> LoadNode(uint32_t page_no) const;
  Status StoreNode(const Node& node);
  Result<uint32_t> AllocNode(uint16_t level, Node* out);

  /// Descends from the root to a node at `target_level`, choosing subtrees
  /// the R* way; records the path (page numbers + chosen child slots).
  Status ChoosePath(const Rect& mbr, uint16_t target_level,
                    std::vector<uint32_t>* path_pages,
                    std::vector<size_t>* path_slots);

  /// Inserts `entry` at `target_level`, splitting/reinserting on overflow.
  /// `reinsert_done` tracks per-level forced-reinsert state for this
  /// insertion (R* does at most one reinsert pass per level).
  Status InsertAtLevel(const RTreeEntry& entry, uint16_t target_level,
                       std::vector<bool>* reinsert_done);

  /// R* split of an overflowing entry set; fills two output groups.
  static void SplitEntries(std::vector<RTreeEntry>* entries,
                           std::vector<RTreeEntry>* group_a,
                           std::vector<RTreeEntry>* group_b);

  /// Drops all ribbons and falls back to the AoS page-scan path; called by
  /// the mutating operations (a single Insert/Delete restructures pages the
  /// ribbons mirror).
  void InvalidateRibbons() {
    ribbons_.clear();
    layout_ = NodeLayout::kAos;
  }

  BufferPool* pool_ = nullptr;
  FileId file_ = kInvalidFileId;
  uint32_t root_page_ = 0;
  uint16_t height_ = 1;
  uint64_t num_entries_ = 0;
  /// Active in-memory layout; ribbons_ is indexed by page number (bulk load
  /// allocates pages contiguously from 0, so the vector is dense).
  NodeLayout layout_ = NodeLayout::kAos;
  std::vector<NodeRibbon> ribbons_;
};

}  // namespace pbsm

#endif  // PBSM_RTREE_RSTAR_TREE_H_
