#ifndef PBSM_RTREE_NODE_RIBBON_H_
#define PBSM_RTREE_NODE_RIBBON_H_

// In-memory quantized SoA node layout for the bulk-loaded R*-tree
// ("ribbons", following the SIMD-ified R-tree of arXiv 2309.16913).
//
// A ribbon is one node's entries transposed into contiguous coordinate
// lanes, carved from a single 64-byte-aligned allocation:
//
//   xlo[] xhi[] ylo[] yhi[]   exact double lanes (the re-verification step
//                             reads them), padded to whole 64-byte lines;
//   handle[]                  child page numbers / leaf OIDs;
//   qxlo[] qxhi[] qylo[] qyhi[]  uint16 lanes on a 65536-cell grid over the
//                             node MBR (the prefilter the kernels scan).
//
// Quantization is conservative by construction: entry lows are floored and
// highs are ceiled onto the grid, and a query window is rounded outward
// (low floored, high ceiled) on the *same* grid before the q16 compare.
// Both mappings share one monotone affine transform, so
//     a <= b  (exact doubles)  =>  QLo(a) <= QHi(b)  (grid),
// and the quantized intersection test can only over-approximate — it never
// rejects an entry the exact test accepts. ScanRibbonWindow re-verifies the
// q16 survivors against the double lanes, so its hit set is *exactly* the
// exact test's hit set. A degenerate node MBR (zero width or height, down
// to a point) gets scale 0 on the flat axes: every entry and window
// collapses to cell 0 there, which passes — still conservative.
//
// Ribbons are built single-threaded at bulk load, before the tree is
// shared, and are immutable afterwards — concurrent const WindowQuery
// probes (the IndexCache hands one tree to many service workers) read them
// without synchronization. Insert/Delete invalidate all ribbons and drop
// the tree back to the AoS page-scan path.

#include <cstddef>
#include <cstdint>

#include "core/sweep_kernel.h"
#include "geom/rect.h"
#include "rtree/node_layout.h"

namespace pbsm {

struct RTreeEntry;

/// One node's SoA double and quantized entry lanes. Movable so trees can
/// keep them in a page-indexed vector; never copied.
class NodeRibbon {
 public:
  NodeRibbon() = default;
  ~NodeRibbon();
  NodeRibbon(NodeRibbon&& other) noexcept;
  NodeRibbon& operator=(NodeRibbon&& other) noexcept;
  NodeRibbon(const NodeRibbon&) = delete;
  NodeRibbon& operator=(const NodeRibbon&) = delete;

  /// (Re)builds the lanes from a node's entries; the uint16 prefilter
  /// lanes quantize onto the entries' bounding MBR.
  void Build(const RTreeEntry* entries, size_t n, uint16_t level);

  /// True when Build has run (count may still be 0 for an empty root).
  bool built() const { return built_; }
  size_t count() const { return count_; }
  uint16_t level() const { return level_; }
  /// The node MBR (bounding box of all entries; the quantization frame).
  const Rect& mbr() const { return mbr_; }
  const uint64_t* handles() const { return handle_; }

  /// Exact double lanes (oid = handles).
  SoaView soa() const { return SoaView{xlo_, xhi_, ylo_, yhi_, handle_, count_}; }
  /// Quantized prefilter lanes.
  SoaQ16View q16() const { return SoaQ16View{qxlo_, qxhi_, qylo_, qyhi_, count_}; }

  /// Rounds a query window outward onto this node's grid (clamped to the
  /// grid range — a window reaching past the node MBR clamps to its edge,
  /// which keeps every entry it could touch). Exposed for the conservatism
  /// fuzz tests.
  void QuantizeWindow(const Rect& w, uint16_t* wxlo, uint16_t* wylo,
                      uint16_t* wxhi, uint16_t* wyhi) const;

  /// Bytes of the backing allocation (rtree.ribbon.bytes gauge accounting).
  size_t reserved_bytes() const { return bytes_; }

 private:
  void Free();

  double* xlo_ = nullptr;
  double* xhi_ = nullptr;
  double* ylo_ = nullptr;
  double* yhi_ = nullptr;
  uint64_t* handle_ = nullptr;
  uint16_t* qxlo_ = nullptr;
  uint16_t* qxhi_ = nullptr;
  uint16_t* qylo_ = nullptr;
  uint16_t* qyhi_ = nullptr;
  size_t count_ = 0;
  size_t bytes_ = 0;
  uint16_t level_ = 0;
  bool built_ = false;
  Rect mbr_;
  /// Grid cells per coordinate unit (0 on a degenerate axis).
  double scale_x_ = 0.0;
  double scale_y_ = 0.0;
};

/// Per-query scan counters, accumulated locally and flushed once per
/// WindowQuery / tree join to the rtree.* metrics (same pattern as
/// sweep_internal::KernelMetrics).
struct RibbonScanStats {
  uint64_t nodes_scanned = 0;
  uint64_t entries_tested = 0;
  uint64_t leaf_hits = 0;
  uint64_t simd_node_scans = 0;
  uint64_t simd_lanes = 0;
};

/// Scans one ribbon against a window with the resolved kernel and writes
/// the indices of intersecting entries to `out_idx` (room for
/// ribbon.count() entries required). Runs the uint16 prefilter and
/// re-verifies survivors against the double lanes, so the hit set is
/// exact. Returns the hit count.
size_t ScanRibbonWindow(const NodeRibbon& ribbon, const Rect& window,
                        KernelKind kind, uint32_t* out_idx,
                        RibbonScanStats* stats);

/// Flushes locally accumulated scan counters to the global rtree.* metrics.
void FlushRibbonScanStats(const RibbonScanStats& stats);

}  // namespace pbsm

#endif  // PBSM_RTREE_NODE_RIBBON_H_
