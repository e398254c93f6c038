#ifndef PBSM_RTREE_NODE_LAYOUT_H_
#define PBSM_RTREE_NODE_LAYOUT_H_

#include <string_view>

namespace pbsm {

/// In-memory node representation of an R*-tree (the SIMD-ified layout of
/// arXiv 2309.16913; see DESIGN.md "SIMD-ified index traversal").
///
///  * kAos — no acceleration structure: every node scan parses the 8 KiB
///    page through the BufferPool and runs the entry-array kernel. What
///    Insert/Delete-mutated trees fall back to, and the page-scan baseline
///    of bench_micro_rtree --compare-layouts.
///  * kSoaQuantized — per-node "ribbons" built once at bulk load and owned
///    by the tree: xlo/xhi/ylo/yhi double lanes plus uint16 lanes quantized
///    to the node MBR with expand-outward rounding. Node scans skip page
///    parsing and run a conservative 16-lane prefilter whose survivors are
///    re-verified against the double lanes, so results stay exactly
///    identical to kAos. Every bulk load builds this layout by default.
enum class NodeLayout { kAos, kSoaQuantized };

/// "aos" / "quantized" — used by benches, baselines and logs.
std::string_view NodeLayoutName(NodeLayout layout);

}  // namespace pbsm

#endif  // PBSM_RTREE_NODE_LAYOUT_H_
