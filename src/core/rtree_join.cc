#include "core/join_methods_internal.h"

#include <optional>
#include <string>
#include <vector>

#include "core/index_build.h"
#include "core/plane_sweep_join.h"
#include "core/refinement.h"
#include "core/sweep_kernel.h"

namespace pbsm {

namespace {

/// Converts a node's entries into key-pointers for the entry sweep.
std::vector<KeyPointer> ToKeyPointers(const std::vector<RTreeEntry>& entries) {
  std::vector<KeyPointer> out(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    out[i] = KeyPointer{entries[i].mbr, entries[i].handle};
  }
  return out;
}

Status JoinNodes(const RStarTree& r_tree, uint32_t r_page,
                 const RStarTree& s_tree, uint32_t s_page,
                 const JoinOptions& opts, CandidateSorter* sorter,
                 JoinCostBreakdown* breakdown);

/// BKS93 node pair over in-memory ribbons: every same-level entry pairing
/// runs as masked window scans of the S ribbon (one scan per R entry, 16
/// quantized lanes per compare) instead of the per-pair plane
/// sweep, and nothing touches the BufferPool. Matches go to `sorter` at the
/// leaf level; child pairs recurse through JoinNodes (which re-enters here
/// while ribbons exist).
Status JoinRibbonNodes(const RStarTree& r_tree, const NodeRibbon& r_rb,
                       const RStarTree& s_tree, const NodeRibbon& s_rb,
                       uint32_t r_page, uint32_t s_page,
                       const JoinOptions& opts, CandidateSorter* sorter,
                       JoinCostBreakdown* breakdown) {
  const KernelKind kind = ResolveKernel(opts.simd);
  RibbonScanStats stats;

  // Unequal heights: descend the deeper side alone, restricting to children
  // overlapping the other node's MBR (stored on the ribbon).
  if (r_rb.level() != s_rb.level()) {
    const bool r_deeper = r_rb.level() > s_rb.level();
    const NodeRibbon& deep = r_deeper ? r_rb : s_rb;
    const Rect& other_mbr = r_deeper ? s_rb.mbr() : r_rb.mbr();
    // Local (not scratch) index buffer: the recursion below re-enters this
    // function, which would clobber a shared thread-local.
    std::vector<uint32_t> idx(deep.count());
    const size_t n = ScanRibbonWindow(deep, other_mbr, kind, idx.data(),
                                      &stats);
    FlushRibbonScanStats(stats);
    const uint64_t* handles = deep.handles();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t child = static_cast<uint32_t>(handles[idx[i]]);
      PBSM_RETURN_IF_ERROR(
          r_deeper ? JoinNodes(r_tree, child, s_tree, s_page, opts, sorter,
                               breakdown)
                   : JoinNodes(r_tree, r_page, s_tree, child, opts, sorter,
                               breakdown));
    }
    return Status::OK();
  }

  const SoaView rv = r_rb.soa();
  const uint64_t* s_handles = s_rb.handles();
  std::vector<uint32_t> idx(s_rb.count());

  if (r_rb.level() == 0) {
    // Leaf-leaf: emit candidate pairs in kPairBufferCap blocks.
    Status append_status;
    SorterBatchSink<CandidateSorter> sink{sorter, &append_status};
    std::vector<OidPair> buf(kPairBufferCap);
    size_t buf_size = 0;
    for (size_t i = 0; i < rv.size; ++i) {
      const Rect head(rv.xlo[i], rv.ylo[i], rv.xhi[i], rv.yhi[i]);
      const size_t n = ScanRibbonWindow(s_rb, head, kind, idx.data(), &stats);
      stats.leaf_hits += n;
      breakdown->candidates += n;
      for (size_t j = 0; j < n; ++j) {
        if (buf_size == kPairBufferCap) {
          sink(buf.data(), buf_size);
          buf_size = 0;
        }
        buf[buf_size++] = OidPair{rv.oid[i], s_handles[idx[j]]};
      }
    }
    if (buf_size != 0) sink(buf.data(), buf_size);
    FlushRibbonScanStats(stats);
    return append_status;
  }

  // Internal-internal: collect overlapping child pairs, then recurse.
  std::vector<std::pair<uint32_t, uint32_t>> child_pairs;
  for (size_t i = 0; i < rv.size; ++i) {
    const Rect head(rv.xlo[i], rv.ylo[i], rv.xhi[i], rv.yhi[i]);
    const size_t n = ScanRibbonWindow(s_rb, head, kind, idx.data(), &stats);
    for (size_t j = 0; j < n; ++j) {
      child_pairs.emplace_back(static_cast<uint32_t>(rv.oid[i]),
                               static_cast<uint32_t>(s_handles[idx[j]]));
    }
  }
  FlushRibbonScanStats(stats);
  for (const auto& [rc, sc] : child_pairs) {
    PBSM_RETURN_IF_ERROR(
        JoinNodes(r_tree, rc, s_tree, sc, opts, sorter, breakdown));
  }
  return Status::OK();
}

/// Synchronized depth-first traversal (BKS93). Joins the nodes rooted at
/// `r_page`/`s_page`; leaf-leaf matches are appended to `sorter`.
Status JoinNodes(const RStarTree& r_tree, uint32_t r_page,
                 const RStarTree& s_tree, uint32_t s_page,
                 const JoinOptions& opts, CandidateSorter* sorter,
                 JoinCostBreakdown* breakdown) {
  // Both sides ribboned (the bulk-load default): scan in memory.
  const NodeRibbon* r_rb = r_tree.ribbon(r_page);
  const NodeRibbon* s_rb = s_tree.ribbon(s_page);
  if (r_rb != nullptr && s_rb != nullptr) {
    return JoinRibbonNodes(r_tree, *r_rb, s_tree, *s_rb, r_page, s_page,
                           opts, sorter, breakdown);
  }

  uint16_t r_level = 0, s_level = 0;
  std::vector<RTreeEntry> r_entries, s_entries;
  PBSM_RETURN_IF_ERROR(r_tree.ReadNode(r_page, &r_level, &r_entries));
  PBSM_RETURN_IF_ERROR(s_tree.ReadNode(s_page, &s_level, &s_entries));

  // Unequal heights: descend the deeper (higher-level) side alone until
  // the levels line up, restricting to children overlapping the other
  // node's MBR.
  if (r_level != s_level) {
    const KernelKind kind = ResolveKernel(opts.simd);
    std::vector<uint32_t> hits;
    if (r_level > s_level) {
      Rect s_mbr;
      for (const auto& e : s_entries) s_mbr.Expand(e.mbr);
      OverlapScan(r_entries.data(), r_entries.size(), s_mbr, kind, &hits);
      for (const uint32_t i : hits) {
        PBSM_RETURN_IF_ERROR(
            JoinNodes(r_tree, static_cast<uint32_t>(r_entries[i].handle),
                      s_tree, s_page, opts, sorter, breakdown));
      }
    } else {
      Rect r_mbr;
      for (const auto& e : r_entries) r_mbr.Expand(e.mbr);
      OverlapScan(s_entries.data(), s_entries.size(), r_mbr, kind, &hits);
      for (const uint32_t i : hits) {
        PBSM_RETURN_IF_ERROR(
            JoinNodes(r_tree, r_page, s_tree,
                      static_cast<uint32_t>(s_entries[i].handle), opts,
                      sorter, breakdown));
      }
    }
    return Status::OK();
  }

  // Same level: plane sweep over the two entry sets (the technique BKS93
  // itself borrowed for node joining, §3.1).
  std::vector<KeyPointer> r_kps = ToKeyPointers(r_entries);
  std::vector<KeyPointer> s_kps = ToKeyPointers(s_entries);

  if (r_level == 0) {
    Status append_status;
    breakdown->candidates += PlaneSweepJoinBatch(
        &r_kps, &s_kps,
        SorterBatchSink<CandidateSorter>{sorter, &append_status}, opts.sweep,
        opts.simd);
    return append_status;
  }

  std::vector<std::pair<uint32_t, uint32_t>> child_pairs;
  PlaneSweepJoinBatch(
      &r_kps, &s_kps,
      [&child_pairs](const OidPair* pairs, size_t n) {
        for (size_t i = 0; i < n; ++i) {
          child_pairs.emplace_back(static_cast<uint32_t>(pairs[i].r),
                                   static_cast<uint32_t>(pairs[i].s));
        }
      },
      opts.sweep, opts.simd);
  for (const auto& [rc, sc] : child_pairs) {
    PBSM_RETURN_IF_ERROR(
        JoinNodes(r_tree, rc, s_tree, sc, opts, sorter, breakdown));
  }
  return Status::OK();
}

}  // namespace

Status RtreeFilter(BufferPool* pool, const JoinInput& r, const JoinInput& s,
                   const JoinOptions& opts, CandidateSorter* sorter,
                   JoinCostBreakdown* breakdown, const RStarTree* r_index,
                   const RStarTree* s_index) {
  DiskManager* disk = pool->disk();

  std::optional<RStarTree> r_built, s_built;
  if (r_index == nullptr) {
    const std::string phase = "build index " + r.info.name;
    PhaseCost& cost = breakdown->AddPhase(phase);
    PhaseTimer timer(disk, &cost, phase);
    PBSM_ASSIGN_OR_RETURN(
        RStarTree tree,
        BuildIndexByBulkLoad(pool, r, "rtj_idx_" + r.info.name + ".rtree",
                             opts.index_fill_factor,
                             opts.memory_budget_bytes));
    r_built.emplace(std::move(tree));
    r_index = &*r_built;
  }
  if (s_index == nullptr) {
    const std::string phase = "build index " + s.info.name;
    PhaseCost& cost = breakdown->AddPhase(phase);
    PhaseTimer timer(disk, &cost, phase);
    PBSM_ASSIGN_OR_RETURN(
        RStarTree tree,
        BuildIndexByBulkLoad(pool, s, "rtj_idx_" + s.info.name + ".rtree",
                             opts.index_fill_factor,
                             opts.memory_budget_bytes));
    s_built.emplace(std::move(tree));
    s_index = &*s_built;
  }

  {
    PhaseCost& cost = breakdown->AddPhase("join trees");
    PhaseTimer timer(disk, &cost, "join trees");
    PBSM_RETURN_IF_ERROR(JoinNodes(*r_index, r_index->root_page(), *s_index,
                                   s_index->root_page(), opts, sorter,
                                   breakdown));
  }

  // Indexes built for this join are filter-local scratch: once the
  // candidates are in the sorter, nothing downstream touches them.
  if (r_built.has_value()) {
    PBSM_RETURN_IF_ERROR(pool->DropFile(r_built->file()));
  }
  if (s_built.has_value()) {
    PBSM_RETURN_IF_ERROR(pool->DropFile(s_built->file()));
  }
  return Status::OK();
}

}  // namespace pbsm
