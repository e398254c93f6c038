#include "rtree/rstar_tree.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <optional>

#include "common/logging.h"
#include "common/trace.h"
#include "core/sweep_kernel.h"
#include "geom/hilbert.h"

namespace pbsm {

namespace {

constexpr size_t kNodeHeaderSize = 8;  // u16 level, u16 count, u32 pad.
constexpr size_t kEntrySize = 4 * sizeof(double) + sizeof(uint64_t);

double CenterDistanceSq(const Rect& a, const Rect& b) {
  const Point ca = a.Center();
  const Point cb = b.Center();
  const double dx = ca.x - cb.x;
  const double dy = ca.y - cb.y;
  return dx * dx + dy * dy;
}

/// Area enlargement needed for `mbr` to absorb `add`.
double Enlargement(const Rect& mbr, const Rect& add) {
  return Rect::Union(mbr, add).Area() - mbr.Area();
}

/// Per-thread reusable working memory for WindowQuery: the traversal stack
/// and the per-node hit-index buffer. Keeps the steady-state probe loop of
/// indexed nested loops free of heap allocations.
struct ProbeScratch {
  std::vector<uint32_t> stack;
  std::vector<uint32_t> idx;

  static ProbeScratch& ThreadLocal() {
    thread_local ProbeScratch scratch;
    return scratch;
  }
};

/// Probes run millions of times per join; give 1 in kSpanSampling of them a
/// trace span so the phase shows up in exports without per-probe overhead.
constexpr uint64_t kSpanSampling = 1024;

bool SampleProbeSpan() {
  if (!Tracer::Global().enabled()) return false;
  static std::atomic<uint64_t> seq{0};
  return (seq.fetch_add(1, std::memory_order_relaxed) % kSpanSampling) == 0;
}

}  // namespace

Result<RStarTree> RStarTree::Create(BufferPool* pool,
                                    const std::string& name) {
  PBSM_ASSIGN_OR_RETURN(const FileId file, pool->disk()->CreateFile(name));
  RStarTree tree(pool, file);
  // Allocate the initial empty leaf root.
  Node root;
  PBSM_ASSIGN_OR_RETURN(tree.root_page_, tree.AllocNode(0, &root));
  PBSM_RETURN_IF_ERROR(tree.StoreNode(root));
  tree.height_ = 1;
  return tree;
}

Result<RStarTree::Node> RStarTree::LoadNode(uint32_t page_no) const {
  PBSM_ASSIGN_OR_RETURN(PageHandle page,
                        pool_->FetchPage(PageId{file_, page_no}));
  const char* base = page.data();
  Node node;
  node.page_no = page_no;
  uint16_t count = 0;
  std::memcpy(&node.level, base, sizeof(uint16_t));
  std::memcpy(&count, base + 2, sizeof(uint16_t));
  node.entries.resize(count);
  const char* p = base + kNodeHeaderSize;
  for (uint16_t i = 0; i < count; ++i) {
    double coords[4];
    std::memcpy(coords, p, sizeof(coords));
    node.entries[i].mbr = Rect(coords[0], coords[1], coords[2], coords[3]);
    std::memcpy(&node.entries[i].handle, p + sizeof(coords),
                sizeof(uint64_t));
    p += kEntrySize;
  }
  return node;
}

Status RStarTree::StoreNode(const Node& node) {
  PBSM_CHECK(node.entries.size() <= kMaxEntries)
      << "storing overflowing node with " << node.entries.size();
  PBSM_ASSIGN_OR_RETURN(PageHandle page,
                        pool_->FetchPage(PageId{file_, node.page_no}));
  char* base = page.mutable_data();
  const uint16_t count = static_cast<uint16_t>(node.entries.size());
  std::memcpy(base, &node.level, sizeof(uint16_t));
  std::memcpy(base + 2, &count, sizeof(uint16_t));
  char* p = base + kNodeHeaderSize;
  for (const RTreeEntry& e : node.entries) {
    const double coords[4] = {e.mbr.xlo, e.mbr.ylo, e.mbr.xhi, e.mbr.yhi};
    std::memcpy(p, coords, sizeof(coords));
    std::memcpy(p + sizeof(coords), &e.handle, sizeof(uint64_t));
    p += kEntrySize;
  }
  return Status::OK();
}

Result<uint32_t> RStarTree::AllocNode(uint16_t level, Node* out) {
  PBSM_ASSIGN_OR_RETURN(PageHandle page, pool_->NewPage(file_));
  out->page_no = page.id().page_no;
  out->level = level;
  out->entries.clear();
  return out->page_no;
}

Status RStarTree::ChoosePath(const Rect& mbr, uint16_t target_level,
                             std::vector<uint32_t>* path_pages,
                             std::vector<size_t>* path_slots) {
  uint32_t current = root_page_;
  while (true) {
    PBSM_ASSIGN_OR_RETURN(Node node, LoadNode(current));
    path_pages->push_back(current);
    if (node.level == target_level) return Status::OK();

    // R* subtree choice: least overlap enlargement when children are
    // leaves, least area enlargement otherwise; ties by smaller area.
    size_t best = 0;
    double best_primary = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    const bool children_are_leaves = (node.level == 1 && target_level == 0);
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const Rect& emb = node.entries[i].mbr;
      double primary;
      if (children_are_leaves) {
        // Overlap enlargement against sibling entries.
        const Rect enlarged = Rect::Union(emb, mbr);
        double overlap_before = 0.0, overlap_after = 0.0;
        for (size_t j = 0; j < node.entries.size(); ++j) {
          if (j == i) continue;
          overlap_before += Rect::OverlapArea(emb, node.entries[j].mbr);
          overlap_after += Rect::OverlapArea(enlarged, node.entries[j].mbr);
        }
        primary = overlap_after - overlap_before;
      } else {
        primary = Enlargement(emb, mbr);
      }
      const double area = emb.Area();
      if (primary < best_primary ||
          (primary == best_primary && area < best_area)) {
        best_primary = primary;
        best_area = area;
        best = i;
      }
    }
    path_slots->push_back(best);
    current = static_cast<uint32_t>(node.entries[best].handle);
  }
}

void RStarTree::SplitEntries(std::vector<RTreeEntry>* entries,
                             std::vector<RTreeEntry>* group_a,
                             std::vector<RTreeEntry>* group_b) {
  const size_t total = entries->size();
  const size_t m = kMinEntries;
  PBSM_CHECK(total > kMaxEntries);

  // For one sorted order, the margin/overlap/area of every legal
  // first-k/rest split.
  struct BestSplit {
    double margin_sum = 0.0;
    double best_overlap = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    size_t best_k = 0;
  };
  auto evaluate = [&](const std::vector<RTreeEntry>& sorted) {
    std::vector<Rect> prefix(total), suffix(total);
    Rect acc;
    for (size_t i = 0; i < total; ++i) {
      acc.Expand(sorted[i].mbr);
      prefix[i] = acc;
    }
    acc = Rect();
    for (size_t i = total; i-- > 0;) {
      acc.Expand(sorted[i].mbr);
      suffix[i] = acc;
    }
    BestSplit best;
    for (size_t k = m; k <= total - m; ++k) {
      const Rect& a = prefix[k - 1];
      const Rect& b = suffix[k];
      best.margin_sum += a.Margin() + b.Margin();
      const double overlap = Rect::OverlapArea(a, b);
      const double area = a.Area() + b.Area();
      if (overlap < best.best_overlap ||
          (overlap == best.best_overlap && area < best.best_area)) {
        best.best_overlap = overlap;
        best.best_area = area;
        best.best_k = k;
      }
    }
    return best;
  };

  // Four sort orders: x-lower, x-upper, y-lower, y-upper.
  auto by = [](auto key) {
    return [key](const RTreeEntry& a, const RTreeEntry& b) {
      return key(a.mbr) < key(b.mbr);
    };
  };
  std::vector<RTreeEntry> x_lo = *entries, x_hi = *entries, y_lo = *entries,
                          y_hi = *entries;
  std::sort(x_lo.begin(), x_lo.end(), by([](const Rect& r) { return r.xlo; }));
  std::sort(x_hi.begin(), x_hi.end(), by([](const Rect& r) { return r.xhi; }));
  std::sort(y_lo.begin(), y_lo.end(), by([](const Rect& r) { return r.ylo; }));
  std::sort(y_hi.begin(), y_hi.end(), by([](const Rect& r) { return r.yhi; }));

  const BestSplit bx_lo = evaluate(x_lo), bx_hi = evaluate(x_hi);
  const BestSplit by_lo = evaluate(y_lo), by_hi = evaluate(y_hi);
  const double x_margin = bx_lo.margin_sum + bx_hi.margin_sum;
  const double y_margin = by_lo.margin_sum + by_hi.margin_sum;

  const std::vector<RTreeEntry>* chosen;
  const BestSplit* split;
  if (x_margin <= y_margin) {
    if (bx_lo.best_overlap <= bx_hi.best_overlap) {
      chosen = &x_lo;
      split = &bx_lo;
    } else {
      chosen = &x_hi;
      split = &bx_hi;
    }
  } else {
    if (by_lo.best_overlap <= by_hi.best_overlap) {
      chosen = &y_lo;
      split = &by_lo;
    } else {
      chosen = &y_hi;
      split = &by_hi;
    }
  }
  group_a->assign(chosen->begin(), chosen->begin() + split->best_k);
  group_b->assign(chosen->begin() + split->best_k, chosen->end());
}

Status RStarTree::InsertAtLevel(const RTreeEntry& first_entry,
                                uint16_t first_level,
                                std::vector<bool>* reinsert_done) {
  // Work queue of (entry, level) — forced reinsertions are deferred here and
  // re-run from the root, as in the original R*-tree formulation.
  std::deque<std::pair<RTreeEntry, uint16_t>> pending;
  pending.emplace_back(first_entry, first_level);

  while (!pending.empty()) {
    auto [entry, target_level] = pending.front();
    pending.pop_front();

    std::vector<uint32_t> path_pages;
    std::vector<size_t> path_slots;
    PBSM_RETURN_IF_ERROR(ChoosePath(entry.mbr, target_level, &path_pages,
                                    &path_slots));

    // Insert into the target node; propagate splits upward along the path.
    std::optional<RTreeEntry> carry = entry;
    Rect child_mbr;  // MBR of the level below after its update.
    for (size_t depth = path_pages.size(); depth-- > 0;) {
      PBSM_ASSIGN_OR_RETURN(Node node, LoadNode(path_pages[depth]));
      const bool is_target = (depth == path_pages.size() - 1);
      if (!is_target) {
        // Refresh the child slot's MBR after the lower-level change.
        node.entries[path_slots[depth]].mbr = child_mbr;
      }
      if (carry.has_value()) {
        node.entries.push_back(*carry);
        carry.reset();
      }

      if (node.entries.size() <= kMaxEntries) {
        PBSM_RETURN_IF_ERROR(StoreNode(node));
        child_mbr = node.ComputeMbr();
        continue;
      }

      // Overflow treatment.
      const bool is_root = (node.page_no == root_page_);
      if (!is_root && !(*reinsert_done)[node.level]) {
        // Forced reinsert: remove the 30% of entries whose centers are
        // furthest from the node center, keep the rest, re-queue removals.
        (*reinsert_done)[node.level] = true;
        const Rect node_mbr = node.ComputeMbr();
        std::sort(node.entries.begin(), node.entries.end(),
                  [&node_mbr](const RTreeEntry& a, const RTreeEntry& b) {
                    return CenterDistanceSq(a.mbr, node_mbr) >
                           CenterDistanceSq(b.mbr, node_mbr);
                  });
        std::vector<RTreeEntry> removed(
            node.entries.begin(),
            node.entries.begin() + static_cast<long>(kReinsertCount));
        node.entries.erase(node.entries.begin(),
                           node.entries.begin() +
                               static_cast<long>(kReinsertCount));
        PBSM_RETURN_IF_ERROR(StoreNode(node));
        child_mbr = node.ComputeMbr();
        for (const RTreeEntry& r : removed) {
          pending.emplace_back(r, node.level);
        }
        continue;
      }

      // Split.
      std::vector<RTreeEntry> group_a, group_b;
      SplitEntries(&node.entries, &group_a, &group_b);
      node.entries = std::move(group_a);
      Node sibling;
      PBSM_ASSIGN_OR_RETURN(const uint32_t sibling_page,
                            AllocNode(node.level, &sibling));
      sibling.entries = std::move(group_b);
      PBSM_RETURN_IF_ERROR(StoreNode(node));
      PBSM_RETURN_IF_ERROR(StoreNode(sibling));

      if (is_root) {
        Node new_root;
        PBSM_ASSIGN_OR_RETURN(const uint32_t new_root_page,
                              AllocNode(node.level + 1, &new_root));
        new_root.entries.push_back(
            RTreeEntry{node.ComputeMbr(), node.page_no});
        new_root.entries.push_back(
            RTreeEntry{sibling.ComputeMbr(), sibling_page});
        PBSM_RETURN_IF_ERROR(StoreNode(new_root));
        root_page_ = new_root_page;
        ++height_;
        reinsert_done->resize(height_, false);
        child_mbr = new_root.ComputeMbr();
      } else {
        // Parent (next loop iteration) absorbs the sibling entry.
        carry = RTreeEntry{sibling.ComputeMbr(), sibling_page};
        child_mbr = node.ComputeMbr();
      }
    }
  }
  return Status::OK();
}

Status RStarTree::Insert(const Rect& mbr, uint64_t oid) {
  InvalidateRibbons();
  std::vector<bool> reinsert_done(height_, false);
  PBSM_RETURN_IF_ERROR(
      InsertAtLevel(RTreeEntry{mbr, oid}, /*target_level=*/0,
                    &reinsert_done));
  ++num_entries_;
  return Status::OK();
}

namespace {

/// Outcome of a recursive delete step, reported to the parent.
struct DeleteOutcome {
  bool found = false;
  bool remove_child = false;  ///< The child underflowed and was dissolved.
  Rect mbr;                   ///< New child MBR (valid when kept).
};

}  // namespace

Status RStarTree::Delete(const Rect& mbr, uint64_t oid, bool* found) {
  InvalidateRibbons();
  // Orphaned entries from dissolved nodes, tagged with the level of the
  // node they must be reinserted into (0 = leaf entries).
  std::vector<std::pair<RTreeEntry, uint16_t>> orphans;

  // Recursive condense-tree walk (Guttman's deletion). Freed pages are not
  // recycled — the file has no free list, matching the append-only spools.
  std::function<Status(uint32_t, DeleteOutcome*)> walk =
      [&](uint32_t page_no, DeleteOutcome* out) -> Status {
    PBSM_ASSIGN_OR_RETURN(Node node, LoadNode(page_no));
    const bool is_root = (page_no == root_page_);

    if (node.level == 0) {
      size_t idx = node.entries.size();
      for (size_t i = 0; i < node.entries.size(); ++i) {
        if (node.entries[i].handle == oid && node.entries[i].mbr == mbr) {
          idx = i;
          break;
        }
      }
      if (idx == node.entries.size()) {
        out->found = false;
        return Status::OK();
      }
      node.entries.erase(node.entries.begin() + static_cast<long>(idx));
      out->found = true;
      if (!is_root && node.entries.size() < kMinEntries) {
        for (const RTreeEntry& e : node.entries) {
          orphans.emplace_back(e, 0);
        }
        out->remove_child = true;
        return Status::OK();
      }
      PBSM_RETURN_IF_ERROR(StoreNode(node));
      out->mbr = node.ComputeMbr();
      return Status::OK();
    }

    // Internal node: descend into every child whose MBR covers the target.
    for (size_t i = 0; i < node.entries.size(); ++i) {
      if (!node.entries[i].mbr.Contains(mbr)) continue;
      DeleteOutcome child;
      PBSM_RETURN_IF_ERROR(
          walk(static_cast<uint32_t>(node.entries[i].handle), &child));
      if (!child.found) continue;

      if (child.remove_child) {
        node.entries.erase(node.entries.begin() + static_cast<long>(i));
      } else {
        node.entries[i].mbr = child.mbr;
      }
      out->found = true;
      if (!is_root && node.entries.size() < kMinEntries) {
        // Dissolve this node too; its children reinsert at this level.
        for (const RTreeEntry& e : node.entries) {
          orphans.emplace_back(e, node.level);
        }
        out->remove_child = true;
        return Status::OK();
      }
      PBSM_RETURN_IF_ERROR(StoreNode(node));
      out->mbr = node.ComputeMbr();
      return Status::OK();
    }
    out->found = false;
    return Status::OK();
  };

  DeleteOutcome outcome;
  PBSM_RETURN_IF_ERROR(walk(root_page_, &outcome));
  *found = outcome.found;
  if (!outcome.found) return Status::OK();
  --num_entries_;

  // Reinsert orphans while the tree still has its full height, so every
  // orphan level remains valid.
  for (const auto& [entry, level] : orphans) {
    std::vector<bool> reinsert_done(height_, false);
    PBSM_RETURN_IF_ERROR(InsertAtLevel(entry, level, &reinsert_done));
  }

  // Collapse a single-child internal root (possibly repeatedly).
  while (height_ > 1) {
    PBSM_ASSIGN_OR_RETURN(const Node root, LoadNode(root_page_));
    if (root.level == 0 || root.entries.size() != 1) break;
    root_page_ = static_cast<uint32_t>(root.entries[0].handle);
    --height_;
  }
  return Status::OK();
}

Status RStarTree::WindowQuery(const Rect& window, std::vector<uint64_t>* out,
                              SimdMode simd) const {
  const KernelKind kind = ResolveKernel(simd);
  std::optional<TraceSpan> span;
  if (SampleProbeSpan()) span.emplace("rtree/window_query");
  ProbeScratch& sc = ProbeScratch::ThreadLocal();
  RibbonScanStats stats;
  sc.stack.clear();
  sc.stack.push_back(root_page_);

  if (layout_ != NodeLayout::kAos) {
    // Ribbon fast path: node entries are already transposed in memory, so
    // the traversal never touches the BufferPool. Leaf hits are gathered in
    // one batched append per node instead of per-hit push_back.
    while (!sc.stack.empty()) {
      const uint32_t page_no = sc.stack.back();
      sc.stack.pop_back();
      const NodeRibbon* rb = ribbon(page_no);
      PBSM_CHECK(rb != nullptr) << "missing ribbon for page " << page_no;
      if (sc.idx.size() < rb->count()) sc.idx.resize(rb->count());
      const size_t n =
          ScanRibbonWindow(*rb, window, kind, sc.idx.data(), &stats);
      const uint64_t* handles = rb->handles();
      if (rb->level() == 0) {
        stats.leaf_hits += n;
        const size_t base = out->size();
        out->resize(base + n);
        uint64_t* dst = out->data() + base;
        for (size_t i = 0; i < n; ++i) dst[i] = handles[sc.idx[i]];
      } else {
        const size_t base = sc.stack.size();
        sc.stack.resize(base + n);
        uint32_t* dst = sc.stack.data() + base;
        for (size_t i = 0; i < n; ++i) {
          dst[i] = static_cast<uint32_t>(handles[sc.idx[i]]);
        }
      }
    }
    FlushRibbonScanStats(stats);
    return Status::OK();
  }

  // AoS fallback: parse each node page through the BufferPool and scan the
  // entry array (insert-built or mutated trees).
  std::vector<uint32_t> hits;
  while (!sc.stack.empty()) {
    const uint32_t page_no = sc.stack.back();
    sc.stack.pop_back();
    PBSM_ASSIGN_OR_RETURN(const Node node, LoadNode(page_no));
    stats.nodes_scanned += 1;
    stats.entries_tested += node.entries.size();
    hits.clear();
    OverlapScan(node.entries.data(), node.entries.size(), window, kind,
                &hits);
    for (const uint32_t i : hits) {
      if (node.level == 0) {
        stats.leaf_hits += 1;
        out->push_back(node.entries[i].handle);
      } else {
        sc.stack.push_back(static_cast<uint32_t>(node.entries[i].handle));
      }
    }
  }
  FlushRibbonScanStats(stats);
  return Status::OK();
}

Status RStarTree::ReadNode(uint32_t page_no, uint16_t* level,
                           std::vector<RTreeEntry>* entries) const {
  PBSM_ASSIGN_OR_RETURN(Node node, LoadNode(page_no));
  *level = node.level;
  *entries = std::move(node.entries);
  return Status::OK();
}

Status RStarTree::BuildRibbons(NodeLayout layout) {
  InvalidateRibbons();
  if (layout == NodeLayout::kAos) return Status::OK();
  // Single-threaded tree walk at build time, before the tree is shared;
  // afterwards the ribbons are immutable. Pages are allocated contiguously
  // from 0, so indexing the vector by page number stays dense.
  std::vector<uint32_t> stack = {root_page_};
  while (!stack.empty()) {
    const uint32_t page_no = stack.back();
    stack.pop_back();
    PBSM_ASSIGN_OR_RETURN(const Node node, LoadNode(page_no));
    if (page_no >= ribbons_.size()) ribbons_.resize(page_no + 1);
    ribbons_[page_no].Build(node.entries.data(), node.entries.size(),
                            node.level);
    if (node.level > 0) {
      for (const RTreeEntry& e : node.entries) {
        stack.push_back(static_cast<uint32_t>(e.handle));
      }
    }
  }
  layout_ = layout;
  return Status::OK();
}

Result<RStarTree> RStarTree::BulkLoadSorted(BufferPool* pool,
                                            const std::string& name,
                                            const EntryStream& next,
                                            double fill_factor,
                                            NodeLayout layout) {
  PBSM_CHECK(fill_factor > 0.0 && fill_factor <= 1.0);
  PBSM_ASSIGN_OR_RETURN(const FileId file, pool->disk()->CreateFile(name));
  RStarTree tree(pool, file);

  size_t per_node =
      static_cast<size_t>(static_cast<double>(kMaxEntries) * fill_factor);
  per_node = std::clamp(per_node, size_t{2}, kMaxEntries);

  // Pack leaves from the stream; only the parent entries stay in memory.
  std::vector<RTreeEntry> level_entries;
  {
    Node leaf;
    bool leaf_open = false;
    RTreeEntry e;
    while (true) {
      PBSM_ASSIGN_OR_RETURN(const bool has, next(&e));
      if (!has) break;
      if (!leaf_open) {
        PBSM_ASSIGN_OR_RETURN(const uint32_t page_no,
                              tree.AllocNode(0, &leaf));
        (void)page_no;
        leaf_open = true;
      }
      leaf.entries.push_back(e);
      ++tree.num_entries_;
      if (leaf.entries.size() >= per_node) {
        PBSM_RETURN_IF_ERROR(tree.StoreNode(leaf));
        level_entries.push_back(RTreeEntry{leaf.ComputeMbr(), leaf.page_no});
        leaf.entries.clear();
        leaf_open = false;
      }
    }
    if (leaf_open) {
      PBSM_RETURN_IF_ERROR(tree.StoreNode(leaf));
      level_entries.push_back(RTreeEntry{leaf.ComputeMbr(), leaf.page_no});
    }
  }

  if (level_entries.empty()) {
    Node root;
    PBSM_ASSIGN_OR_RETURN(tree.root_page_, tree.AllocNode(0, &root));
    PBSM_RETURN_IF_ERROR(tree.StoreNode(root));
    tree.height_ = 1;
    PBSM_RETURN_IF_ERROR(tree.BuildRibbons(layout));
    return tree;
  }

  // Pack upper levels until one node remains.
  uint16_t level = 1;
  while (level_entries.size() > 1 || level == 1) {
    if (level_entries.size() == 1) {
      // Single leaf: it is the root.
      tree.root_page_ = static_cast<uint32_t>(level_entries[0].handle);
      tree.height_ = 1;
      PBSM_RETURN_IF_ERROR(tree.BuildRibbons(layout));
      return tree;
    }
    const bool is_root_level = level_entries.size() <= per_node;
    std::vector<RTreeEntry> next_level;
    for (size_t begin = 0; begin < level_entries.size(); begin += per_node) {
      const size_t end = std::min(begin + per_node, level_entries.size());
      Node node;
      PBSM_ASSIGN_OR_RETURN(const uint32_t page_no,
                            tree.AllocNode(level, &node));
      node.entries.assign(level_entries.begin() + static_cast<long>(begin),
                          level_entries.begin() + static_cast<long>(end));
      PBSM_RETURN_IF_ERROR(tree.StoreNode(node));
      next_level.push_back(RTreeEntry{node.ComputeMbr(), page_no});
      if (is_root_level) {
        tree.root_page_ = page_no;
      }
    }
    if (is_root_level) {
      tree.height_ = static_cast<uint16_t>(level + 1);
      PBSM_RETURN_IF_ERROR(tree.BuildRibbons(layout));
      return tree;
    }
    level_entries = std::move(next_level);
    ++level;
  }
  PBSM_RETURN_IF_ERROR(tree.BuildRibbons(layout));
  return tree;
}

Result<RStarTree> RStarTree::BulkLoad(BufferPool* pool,
                                      const std::string& name,
                                      std::vector<RTreeEntry> entries,
                                      double fill_factor,
                                      NodeLayout layout) {
  // Spatial sort: Hilbert value of the MBR center (paper §4.1).
  Rect universe;
  for (const RTreeEntry& e : entries) universe.Expand(e.mbr);
  if (!entries.empty()) {
    const SpaceFillingCurve curve(SpaceFillingCurve::Kind::kHilbert,
                                  universe);
    std::vector<std::pair<uint64_t, size_t>> keyed(entries.size());
    bool already_sorted = true;
    for (size_t i = 0; i < entries.size(); ++i) {
      keyed[i] = {curve.Key(entries[i].mbr), i};
      if (i > 0 && keyed[i].first < keyed[i - 1].first) {
        already_sorted = false;
      }
    }
    // Spatially clustered inputs arrive in curve order; skipping the sort
    // is the index-build saving the paper attributes to clustering (§4.4).
    if (!already_sorted) {
      std::sort(keyed.begin(), keyed.end());
      std::vector<RTreeEntry> sorted;
      sorted.reserve(entries.size());
      for (const auto& [key, idx] : keyed) sorted.push_back(entries[idx]);
      entries = std::move(sorted);
    }
  }

  size_t index = 0;
  return BulkLoadSorted(
      pool, name,
      [&entries, &index](RTreeEntry* out) -> Result<bool> {
        if (index >= entries.size()) return false;
        *out = entries[index++];
        return true;
      },
      fill_factor, layout);
}

Result<RTreeStats> RStarTree::ComputeStats() const {
  RTreeStats stats;
  stats.height = height_;
  std::vector<uint32_t> stack = {root_page_};
  while (!stack.empty()) {
    const uint32_t page_no = stack.back();
    stack.pop_back();
    PBSM_ASSIGN_OR_RETURN(const Node node, LoadNode(page_no));
    ++stats.num_nodes;
    if (node.level == 0) {
      stats.num_entries += node.entries.size();
    } else {
      for (const RTreeEntry& e : node.entries) {
        stack.push_back(static_cast<uint32_t>(e.handle));
      }
    }
  }
  stats.size_bytes = static_cast<uint64_t>(stats.num_nodes) * kPageSize;
  return stats;
}

}  // namespace pbsm
