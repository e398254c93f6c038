// SIMD-ified R-tree node ribbons: quantization conservatism (property
// fuzz over random and degenerate node geometries), exact result
// equivalence of every layout x kernel combination through real trees,
// ribbon invalidation on mutation, and the steady-state zero-allocation
// contract of the ribbon probe path.
//
// This TU replaces the global allocation operators with counting versions
// (toggled by a flag, delegating to malloc/free) so the zero-allocation
// test observes every heap allocation a warm WindowQuery would make. The
// test binary is its own executable (one binary per test source), so the
// replacement affects nothing else.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/sweep_kernel.h"
#include "rtree/node_layout.h"
#include "rtree/node_ribbon.h"
#include "rtree/rstar_tree.h"
#include "tests/test_util.h"

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_alloc_count{0};

void NoteAlloc() {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void* CountedAlloc(std::size_t size) {
  NoteAlloc();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAllocAligned(std::size_t size, std::size_t align) {
  NoteAlloc();
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocAligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAllocAligned(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pbsm {
namespace {

std::vector<RTreeEntry> RandomEntries(size_t n, uint64_t seed,
                                      double span = 1000.0,
                                      double max_extent = 5.0) {
  Rng rng(seed);
  std::vector<RTreeEntry> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.UniformDouble(0, span);
    const double y = rng.UniformDouble(0, span);
    out.push_back(RTreeEntry{Rect(x, y, x + rng.NextDouble() * max_extent,
                                  y + rng.NextDouble() * max_extent),
                             i});
  }
  return out;
}

/// Indices of entries exactly intersecting `w` — the reference every
/// layout and kernel must reproduce.
std::set<uint32_t> ExactHits(const std::vector<RTreeEntry>& entries,
                             const Rect& w) {
  std::set<uint32_t> out;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].mbr.Intersects(w)) out.insert(static_cast<uint32_t>(i));
  }
  return out;
}

std::vector<KernelKind> KernelsToTest() {
  std::vector<KernelKind> kinds = {KernelKind::kScalar};
  if (Avx2Supported()) kinds.push_back(KernelKind::kAvx2);
  return kinds;
}

/// Checks one ribbon against one window under every runnable kernel:
/// the raw q16 prefilter must be a superset of the exact hit set, and
/// ScanRibbonWindow (prefilter + double re-verify) must equal it.
void CheckRibbonWindow(const NodeRibbon& ribbon,
                       const std::vector<RTreeEntry>& entries,
                       const Rect& w) {
  const std::set<uint32_t> exact = ExactHits(entries, w);
  std::vector<uint32_t> idx(entries.size());
  for (const KernelKind kind : KernelsToTest()) {
    if (!w.empty()) {
      uint16_t wxlo, wylo, wxhi, wyhi;
      ribbon.QuantizeWindow(w, &wxlo, &wylo, &wxhi, &wyhi);
      uint64_t lanes = 0;
      const size_t cand = sweep_internal::KernelOps(kind).scan_window_q16(
          ribbon.q16(), wxlo, wylo, wxhi, wyhi, idx.data(), &lanes);
      const std::set<uint32_t> prefilter(idx.begin(), idx.begin() + cand);
      for (const uint32_t e : exact) {
        EXPECT_TRUE(prefilter.count(e) > 0)
            << "q16 prefilter dropped exact hit " << e << " under "
            << KernelKindName(kind);
      }
    }
    RibbonScanStats stats;
    const size_t n = ScanRibbonWindow(ribbon, w, kind, idx.data(), &stats);
    const std::set<uint32_t> got(idx.begin(), idx.begin() + n);
    EXPECT_EQ(got, exact) << "ScanRibbonWindow mismatch under "
                          << KernelKindName(kind);
  }
}

TEST(NodeRibbonTest, QuantizationConservatismFuzz) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    // Mix wide and near-degenerate entry extents across rounds.
    const double span = seed % 2 == 0 ? 1000.0 : 1e-3;
    const auto entries = RandomEntries(180, seed, span, span / 100.0);
    NodeRibbon ribbon;
    ribbon.Build(entries.data(), entries.size(), /*level=*/0);
    Rng rng(seed * 1000);
    for (int q = 0; q < 60; ++q) {
      const double x = rng.UniformDouble(-span / 10, span);
      const double y = rng.UniformDouble(-span / 10, span);
      const double w = rng.NextDouble() * span / 5;
      const double h = rng.NextDouble() * span / 5;
      CheckRibbonWindow(ribbon, entries, Rect(x, y, x + w, y + h));
    }
    // Windows that are exact entry MBRs (touch-only boundaries, the
    // closed-interval worst case for rounding).
    for (int q = 0; q < 20; ++q) {
      CheckRibbonWindow(ribbon, entries,
                        entries[rng.Uniform(entries.size())].mbr);
    }
    // The full node MBR (quantizes to the entire grid) and an empty window.
    CheckRibbonWindow(ribbon, entries, ribbon.mbr());
    CheckRibbonWindow(ribbon, entries, Rect());
  }
}

TEST(NodeRibbonTest, DegenerateNodeMbrsStayConservative) {
  // Zero-width node (all entries on one vertical line), zero-height node,
  // and a pure point node: the flat axes get scale 0, every coordinate
  // collapses to grid cell 0, and the scan must still match exactly after
  // the double re-verify.
  struct Case {
    const char* name;
    std::vector<RTreeEntry> entries;
  };
  std::vector<Case> cases;
  {
    Case c{"zero-width", {}};
    for (uint64_t i = 0; i < 40; ++i) {
      const double y = static_cast<double>(i) * 0.5;
      c.entries.push_back(RTreeEntry{Rect(7.0, y, 7.0, y + 1.0), i});
    }
    cases.push_back(std::move(c));
  }
  {
    Case c{"zero-height", {}};
    for (uint64_t i = 0; i < 40; ++i) {
      const double x = static_cast<double>(i) * 0.5;
      c.entries.push_back(RTreeEntry{Rect(x, -3.0, x + 1.0, -3.0), i});
    }
    cases.push_back(std::move(c));
  }
  {
    Case c{"point", {}};
    for (uint64_t i = 0; i < 40; ++i) {
      c.entries.push_back(RTreeEntry{Rect(2.5, 2.5, 2.5, 2.5), i});
    }
    cases.push_back(std::move(c));
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    NodeRibbon ribbon;
    ribbon.Build(c.entries.data(), c.entries.size(), /*level=*/0);
    // Probe windows: hitting, missing, touching exactly, and covering all.
    CheckRibbonWindow(ribbon, c.entries, Rect(0.0, 0.0, 10.0, 10.0));
    CheckRibbonWindow(ribbon, c.entries, Rect(100.0, 100.0, 101.0, 101.0));
    CheckRibbonWindow(ribbon, c.entries, c.entries[3].mbr);
    CheckRibbonWindow(ribbon, c.entries, ribbon.mbr());
    for (const RTreeEntry& e : c.entries) {
      CheckRibbonWindow(ribbon, c.entries,
                        Rect(e.mbr.xhi, e.mbr.yhi, e.mbr.xhi + 1.0,
                             e.mbr.yhi + 1.0));  // Corner touch.
    }
  }
}

TEST(NodeRibbonTest, AllLayoutsReturnIdenticalWindowQueryResults) {
  StorageEnv env(2048 * kPageSize);
  const auto entries = RandomEntries(5000, 42);
  const std::vector<NodeLayout> layouts = {NodeLayout::kAos,
                                           NodeLayout::kSoaQuantized};
  std::vector<RStarTree> trees;
  for (const NodeLayout layout : layouts) {
    PBSM_ASSERT_OK_AND_ASSIGN(
        RStarTree tree,
        RStarTree::BulkLoad(env.pool(),
                            "t_" + std::string(NodeLayoutName(layout)) +
                                ".rtree",
                            entries, 0.75, layout));
    ASSERT_EQ(tree.layout(), layout);
    trees.push_back(std::move(tree));
  }
  ASSERT_EQ(trees[0].ribbon(trees[0].root_page()), nullptr);
  ASSERT_NE(trees[1].ribbon(trees[1].root_page()), nullptr);

  Rng rng(43);
  const std::vector<SimdMode> modes =
      Avx2Supported() ? std::vector<SimdMode>{SimdMode::kScalar,
                                              SimdMode::kAvx2}
                      : std::vector<SimdMode>{SimdMode::kScalar};
  for (int q = 0; q < 50; ++q) {
    const double x = rng.UniformDouble(0, 1000);
    const double y = rng.UniformDouble(0, 1000);
    const Rect w(x, y, x + rng.NextDouble() * 30, y + rng.NextDouble() * 30);
    std::multiset<uint64_t> reference;
    bool first = true;
    for (const SimdMode mode : modes) {
      for (const RStarTree& tree : trees) {
        std::vector<uint64_t> hits;
        PBSM_ASSERT_OK(tree.WindowQuery(w, &hits, mode));
        std::multiset<uint64_t> got(hits.begin(), hits.end());
        if (first) {
          reference = std::move(got);
          first = false;
        } else {
          EXPECT_EQ(got, reference)
              << "layout " << NodeLayoutName(tree.layout()) << " diverged";
        }
      }
    }
  }
}

TEST(NodeRibbonTest, MutationInvalidatesRibbonsAndFallsBackCorrectly) {
  StorageEnv env(2048 * kPageSize);
  auto entries = RandomEntries(2000, 7);
  PBSM_ASSERT_OK_AND_ASSIGN(
      RStarTree tree, RStarTree::BulkLoad(env.pool(), "mut.rtree", entries,
                                          0.75, NodeLayout::kSoaQuantized));
  ASSERT_EQ(tree.layout(), NodeLayout::kSoaQuantized);
  ASSERT_NE(tree.ribbon(tree.root_page()), nullptr);

  // Mutate: the ribbons no longer mirror the pages, so they must be gone.
  const Rect added(500.25, 500.25, 500.75, 500.75);
  PBSM_ASSERT_OK(tree.Insert(added, 999'999));
  EXPECT_EQ(tree.layout(), NodeLayout::kAos);
  EXPECT_EQ(tree.ribbon(tree.root_page()), nullptr);

  // The AoS fallback serves correct results including the new entry.
  std::vector<uint64_t> hits;
  PBSM_ASSERT_OK(tree.WindowQuery(Rect(500, 500, 501, 501), &hits));
  EXPECT_NE(std::find(hits.begin(), hits.end(), 999'999u), hits.end());

  bool found = false;
  PBSM_ASSERT_OK(tree.Delete(added, 999'999, &found));
  EXPECT_TRUE(found);
  EXPECT_EQ(tree.layout(), NodeLayout::kAos);

  // Re-accelerating after mutations restores the ribbon path with the
  // same results.
  PBSM_ASSERT_OK(tree.BuildRibbons(NodeLayout::kSoaQuantized));
  EXPECT_EQ(tree.layout(), NodeLayout::kSoaQuantized);
  std::vector<uint64_t> ribbon_hits;
  Rng rng(8);
  for (int q = 0; q < 20; ++q) {
    const double x = rng.UniformDouble(0, 1000);
    const Rect w(x, x, x + 20, x + 20);
    ribbon_hits.clear();
    PBSM_ASSERT_OK(tree.WindowQuery(w, &ribbon_hits));
    const auto exact = ExactHits(entries, w);
    std::set<uint64_t> got(ribbon_hits.begin(), ribbon_hits.end());
    std::set<uint64_t> want(exact.begin(), exact.end());
    EXPECT_EQ(got, want);
  }
}

TEST(NodeRibbonTest, SteadyStateProbesDoNotAllocate) {
  StorageEnv env(2048 * kPageSize);
  const auto entries = RandomEntries(20000, 11);
  PBSM_ASSERT_OK_AND_ASSIGN(
      RStarTree tree, RStarTree::BulkLoad(env.pool(), "za.rtree", entries,
                                          0.75, NodeLayout::kSoaQuantized));
  ASSERT_EQ(tree.layout(), NodeLayout::kSoaQuantized);

  // The sampled rtree/window_query trace span heap-allocates its name;
  // disable tracing, as a service tuned for steady-state latency would.
  Tracer::Global().set_enabled(false);

  std::vector<Rect> windows;
  Rng rng(12);
  for (int q = 0; q < 64; ++q) {
    const double x = rng.UniformDouble(0, 1000);
    const double y = rng.UniformDouble(0, 1000);
    windows.push_back(
        Rect(x, y, x + rng.NextDouble() * 10, y + rng.NextDouble() * 10));
  }

  // Warm-up pass: registers the metric statics, grows the thread-local
  // probe scratch, and sizes the caller's hits vector to the workload.
  std::vector<uint64_t> hits;
  uint64_t warm_total = 0;
  for (const Rect& w : windows) {
    hits.clear();
    PBSM_ASSERT_OK(tree.WindowQuery(w, &hits));
    warm_total += hits.size();
  }
  ASSERT_GT(warm_total, 0u);

  // Measured pass: the warm probe loop — the indexed-nested-loops inner
  // loop — must not touch the heap at all.
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  uint64_t total = 0;
  for (const Rect& w : windows) {
    hits.clear();
    const Status s = tree.WindowQuery(w, &hits);
    PBSM_CHECK(s.ok());
    total += hits.size();
  }
  g_count_allocs.store(false, std::memory_order_relaxed);
  Tracer::Global().set_enabled(true);

  EXPECT_EQ(total, warm_total);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
      << "steady-state ribbon probe touched the heap";
}

}  // namespace
}  // namespace pbsm
