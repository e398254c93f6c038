// Property-fuzz of the adaptive refinement cell machinery against exact
// geometry oracles. RasterizeGeometry's conservatism contract is what makes
// RefineMode::kAdaptive result-identical to kExact, so each property here is
// one clause of that contract, checked on seeded random geometry:
//
//  * occupancy over-inclusion — every point of the geometry lands in a
//    cover cell;
//  * interior under-inclusion — an interior-flagged cell is certified fully
//    inside the polygon (PointInPolygon agrees at corners, center, and
//    random samples);
//  * bucket completeness — every boundary point's cell buckets the segment
//    passing through it, so any intersecting segment pair shares a bucketed
//    cell and witness tests cannot miss;
//  * classification soundness — the engine's kHit/kMiss verdicts never
//    contradict the exact predicate;
//  * curve hierarchy — a coarse Hilbert cell is one contiguous key
//    interval at the finest order (what lets coarse per-object cells become
//    CellRuns); Z-order, which SpaceFillingCurve also offers, is checked
//    alongside.

#include "core/refinement_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "core/join_options.h"
#include "geom/predicates.h"

namespace pbsm {
namespace {

constexpr uint64_t kFuzzSeed = 20260808;

/// Star-shaped polygon fitted inside `region`: radii at sorted angles never
/// self-intersect, so every sample is valid without a repair pass. Staying
/// inside the region matters — the cell grid's universe is by contract the
/// union of the input MBRs, so the rasterizer never sees out-of-universe
/// coordinates in production.
Geometry RandomPolygon(Rng* rng, const Rect& region, bool with_hole) {
  const double max_r = rng->UniformDouble(0.02, 0.25) *
                       std::min(region.width(), region.height());
  const double cx = rng->UniformDouble(region.xlo + max_r, region.xhi - max_r);
  const double cy = rng->UniformDouble(region.ylo + max_r, region.yhi - max_r);
  const int n = 3 + static_cast<int>(rng->Uniform(10));
  std::vector<Point> outer;
  for (int i = 0; i < n; ++i) {
    const double angle = (i + rng->NextDouble() * 0.8) * 2.0 * M_PI / n;
    const double r = max_r * rng->UniformDouble(0.35, 1.0);
    outer.push_back({cx + r * std::cos(angle), cy + r * std::sin(angle)});
  }
  std::vector<std::vector<Point>> rings = {outer};
  if (with_hole) {
    std::vector<Point> hole;
    // Shrink the outer ring toward the center: stays strictly inside.
    for (const Point& p : outer) {
      hole.push_back({cx + (p.x - cx) * 0.4, cy + (p.y - cy) * 0.4});
    }
    std::reverse(hole.begin(), hole.end());
    rings.push_back(hole);
  }
  return Geometry::MakePolygon(std::move(rings));
}

Geometry RandomPolyline(Rng* rng, const Rect& region) {
  const int n = 2 + static_cast<int>(rng->Uniform(12));
  double x = rng->UniformDouble(region.xlo, region.xhi);
  double y = rng->UniformDouble(region.ylo, region.yhi);
  const double step = 0.1 * std::min(region.width(), region.height());
  std::vector<Point> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({x, y});
    // Clamped random walk; re-draw steps that a corner clamp collapsed to
    // the previous vertex (zero-length segments are uninteresting fuzz).
    do {
      x = std::clamp(pts.back().x + rng->UniformDouble(-step, step),
                     region.xlo, region.xhi);
      y = std::clamp(pts.back().y + rng->UniformDouble(-step, step),
                     region.ylo, region.yhi);
    } while (x == pts.back().x && y == pts.back().y);
  }
  return Geometry::MakePolyline(std::move(pts));
}

Geometry RandomGeometry(Rng* rng, const Rect& region) {
  switch (rng->Uniform(4)) {
    case 0:
      return RandomPolygon(rng, region, rng->Bernoulli(0.3));
    case 1:
      return Geometry::MakePoint({rng->UniformDouble(region.xlo, region.xhi),
                                  rng->UniformDouble(region.ylo, region.yhi)});
    default:
      return RandomPolyline(rng, region);
  }
}

/// Boundary segments of `g` in the cover's ring-major id order (the order
/// ring_seg_off / bucket_seg index into).
std::vector<Segment> BoundarySegments(const Geometry& g) {
  std::vector<Segment> segs;
  g.CollectSegments(&segs);
  return segs;
}

/// True when finest-order cell (fx, fy) is set in the cover (optionally in
/// the certified-interior subset).
bool CoverHasCell(const CellCover& c, uint32_t fx, uint32_t fy,
                  bool interior_only = false) {
  const uint32_t x = fx >> c.shift;
  const uint32_t y = fy >> c.shift;
  if (x < c.bx0 || y < c.by0 || x >= c.bx0 + c.bnx || y >= c.by0 + c.bny) {
    return false;
  }
  const std::vector<uint64_t>& words = interior_only ? c.interior_bits : c.bits;
  if (words.empty()) return false;
  const size_t bit = size_t{x - c.bx0} * c.bny + (y - c.by0);
  return (words[bit >> 6] >> (bit & 63)) & 1;
}

/// Bucketed segment ids of the cover cell containing finest cell (fx, fy).
std::pair<const uint16_t*, const uint16_t*> CellBucket(const CellCover& c,
                                                       uint32_t fx,
                                                       uint32_t fy) {
  const uint32_t x = fx >> c.shift;
  const uint32_t y = fy >> c.shift;
  const size_t bit = size_t{x - c.bx0} * c.bny + (y - c.by0);
  const uint16_t* base = c.bucket_seg.data();
  return {base + c.bucket_off[bit], base + c.bucket_off[bit + 1]};
}

class RefinementFuzzTest : public ::testing::Test {
 protected:
  const Rect universe_{0.0, 0.0, 64.0, 64.0};
};

TEST_F(RefinementFuzzTest, OccupancyBitsAreOverInclusive) {
  // Every point of the geometry — vertices and points sampled along each
  // boundary segment — must land in a set cover cell, at every grid order
  // and cell budget the sweep draws.
  Rng rng(kFuzzSeed);
  for (int iter = 0; iter < 120; ++iter) {
    const uint32_t order = 4 + static_cast<uint32_t>(rng.Uniform(6));
    const uint32_t max_cells = 16u << rng.Uniform(5);
    const CellGrid grid(universe_, order);
    const Geometry g = RandomGeometry(&rng, universe_);
    CellCover cover;
    RasterizeGeometry(g, grid, max_cells, &cover);
    ASSERT_TRUE(cover.built);

    std::vector<Point> samples;
    for (const auto& ring : g.rings()) {
      for (const Point& p : ring) samples.push_back(p);
    }
    for (const Segment& s : BoundarySegments(g)) {
      for (int k = 0; k < 8; ++k) {
        const double t = rng.NextDouble();
        samples.push_back({s.a.x + t * (s.b.x - s.a.x),
                           s.a.y + t * (s.b.y - s.a.y)});
      }
    }
    for (const Point& p : samples) {
      EXPECT_TRUE(CoverHasCell(cover, grid.CellX(p.x), grid.CellY(p.y)))
          << "iter " << iter << ": boundary point (" << p.x << ", " << p.y
          << ") in no cover cell";
    }
  }
}

TEST_F(RefinementFuzzTest, InteriorBitsAreUnderInclusive) {
  // A cell flagged interior claims "certainly inside the polygon": the
  // exact point-in-polygon oracle must agree everywhere in the cell, holes
  // included. Interior cells must also be a subset of the occupancy bits.
  Rng rng(kFuzzSeed + 1);
  uint64_t interior_cells = 0;
  for (int iter = 0; iter < 80; ++iter) {
    const uint32_t order = 5 + static_cast<uint32_t>(rng.Uniform(5));
    const CellGrid grid(universe_, order);
    const Geometry g = RandomPolygon(&rng, universe_, rng.Bernoulli(0.5));
    CellCover cover;
    RasterizeGeometry(g, grid, /*max_cells=*/256, &cover);
    if (!cover.has_interior) continue;

    const uint32_t precision = grid.order() - cover.shift;
    for (uint32_t x = cover.bx0; x < cover.bx0 + cover.bnx; ++x) {
      for (uint32_t y = cover.by0; y < cover.by0 + cover.bny; ++y) {
        const uint32_t fx = x << cover.shift;
        const uint32_t fy = y << cover.shift;
        if (!CoverHasCell(cover, fx, fy, /*interior_only=*/true)) continue;
        EXPECT_TRUE(CoverHasCell(cover, fx, fy))
            << "interior cell missing from occupancy bits";
        ++interior_cells;
        const Rect cell = grid.CellRect(x, y, precision);
        std::vector<Point> probes = {
            {cell.xlo, cell.ylo}, {cell.xhi, cell.ylo}, {cell.xlo, cell.yhi},
            {cell.xhi, cell.yhi}, cell.Center()};
        for (int k = 0; k < 4; ++k) {
          probes.push_back({rng.UniformDouble(cell.xlo, cell.xhi),
                            rng.UniformDouble(cell.ylo, cell.yhi)});
        }
        for (const Point& p : probes) {
          EXPECT_TRUE(PointInPolygon(p, g))
              << "iter " << iter << ": interior cell (" << x << ", " << y
              << ") holds exterior point (" << p.x << ", " << p.y << ")";
        }
      }
    }
  }
  // Vacuousness guard: the sweep must actually certify interiors.
  EXPECT_GT(interior_cells, 100u);
}

TEST_F(RefinementFuzzTest, SegmentBucketsAreComplete) {
  // Witness soundness: for any point p on boundary segment `sid`, the
  // bucket of p's cell must contain `sid`. Hence two intersecting segments
  // always meet inside a cell where both are discoverable — a boundary
  // collision can run a purely local exact test without missing witnesses.
  Rng rng(kFuzzSeed + 2);
  uint64_t bucketed_hits = 0;
  for (int iter = 0; iter < 120; ++iter) {
    const uint32_t order = 4 + static_cast<uint32_t>(rng.Uniform(6));
    const CellGrid grid(universe_, order);
    const Geometry g = rng.Bernoulli(0.5)
                           ? RandomPolygon(&rng, universe_, rng.Bernoulli(0.3))
                           : RandomPolyline(&rng, universe_);
    CellCover cover;
    RasterizeGeometry(g, grid, /*max_cells=*/256, &cover,
                      /*build_runs=*/true, /*build_rects=*/true,
                      /*build_buckets=*/true);
    const std::vector<Segment> segs = BoundarySegments(g);
    ASSERT_FALSE(cover.ring_seg_off.empty());
    // The ring offset table's sentinel is the total segment count and the
    // bucketed ids must stay within it.
    EXPECT_EQ(cover.ring_seg_off.back(), segs.size());
    for (const uint16_t sid : cover.bucket_seg) {
      ASSERT_LT(sid, segs.size());
    }
    for (size_t sid = 0; sid < segs.size(); ++sid) {
      const Segment& s = segs[sid];
      for (int k = 0; k < 6; ++k) {
        const double t = rng.NextDouble();
        const Point p{s.a.x + t * (s.b.x - s.a.x),
                      s.a.y + t * (s.b.y - s.a.y)};
        const uint32_t fx = grid.CellX(p.x);
        const uint32_t fy = grid.CellY(p.y);
        ASSERT_TRUE(CoverHasCell(cover, fx, fy));
        const auto [lo, hi] = CellBucket(cover, fx, fy);
        EXPECT_NE(std::find(lo, hi, static_cast<uint16_t>(sid)), hi)
            << "iter " << iter << ": segment " << sid
            << " missing from bucket of its own cell";
        ++bucketed_hits;
      }
    }
  }
  EXPECT_GT(bucketed_hits, 1000u);
}

TEST_F(RefinementFuzzTest, ClassificationNeverContradictsExactOracle) {
  // The engine may defer (kNeedExact), but a certain verdict must match the
  // exact predicate: kHit only on true pairs, kMiss only on false ones.
  // Approximate mode may additionally accept uncertain pairs (kAccepted) —
  // by contract a superset — but its certain verdicts obey the same rule.
  Rng rng(kFuzzSeed + 3);
  uint64_t hits = 0, misses = 0, deferred = 0, accepted = 0;
  for (const SpatialPredicate pred :
       {SpatialPredicate::kIntersects, SpatialPredicate::kContains}) {
    for (const RefineMode mode :
         {RefineMode::kAdaptive, RefineMode::kApproximate}) {
      RefineOptions opts;
      opts.mode = mode;
      opts.grid_order = 7;
      std::unique_ptr<RefinementEngine> engine =
          RefinementEngine::Create(pred, opts, universe_, 2.0, 2.0);
      ASSERT_NE(engine->grid(), nullptr);
      for (int iter = 0; iter < 250; ++iter) {
        // Bias most pairs into one small shared window — independent draws
        // over the full universe are nearly always trivially disjoint, and
        // the certain-verdict assertions would go vacuous. For containment,
        // S is additionally drawn from the middle of R's MBR so true
        // containments actually occur.
        Rect region = universe_;
        if (rng.Bernoulli(0.8)) {
          const double w = rng.UniformDouble(4.0, 12.0);
          const double x = rng.UniformDouble(universe_.xlo, universe_.xhi - w);
          const double y = rng.UniformDouble(universe_.ylo, universe_.yhi - w);
          region = Rect(x, y, x + w, y + w);
        }
        // kContains needs a polygon on the R (outer) side to be satisfiable.
        const Geometry r = pred == SpatialPredicate::kContains
                               ? RandomPolygon(&rng, region, false)
                               : RandomGeometry(&rng, region);
        Rect s_region = region;
        if (pred == SpatialPredicate::kContains && rng.Bernoulli(0.6)) {
          const Rect& m = r.Mbr();
          const double sw = m.width() / 4.0, sh = m.height() / 4.0;
          s_region = Rect(m.xlo + sw, m.ylo + sh, m.xhi - sw, m.yhi - sh);
        }
        const Geometry s = RandomGeometry(&rng, s_region);
        CellCover s_cover;
        engine->BuildCover(s, &s_cover);
        CellCover r_cover;
        const CellDecision d = engine->Classify(r, &r_cover, s, s_cover);
        const bool oracle =
            EvaluatePredicate(pred, r, s, SegmentTestMode::kPlaneSweep);
        switch (d) {
          case CellDecision::kHit:
            EXPECT_TRUE(oracle) << "false positive kHit";
            ++hits;
            break;
          case CellDecision::kMiss:
            EXPECT_FALSE(oracle) << "false negative kMiss";
            ++misses;
            break;
          case CellDecision::kNeedExact:
            // Legitimate in both modes: approximate still defers e.g. a
            // non-polygon R under contains rather than guess.
            ++deferred;
            break;
          case CellDecision::kAccepted:
            EXPECT_EQ(mode, RefineMode::kApproximate);
            ++accepted;
            break;
        }
      }
    }
  }
  // The sweep must exercise every decision class, or the assertions above
  // prove nothing.
  EXPECT_GT(hits, 50u);
  EXPECT_GT(misses, 50u);
  EXPECT_GT(deferred, 20u);
  EXPECT_GT(accepted, 20u);
}

TEST_F(RefinementFuzzTest, CurveHierarchyIsPrefixContiguous) {
  // CellRun's coarse-cell encoding assumes the Hilbert curve is
  // hierarchical: a cell at order k covers exactly the finest-order keys
  // [key_k * 4^(n-k), (key_k + 1) * 4^(n-k)). Verified exhaustively per
  // sampled coarse cell, for Z-order too.
  Rng rng(kFuzzSeed + 4);
  for (int iter = 0; iter < 200; ++iter) {
    const uint32_t n = 4 + static_cast<uint32_t>(rng.Uniform(7));  // 4..10.
    const uint32_t k = 1 + static_cast<uint32_t>(rng.Uniform(n - 1));
    const uint32_t shift = n - k;
    const uint32_t cx = static_cast<uint32_t>(rng.Uniform(1u << k));
    const uint32_t cy = static_cast<uint32_t>(rng.Uniform(1u << k));
    for (const bool hilbert : {true, false}) {
      const uint64_t coarse = hilbert ? HilbertD2XY(k, cx, cy)
                                      : ZOrderKey(k, cx, cy);
      const uint64_t lo = coarse << (2 * shift);
      const uint64_t hi = (coarse + 1) << (2 * shift);
      for (uint32_t dx = 0; dx < (1u << shift); ++dx) {
        for (uint32_t dy = 0; dy < (1u << shift); ++dy) {
          const uint32_t x = (cx << shift) | dx;
          const uint32_t y = (cy << shift) | dy;
          const uint64_t key =
              hilbert ? HilbertD2XY(n, x, y) : ZOrderKey(n, x, y);
          ASSERT_GE(key, lo) << (hilbert ? "hilbert" : "zorder");
          ASSERT_LT(key, hi) << (hilbert ? "hilbert" : "zorder");
        }
      }
    }
  }
}

}  // namespace
}  // namespace pbsm
