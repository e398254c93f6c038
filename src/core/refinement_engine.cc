#include "core/refinement_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "core/join_options.h"
#include "geom/mer.h"
#include "geom/predicates.h"
#include "geom/segment.h"

namespace pbsm {

const char* RefineModeName(RefineMode mode) {
  switch (mode) {
    case RefineMode::kExact:
      return "exact";
    case RefineMode::kAdaptive:
      return "adaptive";
    case RefineMode::kApproximate:
      return "approximate";
  }
  PBSM_CHECK(false) << "unknown RefineMode " << static_cast<int>(mode);
}

Result<RefineMode> ParseRefineMode(const std::string& name) {
  if (name == "exact") return RefineMode::kExact;
  if (name == "adaptive") return RefineMode::kAdaptive;
  if (name == "approximate" || name == "approx") return RefineMode::kApproximate;
  return Status::InvalidArgument("unknown refine mode '" + name +
                                 "' (expected exact|adaptive|approximate)");
}

// ---------------------------------------------------------------------------
// CellGrid

CellGrid::CellGrid(const Rect& universe, uint32_t order)
    : universe_(universe), order_(order) {
  PBSM_CHECK(order_ >= 1 && order_ <= 31) << "grid order " << order_;
  const double n = static_cast<double>(uint64_t{1} << order_);
  if (universe_.width() > 0) {
    cell_w_ = universe_.width() / n;
    inv_cell_w_ = n / universe_.width();
  }
  if (universe_.height() > 0) {
    cell_h_ = universe_.height() / n;
    inv_cell_h_ = n / universe_.height();
  }
}

uint32_t CellGrid::CellX(double x) const {
  const double f = (x - universe_.xlo) * inv_cell_w_;
  if (!(f > 0.0)) return 0;  // Also catches NaN and a degenerate axis.
  const uint64_t cap = (uint64_t{1} << order_) - 1;
  return static_cast<uint32_t>(
      std::min(static_cast<uint64_t>(f), cap));
}

uint32_t CellGrid::CellY(double y) const {
  const double f = (y - universe_.ylo) * inv_cell_h_;
  if (!(f > 0.0)) return 0;
  const uint64_t cap = (uint64_t{1} << order_) - 1;
  return static_cast<uint32_t>(
      std::min(static_cast<uint64_t>(f), cap));
}

Rect CellGrid::CellRect(uint32_t ix, uint32_t iy, uint32_t precision) const {
  const double scale = static_cast<double>(uint64_t{1} << (order_ - precision));
  const double w = cell_w_ * scale;
  const double h = cell_h_ * scale;
  return Rect(universe_.xlo + ix * w, universe_.ylo + iy * h,
              universe_.xlo + (ix + 1) * w, universe_.ylo + (iy + 1) * h);
}

uint64_t CellGrid::CellKey(uint32_t ix, uint32_t iy,
                           uint32_t precision) const {
  return HilbertD2XY(precision, ix, iy);
}

// ---------------------------------------------------------------------------
// Rasterization

namespace {

/// Epsilon absorbing floating-point error in cell-index arithmetic, scaled
/// to both the coordinate magnitude and the cell size. Boundary tests run
/// against cells *expanded* by it (over-inclusive covers); interior
/// certification runs on the expanded rectangle too (under-inclusive).
double AxisEpsilon(double lo, double hi, double cell) {
  return (std::fabs(lo) + std::fabs(hi)) * 1e-12 + cell * 1e-9;
}

/// Sets every cell bit of a cover's bounding box (bits past nx*ny stay 0).
void FillAllCells(CellCover* cover, uint32_t nx, uint32_t ny) {
  const size_t n = static_cast<size_t>(nx) * ny;
  for (size_t w = 0; w < cover->bits.size(); ++w) {
    const size_t base = w * 64;
    cover->bits[w] = n - base >= 64
                         ? ~uint64_t{0}
                         : (uint64_t{1} << (n - base)) - 1;
  }
}

}  // namespace

void RasterizeGeometry(const Geometry& geometry, const CellGrid& grid,
                       uint32_t max_cells, CellCover* cover, bool build_runs,
                       bool build_rects, bool build_buckets) {
  cover->built = true;
  cover->has_interior = false;
  cover->geom_type = geometry.type();
  cover->runs.clear();
  cover->rects.clear();
  cover->ring_seg_off.clear();
  cover->bucket_off.clear();
  cover->bucket_seg.clear();
  cover->interior_bits.clear();
  max_cells = std::max<uint32_t>(max_cells, 4);
  // Boundary-only covers that keep neither runs nor rects (the S side of an
  // intersects query) never consult the interior pass or the flag scratch:
  // marks go straight into the occupancy bitmap.
  const bool bits_only =
      !build_runs && !build_rects && geometry.type() != GeometryType::kPolygon;

  const uint32_t order = grid.order();
  const Rect& mbr = geometry.Mbr();
  const Rect& uni = grid.universe();
  const double ex = AxisEpsilon(uni.xlo, uni.xhi, grid.cell_width());
  const double ey = AxisEpsilon(uni.ylo, uni.yhi, grid.cell_height());

  // Finest-order index range of the epsilon-expanded MBR, then the coarsest
  // shift d at which the object's span fits the cell budget. The per-object
  // precision is p = order - d (>= 1); a precision-p cell is a contiguous
  // run of 4^d finest-order keys (the Hilbert curve's hierarchical prefix
  // property).
  const uint32_t ix_lo = grid.CellX(mbr.xlo - ex);
  const uint32_t ix_hi = grid.CellX(mbr.xhi + ex);
  const uint32_t iy_lo = grid.CellY(mbr.ylo - ey);
  const uint32_t iy_hi = grid.CellY(mbr.yhi + ey);
  uint32_t d = 0;
  while (d + 1 < order &&
         (uint64_t{(ix_hi >> d) - (ix_lo >> d) + 1} *
          uint64_t{(iy_hi >> d) - (iy_lo >> d) + 1}) > max_cells) {
    ++d;
  }
  const uint32_t p = order - d;
  const uint32_t cx_lo = ix_lo >> d, cx_hi = ix_hi >> d;
  const uint32_t cy_lo = iy_lo >> d, cy_hi = iy_hi >> d;
  const uint32_t nx = cx_hi - cx_lo + 1;
  const uint32_t ny = cy_hi - cy_lo + 1;

  const size_t words = (static_cast<size_t>(nx) * ny + 63) / 64;
  cover->shift = d;
  cover->bx0 = cx_lo;
  cover->by0 = cy_lo;
  cover->bnx = nx;
  cover->bny = ny;
  cover->bits.assign(words, 0);

  // 0 = untouched, 1 = boundary, 2 = certified interior. Thread-local
  // scratch: rasterization runs once per (geometry, stream) in tight loops,
  // so the bitmap allocation must not recur per call. Skipped entirely in
  // bits-only mode (marks write the occupancy bitmap directly).
  static thread_local std::vector<uint8_t> cells;
  cells.assign(bits_only ? 0 : static_cast<size_t>(nx) * ny, 0);
  auto cell_at = [&](uint32_t cx, uint32_t cy) -> uint8_t& {
    return cells[static_cast<size_t>(cy - cy_lo) * nx + (cx - cx_lo)];
  };
  auto expanded = [&](uint32_t cx, uint32_t cy) {
    Rect r = grid.CellRect(cx, cy, p);
    r.xlo -= ex;
    r.ylo -= ey;
    r.xhi += ex;
    r.yhi += ey;
    return r;
  };

  // ---- Boundary pass: every cell a segment comes within epsilon of. Per
  // segment, walk the grid columns its expanded MBR spans and mark the cell
  // rows the segment reaches within each column — pure interval arithmetic,
  // O(1) per marked cell, no per-cell intersection tests. A segment's points
  // over a column's epsilon-expanded x-interval form a sub-segment whose
  // y-range (epsilon-expanded) selects exactly the cells an expanded-rect
  // intersection test would accept. Segments are walked straight off the
  // rings (no materialized list); the flat id `si` enumerates them
  // ring-major — the id space the segment buckets and ring_seg_off expose.
  const bool closed = geometry.type() == GeometryType::kPolygon;
  size_t nsegs = 0;
  for (const auto& ring : geometry.rings()) {
    if (ring.size() >= 2) nsegs += ring.size() - 1 + (closed ? 1 : 0);
  }
  // (cell, segment) incidences collected alongside the marks when segment
  // buckets are requested. Cell indices are bitmap bit order (column-major
  // over the bounding box).
  build_buckets = build_buckets && nsegs != 0 && nsegs <= 65535;
  if (build_buckets) {
    uint32_t acc = 0;
    for (const auto& ring : geometry.rings()) {
      cover->ring_seg_off.push_back(acc);
      if (ring.size() >= 2) {
        acc += static_cast<uint32_t>(ring.size() - 1 + (closed ? 1 : 0));
      }
    }
    cover->ring_seg_off.push_back(acc);
  }
  static thread_local std::vector<std::pair<uint32_t, uint16_t>> incidences;
  incidences.clear();
  const double col_w = grid.cell_width() * static_cast<double>(uint64_t{1} << d);
  uint32_t si = 0;
  for (const auto& ring : geometry.rings()) {
    if (ring.size() < 2) continue;
    const size_t ring_segs = ring.size() - 1 + (closed ? 1 : 0);
    for (size_t e = 0; e < ring_segs; ++e, ++si) {
      const Point& pa = ring[e];
      const Point& pb = e + 1 < ring.size() ? ring[e + 1] : ring[0];
      double x0 = pa.x, y0 = pa.y, x1 = pb.x, y1 = pb.y;
      if (x0 > x1) {
        std::swap(x0, x1);
        std::swap(y0, y1);
      }
      const uint32_t sx_lo = std::max(grid.CellX(x0 - ex) >> d, cx_lo);
      const uint32_t sx_hi = std::min(grid.CellX(x1 + ex) >> d, cx_hi);
      const uint32_t sy_lo =
          std::max(grid.CellY(std::min(y0, y1) - ey) >> d, cy_lo);
      const uint32_t sy_hi =
          std::min(grid.CellY(std::max(y0, y1) + ey) >> d, cy_hi);
      auto mark = [&](uint32_t cx, uint32_t r_lo, uint32_t r_hi) {
        const uint32_t col = (cx - cx_lo) * ny - cy_lo;
        if (bits_only) {
          for (uint32_t cy = r_lo; cy <= r_hi; ++cy) {
            const uint32_t bit = col + cy;
            cover->bits[bit >> 6] |= uint64_t{1} << (bit & 63);
          }
        } else {
          for (uint32_t cy = r_lo; cy <= r_hi; ++cy) {
            uint8_t& c = cell_at(cx, cy);
            if (c == 0) c = 1;
          }
        }
        if (build_buckets) {
          for (uint32_t cy = r_lo; cy <= r_hi; ++cy) {
            incidences.emplace_back(col + cy, static_cast<uint16_t>(si));
          }
        }
      };
      const double dx = x1 - x0;
      if (sx_lo >= sx_hi || !(dx > 0.0)) {
        // Single column (or a vertical segment straddling a column boundary
        // within epsilon): the segment sweeps the full y-range in every
        // column it touches, so the MBR range *is* the touched set.
        for (uint32_t cx = sx_lo; cx <= sx_hi; ++cx) mark(cx, sy_lo, sy_hi);
        continue;
      }
      const double dydx = (y1 - y0) / dx;
      for (uint32_t cx = sx_lo; cx <= sx_hi; ++cx) {
        const double col_xlo = uni.xlo + cx * col_w - ex;
        const double col_xhi = col_xlo + col_w + 2.0 * ex;
        const double xa = std::max(x0, col_xlo);
        const double xb = std::min(x1, col_xhi);
        if (xa > xb) continue;
        const double ya = y0 + dydx * (xa - x0);
        const double yb = y0 + dydx * (xb - x0);
        const uint32_t r_lo =
            std::max(grid.CellY(std::min(ya, yb) - ey) >> d, sy_lo);
        const uint32_t r_hi =
            std::min(grid.CellY(std::max(ya, yb) + ey) >> d, sy_hi);
        if (r_lo > r_hi) continue;
        mark(cx, r_lo, r_hi);
      }
    }
  }
  if (nsegs == 0) {
    // Point geometry: its (epsilon-expanded) index range is the cover.
    if (bits_only) {
      FillAllCells(cover, nx, ny);
    } else {
      for (uint8_t& c : cells) c = 1;
    }
  }

  // ---- Interior pass (polygons): certify untouched in-range cells. A cell
  // whose center is inside the area is touched, so it must enter the cover;
  // it is flagged interior only when the expanded rectangle provably lies
  // inside (holes respected). Center-outside untouched cells are genuinely
  // disjoint from the polygon — the boundary pass would have marked any
  // cell the boundary crosses — and stay out of the cover. ----
  if (geometry.type() == GeometryType::kPolygon) {
    for (uint32_t cy = cy_lo; cy <= cy_hi; ++cy) {
      for (uint32_t cx = cx_lo; cx <= cx_hi; ++cx) {
        uint8_t& c = cell_at(cx, cy);
        if (c != 0) continue;
        const Rect r = expanded(cx, cy);
        if (!PointInPolygon(r.Center(), geometry)) continue;
        if (RectInsidePolygon(r, geometry)) {
          c = 2;
          cover->has_interior = true;
        } else {
          c = 1;
        }
      }
    }
  }

  // Degenerate safety net: the cover must never under-approximate. (Bucket
  // incidences no longer match the marks, so buckets are dropped.)
  if (bits_only) {
    if (std::all_of(cover->bits.begin(), cover->bits.end(),
                    [](uint64_t w) { return w == 0; })) {
      FillAllCells(cover, nx, ny);
      build_buckets = false;
    }
  } else {
    if (std::all_of(cells.begin(), cells.end(),
                    [](uint8_t c) { return c == 0; })) {
      for (uint8_t& c : cells) c = 1;
      build_buckets = false;
    }

    // ---- Marked cells -> column-major occupancy bitmaps (the strip-probe
    // hot path). ----
    if (cover->has_interior) cover->interior_bits.assign(words, 0);
    for (uint32_t cx = cx_lo; cx <= cx_hi; ++cx) {
      for (uint32_t cy = cy_lo; cy <= cy_hi; ++cy) {
        const uint8_t c = cell_at(cx, cy);
        if (c == 0) continue;
        const uint32_t bit = (cx - cx_lo) * ny + (cy - cy_lo);
        cover->bits[bit >> 6] |= uint64_t{1} << (bit & 63);
        if (c == 2) {
          cover->interior_bits[bit >> 6] |= uint64_t{1} << (bit & 63);
        }
      }
    }
  }

  // ---- Segment-incidence buckets (counting sort by cell). ----
  if (!build_buckets) {
    cover->ring_seg_off.clear();
  } else {
    std::vector<uint32_t>& off = cover->bucket_off;
    off.assign(static_cast<size_t>(nx) * ny + 1, 0);
    for (const auto& inc : incidences) ++off[inc.first + 1];
    for (size_t i = 1; i < off.size(); ++i) off[i] += off[i - 1];
    cover->bucket_seg.resize(incidences.size());
    static thread_local std::vector<uint32_t> cursor;
    cursor.assign(off.begin(), off.end());
    for (const auto& inc : incidences) {
      cover->bucket_seg[cursor[inc.first]++] = inc.second;
    }
  }

  // ---- Marked cells -> row-merged rectangle decomposition (polygon-vs-
  // cover intersection classification) in finest-order coordinates. Maximal
  // same-flag horizontal spans per row, fused with the previous row's rect
  // when the x-range and flag repeat. ----
  if (build_rects) {
    std::vector<CoverRect>& rects = cover->rects;
    static thread_local std::vector<size_t> prev_idx, cur_idx;
    prev_idx.clear();  // Rects whose bottom edge touched the previous row.
    for (uint32_t cy = cy_lo; cy <= cy_hi; ++cy) {
      cur_idx.clear();
      const uint32_t fy_lo = cy << d;
      const uint32_t fy_hi = ((cy + 1) << d) - 1;
      for (uint32_t cx = cx_lo; cx <= cx_hi;) {
        const uint8_t c = cell_at(cx, cy);
        if (c == 0) {
          ++cx;
          continue;
        }
        const uint32_t start = cx;
        while (cx <= cx_hi && cell_at(cx, cy) == c) ++cx;
        const CoverRect rect{start << d, (cx << d) - 1, fy_lo, fy_hi, c == 2};
        // Fuse with a vertically adjacent rect of identical span and flag.
        bool fused = false;
        for (const size_t i : prev_idx) {
          CoverRect& above = rects[i];
          if (above.x_lo == rect.x_lo && above.x_hi == rect.x_hi &&
              above.interior == rect.interior) {
            above.y_hi = rect.y_hi;
            cur_idx.push_back(i);
            fused = true;
            break;
          }
        }
        if (!fused) {
          cur_idx.push_back(rects.size());
          rects.push_back(rect);
        }
      }
      std::swap(prev_idx, cur_idx);
    }
  }

  if (!build_runs) return;

  // ---- Marked cells -> sorted merged finest-order key runs (containment
  // classification and curve-order consumers). ----
  const uint32_t shift = 2 * d;
  std::vector<CellRun>& runs = cover->runs;
  runs.reserve(16);
  for (uint32_t cy = cy_lo; cy <= cy_hi; ++cy) {
    for (uint32_t cx = cx_lo; cx <= cx_hi; ++cx) {
      const uint8_t c = cell_at(cx, cy);
      if (c == 0) continue;
      const uint64_t key = grid.CellKey(cx, cy, p);
      runs.push_back(CellRun{key << shift, (key + 1) << shift, c == 2});
    }
  }
  std::sort(runs.begin(), runs.end(),
            [](const CellRun& a, const CellRun& b) { return a.lo < b.lo; });
  size_t w = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    if (w > 0 && runs[w - 1].hi == runs[i].lo &&
        runs[w - 1].interior == runs[i].interior) {
      runs[w - 1].hi = runs[i].hi;
    } else {
      runs[w++] = runs[i];
    }
  }
  runs.resize(w);
}

uint32_t ChooseGridOrder(const Rect& universe, double avg_extent_x,
                         double avg_extent_y) {
  const double span = std::max(universe.width(), universe.height());
  if (!(span > 0.0)) return 4;
  // Cells about a quarter of the average feature extent: typical objects
  // rasterize to ~4x4 full-precision cells, small enough to separate
  // MBR-overlapping-but-disjoint pairs, large enough to keep covers tiny.
  double target = std::max(avg_extent_x, avg_extent_y) / 4.0;
  if (!(target > 0.0)) target = span / 4096.0;
  const double ratio = span / target;
  const int order = static_cast<int>(std::ceil(std::log2(ratio)));
  return static_cast<uint32_t>(std::clamp(order, 4, 16));
}

// ---------------------------------------------------------------------------
// Engines

namespace {

/// Two-pointer scan over two sorted disjoint run lists. Sets *interior_hit
/// when some overlapping pair of runs is interior on both sides; returns
/// whether any runs overlap at all.
bool RunsOverlap(const std::vector<CellRun>& a, const std::vector<CellRun>& b,
                 bool* interior_hit) {
  *interior_hit = false;
  bool any = false;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const CellRun& ra = a[i];
    const CellRun& rb = b[j];
    if (ra.hi <= rb.lo) {
      ++i;
    } else if (rb.hi <= ra.lo) {
      ++j;
    } else {
      any = true;
      if (ra.interior && rb.interior) {
        *interior_hit = true;
        return true;
      }
      // Advance whichever run ends first.
      if (ra.hi <= rb.hi) ++i;
      else ++j;
    }
  }
  return any;
}

/// True when every key of `inner`'s runs is covered by `outer`'s runs
/// (spanning adjacent outer runs is fine). With interior_only, only
/// interior outer runs count as coverage.
bool RunsContain(const std::vector<CellRun>& outer,
                 const std::vector<CellRun>& inner, bool interior_only) {
  size_t j = 0;
  for (const CellRun& in : inner) {
    uint64_t pos = in.lo;
    while (pos < in.hi) {
      while (j < outer.size() && outer[j].hi <= pos) ++j;
      if (j == outer.size() || outer[j].lo > pos) return false;
      if (interior_only && !outer[j].interior) return false;
      pos = outer[j].hi;
    }
  }
  return true;
}

/// Sign of Orientation(a, b, c) evaluated in double with a forward error
/// bound: +1 / -1 only when the sign is certain at double precision, 2 when
/// the determinant is too close to zero to certify.
inline int OrientationFiltered(const Point& a, const Point& b,
                               const Point& c) {
  const double l = (b.x - a.x) * (c.y - a.y);
  const double r = (b.y - a.y) * (c.x - a.x);
  const double det = l - r;
  // Forward error of det is under 4*DBL_EPSILON*(|l|+|r|); 1e-15 covers it.
  const double bound = (std::fabs(l) + std::fabs(r)) * 1e-15;
  if (det > bound) return 1;
  if (det < -bound) return -1;
  return 2;
}

/// SegmentsIntersect through a double-precision certainty filter — the
/// witness-test hot path. Identical result by construction: a certified
/// same-nonzero-side pair of endpoints excludes both the proper crossing
/// and every collinear-touch clause of the exact test, four certified signs
/// reproduce its proper-crossing decision, and anything uncertain falls
/// back to the long-double routine.
inline bool SegmentsIntersectFast(const Segment& s1, const Segment& s2) {
  const int o1 = OrientationFiltered(s1.a, s1.b, s2.a);
  const int o2 = OrientationFiltered(s1.a, s1.b, s2.b);
  if (o1 == o2 && o1 != 2) return false;  // s2 certified strictly one side.
  const int o3 = OrientationFiltered(s2.a, s2.b, s1.a);
  const int o4 = OrientationFiltered(s2.a, s2.b, s1.b);
  if (o3 == o4 && o3 != 2) return false;
  if (o1 != 2 && o2 != 2 && o3 != 2 && o4 != 2) return true;
  return SegmentsIntersect(s1, s2);
}

/// True when any bit in the inclusive range [lo, hi] is set. Covers hold at
/// most max_cells_per_object bits, so the word loop is 1-4 iterations.
inline bool AnyBitInRange(const uint64_t* bits, uint32_t lo, uint32_t hi) {
  const uint32_t w0 = lo >> 6, w1 = hi >> 6;
  const uint64_t m0 = ~uint64_t{0} << (lo & 63);
  const uint64_t m1 = ~uint64_t{0} >> (63 - (hi & 63));
  if (w0 == w1) return (bits[w0] & m0 & m1) != 0;
  if ((bits[w0] & m0) != 0) return true;
  for (uint32_t w = w0 + 1; w < w1; ++w) {
    if (bits[w] != 0) return true;
  }
  return (bits[w1] & m1) != 0;
}

class ExactRefinementEngine final : public RefinementEngine {
 public:
  CellDecision Classify(const Geometry&, CellCover*, const Geometry&,
                        const CellCover&) override {
    return CellDecision::kNeedExact;
  }
};

class AdaptiveRefinementEngine final : public RefinementEngine {
 public:
  AdaptiveRefinementEngine(SpatialPredicate pred, bool approximate,
                           const CellGrid& grid, uint32_t max_cells)
      : pred_(pred),
        approximate_(approximate),
        // Only containment classification reads curve-keyed runs; every
        // other predicate works on the rect decomposition alone.
        build_runs_(pred == SpatialPredicate::kContains),
        grid_(grid),
        max_cells_(max_cells),
        ex_(AxisEpsilon(grid.universe().xlo, grid.universe().xhi,
                        grid.cell_width())),
        ey_(AxisEpsilon(grid.universe().ylo, grid.universe().yhi,
                        grid.cell_height())) {}

  void BuildCover(const Geometry& geometry, CellCover* cover) override {
    // S-side covers: runs only for containment; rects never (intersection
    // probes S through the bitmap); segment buckets for the intersects
    // predicate's boundary-collision witness tests.
    RasterizeGeometry(geometry, grid_, max_cells_, cover, build_runs_,
                      /*build_rects=*/false,
                      /*build_buckets=*/pred_ == SpatialPredicate::kIntersects);
  }

  CellDecision Classify(const Geometry& r, CellCover* r_cover,
                        const Geometry& s, const CellCover& s_cover) override {
    if (pred_ == SpatialPredicate::kContains) {
      if (!r.Mbr().Contains(s.Mbr())) return CellDecision::kMiss;
      if (r.type() != GeometryType::kPolygon) return CellDecision::kNeedExact;
      EnsureCover(r, r_cover);
      return ClassifyContains(*r_cover, s_cover);
    }
    if (r.type() == GeometryType::kPolygon) {
      // R's interior matters (S could lie wholly inside it without any
      // boundary cell collision), so both covers are compared.
      EnsureCover(r, r_cover);
      return ClassifyIntersects(*r_cover, s_cover);
    }
    return ClassifyBoundaryVsCover(r, s, s_cover);
  }

  const CellGrid* grid() const override { return &grid_; }

 private:
  void EnsureCover(const Geometry& geometry, CellCover* cover) const {
    // R-side covers (lazily built for polygons only): rects for the
    // polygon-vs-cover walk, runs for containment, never buckets.
    if (!cover->built) {
      RasterizeGeometry(geometry, grid_, max_cells_, cover, build_runs_,
                        /*build_rects=*/true, /*build_buckets=*/false);
    }
  }

  /// Soundness: covers are over-inclusive (every touched cell is in the
  /// cover) and interior flags under-inclusive (flagged cells provably
  /// inside). Disjoint covers therefore prove disjoint geometries; an
  /// interior/interior overlap proves a shared cell of area. R's rect
  /// decomposition is probed against S's occupancy bitmap.
  CellDecision ClassifyIntersects(const CellCover& r_cover,
                                  const CellCover& s_cover) const {
    const uint32_t sh = s_cover.shift;
    const uint32_t bx0 = s_cover.bx0, by0 = s_cover.by0;
    const uint32_t bx1 = bx0 + s_cover.bnx - 1;
    const uint32_t by1 = by0 + s_cover.bny - 1;
    const uint32_t bny = s_cover.bny;
    const uint64_t* bits = s_cover.bits.data();
    const uint64_t* interior =
        s_cover.has_interior ? s_cover.interior_bits.data() : nullptr;
    bool any = false;
    for (const CoverRect& a : r_cover.rects) {
      const uint32_t sxl = std::max(a.x_lo >> sh, bx0);
      const uint32_t sxh = std::min(a.x_hi >> sh, bx1);
      const uint32_t syl = std::max(a.y_lo >> sh, by0);
      const uint32_t syh = std::min(a.y_hi >> sh, by1);
      if (sxl > sxh || syl > syh) continue;
      const uint32_t r0 = syl - by0, r1 = syh - by0;
      for (uint32_t sx = sxl; sx <= sxh; ++sx) {
        const uint32_t base = (sx - bx0) * bny;
        if (!AnyBitInRange(bits, base + r0, base + r1)) continue;
        any = true;
        if (a.interior && interior != nullptr &&
            AnyBitInRange(interior, base + r0, base + r1)) {
          return CellDecision::kHit;
        }
      }
    }
    if (!any) return CellDecision::kMiss;
    return approximate_ ? CellDecision::kAccepted : CellDecision::kNeedExact;
  }

  /// Contains(R, S), R already known to be a polygon whose MBR contains
  /// S's: disjoint covers refute any shared point (S is non-empty, so it
  /// cannot be inside R); cover(S) fully inside R's interior runs proves S
  /// subset-of R since S lies within its own cover's cells. Approximate
  /// mode accepts when cover(S) is at least within cover(R) — the inner
  /// then protrudes at most one cell diagonal — and otherwise still runs
  /// the exact test (never rejects), preserving the superset contract.
  CellDecision ClassifyContains(const CellCover& r_cover,
                                const CellCover& s_cover) const {
    bool interior_hit = false;
    if (!RunsOverlap(r_cover.runs, s_cover.runs, &interior_hit)) {
      return CellDecision::kMiss;
    }
    if (r_cover.has_interior &&
        RunsContain(r_cover.runs, s_cover.runs, /*interior_only=*/true)) {
      return CellDecision::kHit;
    }
    if (approximate_ &&
        RunsContain(r_cover.runs, s_cover.runs, /*interior_only=*/false)) {
      return CellDecision::kAccepted;
    }
    return CellDecision::kNeedExact;
  }

  /// Intersects with a polyline/point R: walks R's segments clipped to the
  /// pair's MBR overlap and probes each per-column strip of finest-order
  /// cells they touch against S's occupancy bitmap — no R cover is built,
  /// no curve keys computed, and a probe is one or two word ANDs.
  /// Soundness: any shared point p lies in the MBR overlap, on a segment
  /// of R, and in some finest cell c; the walk's strip for that column
  /// contains c (epsilon-expanded interval math, identical to the
  /// rasterizer's) and S touches c's ancestor cover cell, so that cell's
  /// bit is set. "No strip probe finds a bit" therefore proves disjoint —
  /// and an empty MBR-overlap *window* of the bitmap proves it before the
  /// segments are even visited. A strip finding an *interior* bit is a
  /// certain hit: the strip's cells hold a point of R's segment within
  /// their expanded rectangles, certified inside S's area.
  CellDecision ClassifyBoundaryVsCover(const Geometry& r, const Geometry& s,
                                       const CellCover& s_cover) const {
    const Rect& uni = grid_.universe();
    const double ex = ex_, ey = ey_;
    const Rect& rm = r.Mbr();
    const Rect& sm = s.Mbr();
    const double clip_xlo = std::max(rm.xlo, sm.xlo) - ex;
    const double clip_xhi = std::min(rm.xhi, sm.xhi) + ex;
    const double clip_ylo = std::max(rm.ylo, sm.ylo) - ey;
    const double clip_yhi = std::min(rm.yhi, sm.yhi) + ey;
    if (clip_xlo > clip_xhi || clip_ylo > clip_yhi) return CellDecision::kMiss;
    const uint32_t wx_lo = grid_.CellX(clip_xlo);
    const uint32_t wx_hi = grid_.CellX(clip_xhi);
    const uint32_t wy_lo = grid_.CellY(clip_ylo);
    const uint32_t wy_hi = grid_.CellY(clip_yhi);

    const uint32_t sh = s_cover.shift;
    const uint32_t bx0 = s_cover.bx0, by0 = s_cover.by0;
    const uint32_t bx1 = bx0 + s_cover.bnx - 1;
    const uint32_t by1 = by0 + s_cover.bny - 1;
    const uint32_t bny = s_cover.bny;
    const uint64_t* bits = s_cover.bits.data();

    // Window pre-test: S's cover restricted to the MBR-overlap window. No
    // bit there refutes any shared point outright.
    {
      const uint32_t sxl = std::max(wx_lo >> sh, bx0);
      const uint32_t sxh = std::min(wx_hi >> sh, bx1);
      const uint32_t syl = std::max(wy_lo >> sh, by0);
      const uint32_t syh = std::min(wy_hi >> sh, by1);
      if (sxl > sxh || syl > syh) return CellDecision::kMiss;
      bool window_any = false;
      const uint32_t r0 = syl - by0, r1 = syh - by0;
      for (uint32_t sx = sxl; sx <= sxh && !window_any; ++sx) {
        const uint32_t base = (sx - bx0) * bny;
        window_any = AnyBitInRange(bits, base + r0, base + r1);
      }
      if (!window_any) return CellDecision::kMiss;
    }

    const bool s_area = s_cover.geom_type == GeometryType::kPolygon;
    const bool scan_for_interior = s_cover.has_interior;
    const uint64_t* interior =
        scan_for_interior ? s_cover.interior_bits.data() : nullptr;
    const bool buckets = !s_cover.bucket_off.empty();
    // Bucketed segment ids resolve ring-major against S's live rings — the
    // cover stores no coordinates (see CellCover). Consecutive ids share a
    // vertex, so witness scans read half the memory a segment array would.
    const auto& s_rings = s.rings();
    const uint32_t* ring_off = s_cover.ring_seg_off.data();
    const size_t n_rings = s_rings.size();
    const uint32_t* b_off = s_cover.bucket_off.data();
    const uint16_t* b_seg = s_cover.bucket_seg.data();

    bool any = false;        // Some strip touched an S cover cell.
    bool unresolved = false; // ... and the touch could not be witness-tested.
    const Segment* cur = nullptr;  // R segment being walked; null = point R.
    Point pt{};                    // The point, when cur == nullptr.
    // Hoisted bbox of `cur`, for the cheap pre-reject ahead of the
    // orientation-test witness check.
    double cur_xlo = 0, cur_xhi = 0, cur_ylo = 0, cur_yhi = 0;

    // Probes cell strip [cx_lo, cx_hi] x [y_lo, y_hi] (finest-order
    // coordinates); true = certain hit (interior touch or segment witness).
    auto strip = [&](uint32_t cx_lo, uint32_t cx_hi, uint32_t y_lo,
                     uint32_t y_hi) -> bool {
      const uint32_t sxl = std::max(cx_lo >> sh, bx0);
      const uint32_t sxh = std::min(cx_hi >> sh, bx1);
      const uint32_t syl = std::max(y_lo >> sh, by0);
      const uint32_t syh = std::min(y_hi >> sh, by1);
      if (sxl > sxh || syl > syh) return false;
      const uint32_t r0 = syl - by0, r1 = syh - by0;
      for (uint32_t sx = sxl; sx <= sxh; ++sx) {
        const uint32_t base = (sx - bx0) * bny;
        const uint32_t lo = base + r0, hi = base + r1;
        if (!AnyBitInRange(bits, lo, hi)) continue;
        any = true;
        if (interior != nullptr && AnyBitInRange(interior, lo, hi)) {
          // R passes through a cell certified inside S's area.
          return true;
        }
        if (!buckets) {
          unresolved = true;
          continue;
        }
        // Witness test: R's primitive against the S segments bucketed in
        // each occupied cell of this column strip. An intersection is a
        // certain hit; refuting every candidate leaves nothing in these
        // cells for R to meet.
        for (uint32_t w = lo >> 6; w <= hi >> 6; ++w) {
          uint64_t word = bits[w];
          if (w == lo >> 6) word &= ~uint64_t{0} << (lo & 63);
          if (w == hi >> 6) word &= ~uint64_t{0} >> (63 - (hi & 63));
          while (word != 0) {
            const uint32_t cell =
                w * 64 + static_cast<uint32_t>(__builtin_ctzll(word));
            word &= word - 1;
            for (uint32_t k = b_off[cell]; k < b_off[cell + 1]; ++k) {
              const uint32_t sid = b_seg[k];
              size_t rk = 0;
              while (rk + 1 < n_rings && sid >= ring_off[rk + 1]) ++rk;
              const std::vector<Point>& ring = s_rings[rk];
              const size_t pi = sid - ring_off[rk];
              const Point& sa = ring[pi];
              const Point& sb =
                  pi + 1 < ring.size() ? ring[pi + 1] : ring[0];
              if (cur != nullptr) {
                // Bbox pre-reject before the orientation tests.
                if (std::max(sa.x, sb.x) < cur_xlo ||
                    std::min(sa.x, sb.x) > cur_xhi ||
                    std::max(sa.y, sb.y) < cur_ylo ||
                    std::min(sa.y, sb.y) > cur_yhi) {
                  continue;
                }
                if (SegmentsIntersectFast(*cur, Segment{sa, sb})) return true;
              } else if (PointOnSegment(pt, Segment{sa, sb})) {
                return true;
              }
            }
          }
        }
      }
      return false;
    };

    // R's boundary segments are walked straight off its rings — no
    // materialized segment list. Only polylines and points reach this path,
    // so a ring is an open chain of consecutive-point segments.
    bool has_segments = false;
    for (const auto& ring : r.rings()) {
      if (ring.size() >= 2) {
        has_segments = true;
        break;
      }
    }
    if (!has_segments && r.type() == GeometryType::kPolyline) {
      // A degenerate (single-vertex) polyline has no boundary segments, so
      // the exact predicate can never find a segment intersection: against
      // an area-free S it is disjoint by definition; against a polygon it
      // reduces to vertex-in-polygon, which the cover walk below answers
      // conservatively through the interior bits.
      if (!s_area) return CellDecision::kMiss;
    }
    bool hit = false;
    Segment seg;
    for (const auto& ring : r.rings()) {
      if (hit || ring.size() < 2) continue;
      for (size_t i = 0; i + 1 < ring.size() && !hit; ++i) {
        seg = Segment{ring[i], ring[i + 1]};
        cur = &seg;
        double x0 = seg.a.x, y0 = seg.a.y, x1 = seg.b.x, y1 = seg.b.y;
        if (x0 > x1) {
          std::swap(x0, x1);
          std::swap(y0, y1);
        }
        if (x1 < clip_xlo || x0 > clip_xhi || std::max(y0, y1) < clip_ylo ||
            std::min(y0, y1) > clip_yhi) {
          continue;
        }
        cur_xlo = x0;
        cur_xhi = x1;
        cur_ylo = std::min(y0, y1);
        cur_yhi = std::max(y0, y1);
        const uint32_t sx_lo = std::max(grid_.CellX(x0 - ex), wx_lo);
        const uint32_t sx_hi = std::min(grid_.CellX(x1 + ex), wx_hi);
        const uint32_t sy_lo =
            std::max(grid_.CellY(std::min(y0, y1) - ey), wy_lo);
        const uint32_t sy_hi =
            std::min(grid_.CellY(std::max(y0, y1) + ey), wy_hi);
        if (sx_lo > sx_hi || sy_lo > sy_hi) continue;
        const double dx = x1 - x0;
        if (sx_lo >= sx_hi || !(dx > 0.0)) {
          // Single column, or a vertical segment straddling a column
          // boundary within epsilon: the MBR range is the touched set.
          hit = strip(sx_lo, sx_hi, sy_lo, sy_hi);
        } else {
          const double dydx = (y1 - y0) / dx;
          for (uint32_t cx = sx_lo; cx <= sx_hi && !hit; ++cx) {
            const double col_xlo = uni.xlo + cx * grid_.cell_width() - ex;
            const double col_xhi = col_xlo + grid_.cell_width() + 2.0 * ex;
            const double xa = std::max(x0, col_xlo);
            const double xb = std::min(x1, col_xhi);
            if (xa > xb) continue;
            const double ya = y0 + dydx * (xa - x0);
            const double yb = y0 + dydx * (xb - x0);
            const uint32_t r_lo =
                std::max(grid_.CellY(std::min(ya, yb) - ey), sy_lo);
            const uint32_t r_hi =
                std::min(grid_.CellY(std::max(ya, yb) + ey), sy_hi);
            if (r_lo > r_hi) continue;
            hit = strip(cx, cx, r_lo, r_hi);
          }
        }
      }
    }
    if (!has_segments) {
      // Point geometry: probe its (epsilon-expanded) cell range.
      cur = nullptr;
      pt = r.rings()[0][0];
      const uint32_t px_lo = std::max(grid_.CellX(rm.xlo - ex), wx_lo);
      const uint32_t px_hi = std::min(grid_.CellX(rm.xhi + ex), wx_hi);
      const uint32_t py_lo = std::max(grid_.CellY(rm.ylo - ey), wy_lo);
      const uint32_t py_hi = std::min(grid_.CellY(rm.yhi + ey), wy_hi);
      if (px_lo <= px_hi && py_lo <= py_hi) {
        hit = strip(px_lo, px_hi, py_lo, py_hi);
      }
      if (s_area) {
        // A point that touched only witness-refuted boundary cells may
        // still sit inside S's area within those cells; the buckets cannot
        // refute area membership.
        unresolved = unresolved || any;
      }
    }
    if (hit) return CellDecision::kHit;
    if (!any) return CellDecision::kMiss;
    if (!s_area && buckets && !unresolved) {
      // Every boundary collision was refuted segment-by-segment and S has
      // no area: the exact predicate has nothing left to find.
      return CellDecision::kMiss;
    }
    return approximate_ ? CellDecision::kAccepted : CellDecision::kNeedExact;
  }

  const SpatialPredicate pred_;
  const bool approximate_;
  const bool build_runs_;
  const CellGrid grid_;
  const uint32_t max_cells_;
  // Rasterizer epsilons of grid_, hoisted out of the per-pair classify path.
  const double ex_;
  const double ey_;
};

}  // namespace

std::unique_ptr<RefinementEngine> RefinementEngine::Create(
    SpatialPredicate pred, const RefineOptions& opts, const Rect& universe,
    double avg_extent_x, double avg_extent_y) {
  if (opts.mode == RefineMode::kExact) {
    return std::make_unique<ExactRefinementEngine>();
  }
  const uint32_t order =
      opts.grid_order != 0
          ? std::clamp<uint32_t>(opts.grid_order, 1, 24)
          : ChooseGridOrder(universe, avg_extent_x, avg_extent_y);
  const CellGrid grid(universe, order);
  return std::make_unique<AdaptiveRefinementEngine>(
      pred, opts.mode == RefineMode::kApproximate, grid,
      opts.max_cells_per_object);
}

}  // namespace pbsm
