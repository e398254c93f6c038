#ifndef PBSM_CORE_REFINEMENT_ENGINE_H_
#define PBSM_CORE_REFINEMENT_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "geom/geometry.h"
#include "geom/hilbert.h"
#include "geom/rect.h"
#include "geom/segment.h"

namespace pbsm {

enum class SpatialPredicate;  // core/join_options.h

/// How the refinement step decides candidate pairs (ROADMAP item 4; Kipf et
/// al., "Adaptive Geospatial Joins for Modern Hardware", arXiv 1802.09488).
enum class RefineMode : uint8_t {
  /// Every candidate pays the exact geometry predicate (the paper's §3.2).
  kExact,
  /// True-hit filtering: per-object interior/boundary cell covers decide
  /// certain hits and certain misses without an exact test; only boundary
  /// cell collisions fall back to the exact predicate. Result pair-set is
  /// identical to kExact.
  kAdaptive,
  /// Like kAdaptive, but uncertain (boundary/boundary) collisions are
  /// *accepted* without the exact test. Bounded-error contract: the result
  /// is a superset of the exact result; every extra pair has geometries
  /// within one cell diagonal (universe_extent / 2^grid_order * sqrt(2)) of
  /// intersecting (for kContains: the inner protrudes at most that far).
  kApproximate,
};

/// Canonical lowercase name ("exact" / "adaptive" / "approximate").
const char* RefineModeName(RefineMode mode);

/// Parses a mode name (as produced by RefineModeName). Accepts "approx" as
/// an alias for "approximate".
Result<RefineMode> ParseRefineMode(const std::string& name);

/// Refinement knobs, grouped for designated-initializer construction:
/// `opts.refine = {.mode = RefineMode::kAdaptive, .grid_order = 12}`.
struct RefineOptions {
  RefineMode mode = RefineMode::kExact;
  /// Cell-grid resolution: 2^grid_order cells per universe side. 0 = auto
  /// (ChooseGridOrder from catalog extent stats — or the planner's choice
  /// when the join runs through the service).
  uint32_t grid_order = 0;
  /// Rasterization budget per object: objects whose MBR spans more cells
  /// are rasterized at a coarser per-object precision (hierarchical grid,
  /// 1802.09488 §3.1), so cover size — and cover build cost — stays O(1).
  uint32_t max_cells_per_object = 256;
  /// Cost guard on cover construction: an S tuple whose run of candidate
  /// pairs (they arrive sorted on OID_S) is shorter than this pays the
  /// exact predicate directly instead of rasterizing. Building a cover is
  /// O(boundary length), so it only beats per-pair exact tests when enough
  /// pairs amortize it (the build-vs-probe tradeoff of adaptive geospatial
  /// joins). 1 = always build.
  uint32_t min_cover_pairs = 3;
};

/// A maximal run of consecutive finest-order cell keys sharing one flag.
/// Half-open [lo, hi); runs in a cover are sorted, disjoint, and merged.
/// Coarser per-object cells become runs of 4^(order-precision) keys — the
/// Hilbert curve is hierarchical, so a coarse cell is one contiguous key
/// interval at the finest order.
struct CellRun {
  uint64_t lo = 0;
  uint64_t hi = 0;
  /// True: the cell rectangles are certified fully inside the polygon's
  /// area (under-inclusive certainty). False: boundary cells, conservative
  /// over-approximation — the geometry *may* touch them.
  bool interior = false;
};

/// A maximal axis-aligned block of same-flag cover cells, in *finest-order
/// grid coordinates* (inclusive bounds). The rectangle decomposition is the
/// classification hot path: strip/rect overlap is pure integer compares,
/// no curve keys. Coarser per-object cells simply become larger rects.
struct CoverRect {
  uint32_t x_lo = 0;
  uint32_t x_hi = 0;
  uint32_t y_lo = 0;
  uint32_t y_hi = 0;
  bool interior = false;
};

/// The interior/boundary cell cover of one geometry. Owns no geometry
/// coordinates: segment buckets index the source geometry's rings, so a
/// cover is only meaningful alongside the (live) geometry it was rasterized
/// from. Rebuilding into the same object reuses every vector's capacity —
/// the refine loop keeps one scratch cover per stream and rasterizes each
/// S run into it allocation-free. The occupancy bitmap is always built;
/// `rects` (the row-merged rectangle decomposition), `runs` (the
/// curve-keyed interval form, which containment tests need) and the
/// per-cell segment buckets only on request.
struct CellCover {
  bool built = false;
  bool has_interior = false;
  /// Type of the geometry the cover was rasterized from: classification
  /// needs to know whether the object has area (polygon) and whether an
  /// empty segment list means "point" or "degenerate polyline".
  GeometryType geom_type = GeometryType::kPoint;
  /// Per-object coarsening: one cover cell is 2^shift finest cells wide.
  uint32_t shift = 0;
  /// Cover bounding box in cover-cell (coarse) coordinates: origin and
  /// dimensions. bnx * bny never exceeds the rasterization cell budget.
  uint32_t bx0 = 0;
  uint32_t by0 = 0;
  uint32_t bnx = 0;
  uint32_t bny = 0;
  /// Column-major occupancy bitmap over the bounding box — bit
  /// (x-bx0)*bny + (y-by0) is set iff the cover holds cell (x, y). The
  /// classification hot path: a cell-strip probe is one or two word ANDs.
  std::vector<uint64_t> bits;
  /// Certified-interior subset of `bits`; empty for boundary-only covers.
  std::vector<uint64_t> interior_bits;
  std::vector<CellRun> runs;
  std::vector<CoverRect> rects;
  /// Per-cell segment buckets (built on request): cell i (bitmap bit order)
  /// owns segment ids bucket_seg[bucket_off[i] .. bucket_off[i+1]). They
  /// turn a boundary-cell collision into a *local exact test*: the colliding
  /// primitive is tested against only the segments sharing the cell, which
  /// either produces an intersection witness (a certain hit) or — for
  /// area-free geometries, once every collision is refuted — proves the
  /// pair disjoint. Segment ids index the source geometry's boundary
  /// segments ring-major (ring r's open-chain segments in vertex order,
  /// plus the implicit closing segment for polygons); the cover stores no
  /// coordinates of its own, so classification must be handed the same
  /// geometry the cover was rasterized from. ring_seg_off[r] is the id of
  /// ring r's first segment, with one trailing sentinel = total segments.
  /// Empty when not built (or > 65535 segments).
  std::vector<uint32_t> ring_seg_off;
  std::vector<uint32_t> bucket_off;
  std::vector<uint16_t> bucket_seg;
};

/// Outcome of the cell-level test for one candidate pair.
enum class CellDecision : uint8_t {
  kHit,        ///< Certain result pair; skip the exact test.
  kMiss,       ///< Certainly not a result pair; skip the exact test.
  kNeedExact,  ///< Boundary collision; run the exact predicate.
  kAccepted,   ///< Approximate mode only: uncertain pair accepted as-is.
};

/// The cell grid shared by every cover a query builds: the join universe
/// divided into 2^order x 2^order Hilbert-keyed cells.
class CellGrid {
 public:
  CellGrid(const Rect& universe, uint32_t order);

  const Rect& universe() const { return universe_; }
  uint32_t order() const { return order_; }
  double cell_width() const { return cell_w_; }
  double cell_height() const { return cell_h_; }
  /// One past the largest finest-order key: 4^order.
  uint64_t key_limit() const { return uint64_t{1} << (2 * order_); }

  /// Grid x-index of the cell column containing `x` (clamped).
  uint32_t CellX(double x) const;
  uint32_t CellY(double y) const;
  /// Geometric rectangle of cell (ix, iy) at per-object precision
  /// `precision` (cells are 2^(order-precision) finest cells wide).
  Rect CellRect(uint32_t ix, uint32_t iy, uint32_t precision) const;
  /// Hilbert key of cell (ix, iy) at `precision` bits per dimension.
  uint64_t CellKey(uint32_t ix, uint32_t iy, uint32_t precision) const;

 private:
  Rect universe_;
  uint32_t order_;
  double cell_w_ = 0.0;
  double cell_h_ = 0.0;
  double inv_cell_w_ = 0.0;
  double inv_cell_h_ = 0.0;
};

/// Rasterizes `geometry` onto `grid` into an interior/boundary cell cover.
///
/// The per-object precision is the finest level at which the geometry's MBR
/// spans at most `max_cells` cells. Conservatism contract (what makes
/// adaptive mode exact-equivalent):
///  * every cell the geometry touches appears in the cover (boundary tests
///    use epsilon-*expanded* cell rectangles — over-inclusive);
///  * a cell is flagged interior only when its epsilon-expanded rectangle
///    is proven fully inside the polygon's area (under-inclusive).
/// Polylines and points produce boundary-only covers.
///
/// The occupancy bitmap is always built. `build_runs` adds the curve-keyed
/// run list (containment classification), `build_rects` the rectangle
/// decomposition (polygon-vs-cover intersection), `build_buckets` the
/// per-cell segment buckets (boundary-collision witness tests) — each
/// skipped by the engines when the predicate or side never reads it.
void RasterizeGeometry(const Geometry& geometry, const CellGrid& grid,
                       uint32_t max_cells, CellCover* cover,
                       bool build_runs = true, bool build_rects = true,
                       bool build_buckets = false);

/// Chooses an auto grid order for a query: cells roughly 1/4 of the average
/// feature MBR extent (so typical objects span ~4x4 cells at full
/// precision), clamped to [4, 16].
uint32_t ChooseGridOrder(const Rect& universe, double avg_extent_x,
                         double avg_extent_y);

/// Strategy interface of the refinement step: classifies one candidate pair
/// before (or instead of) the exact predicate. Stateless across pairs
/// except for the shared grid. Rasterization is deliberately asymmetric:
/// only the S side — whose cover each run of equal-OID_S pairs shares — is
/// rasterized up front; the R side rasterizes lazily and only when its
/// interior matters (polygons).
class RefinementEngine {
 public:
  virtual ~RefinementEngine() = default;

  /// Rasterizes one geometry's cover onto the engine's grid. No-op for the
  /// exact engine (which never reads covers).
  virtual void BuildCover(const Geometry& /*geometry*/, CellCover* cover) {
    cover->built = true;
  }

  /// Classifies candidate pair (r, s). `s_cover` must have been built
  /// (BuildCover) from this very `s` — covers keep no coordinates of their
  /// own; segment-bucket witness tests resolve against the live geometry's
  /// rings. The R side is classified asymmetrically: a polyline/point R
  /// walks its segments (clipped to the MBR overlap) directly against S's
  /// cover — no R cover is ever built for it — while a polygon R (whose
  /// interior matters) lazily builds `r_cover` and compares runs.
  virtual CellDecision Classify(const Geometry& r, CellCover* r_cover,
                                const Geometry& s,
                                const CellCover& s_cover) = 0;

  /// The grid in use; nullptr for the exact engine.
  virtual const CellGrid* grid() const { return nullptr; }

  /// Builds the engine for one query. `universe` is the join universe
  /// (union of both inputs); the average MBR extents drive the auto grid
  /// order when opts.grid_order == 0. The exact engine classifies every
  /// pair kNeedExact — the caller's loop degenerates to the classic path.
  static std::unique_ptr<RefinementEngine> Create(
      SpatialPredicate pred, const RefineOptions& opts, const Rect& universe,
      double avg_extent_x, double avg_extent_y);
};

}  // namespace pbsm

#endif  // PBSM_CORE_REFINEMENT_ENGINE_H_
