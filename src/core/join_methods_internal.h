#ifndef PBSM_CORE_JOIN_METHODS_INTERNAL_H_
#define PBSM_CORE_JOIN_METHODS_INTERNAL_H_

// Implementation-internal building blocks of the join algorithms: the
// filter step of each method and the real parallel PBSM executor. The exec
// layer's operators (FilterJoinOp, ParallelJoinOp) wrap them, and the
// SpatialJoin facade (core/spatial_join.h) drives those operators; tests,
// benches, examples and the service go through the facade. Only
// src/core/*.cc, the operator engine in src/exec/*.cc and tests of the
// building blocks include this header.
//
// Each XxxFilter function runs its method's filter step only, appending
// candidate OID pairs to a caller-owned CandidateSorter; the refinement
// step is RefineCandidates (core/refinement.h) behind RefineOp.

#include "common/status.h"
#include "core/join_cost.h"
#include "core/join_options.h"
#include "core/parallel_stats.h"
#include "core/refinement.h"
#include "core/spatial_join.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"

namespace pbsm {

/// Real shared-memory parallel PBSM join (the paper's §5 direction, run on
/// a work-stealing thread pool) over the duplicate-free two-layer filter
/// (core/two_layer_filter.h), in three phases:
///  * "partition inputs": page ranges of both inputs split across scan
///    tasks, each replicating tuples into per-partition buffers as
///    corner-classed tile copies (no locks);
///  * "filter partitions": each partition is an independent task running
///    the class-pair mini-joins — globally, every candidate pair is
///    emitted exactly once, so each task appends its run to the executing
///    worker's arena. Partitions are processed whole (no §3.5 repartition);
///  * "refinement": the arenas are concatenated and sorted once, sharded
///    on OID_R boundaries and refined concurrently (each shard fetches
///    disjoint R tuples through the thread-safe buffer pool).
/// No merge-dedup phase exists. opts.dedup_mode is ignored: the paper's
/// merge-dedup reference point is the serial PbsmFilter.
///
/// Produces exactly the result pairs of serial PBSM.
/// `sink` may be called concurrently from worker threads (calls are
/// serialised internally, but arrival order is nondeterministic).
///
/// In the returned breakdown, each phase's cpu_seconds is the phase's
/// *wall-clock* time (workers run concurrently) and its io counters are the
/// aggregate physical I/O of the phase; per-task busy times live in
/// `*stats` (optional).
Result<JoinCostBreakdown> ParallelPbsmJoin(BufferPool* pool,
                                           const JoinInput& r,
                                           const JoinInput& s,
                                           SpatialPredicate pred,
                                           const JoinOptions& opts,
                                           const ResultSink& sink = {},
                                           ParallelJoinStats* stats = nullptr);

// --- Filter step (candidate producers) ---
//
// Each runs its method's filter phases (recorded into `*breakdown`) and
// appends candidate OID pairs to `*sorter` without calling Finish() on it.
// Pairs are in the caller's (r, s) orientation. Cancellation is polled
// between partitions (PBSM) or probes (INL).

/// PBSM filter (the paper's §3.1): both inputs are scanned once; each
/// tuple's key-pointer (<MBR, OID>) is routed by the tiled spatial
/// partitioning function into one or more of P on-disk partitions (P from
/// Equation 1 unless overridden), and each partition pair is merged in
/// memory with the plane sweep (§3.4). Partition pairs over the memory
/// budget are handled per §3.5: repartitioned with a finer tile grid (when
/// opts.dynamic_repartition), falling back to chunked sweeps with S
/// re-reads once the recursion depth is exhausted. Phases
/// "partition <r>", "partition <s>", "merge partitions".
Status PbsmFilter(BufferPool* pool, const JoinInput& r, const JoinInput& s,
                  const JoinOptions& opts, CandidateSorter* sorter,
                  JoinCostBreakdown* breakdown);

/// BKS93 tree-join filter (the paper's §4.2 baseline): bulk loads an
/// R*-tree on each input that lacks one, runs the synchronized depth-first
/// traversal (the entries of one R node and one S node are joined with the
/// plane sweep PBSM uses), and drops any index it built before returning.
/// Phases "build index <name>" (per missing side), "join trees".
Status RtreeFilter(BufferPool* pool, const JoinInput& r, const JoinInput& s,
                   const JoinOptions& opts, CandidateSorter* sorter,
                   JoinCostBreakdown* breakdown,
                   const RStarTree* r_index = nullptr,
                   const RStarTree* s_index = nullptr);

/// INL filter (the paper's §4.1): builds (or reuses) the index over
/// `indexed`, probes it with every `probing` tuple, and emits each
/// window-query hit as a candidate pair; the exact test runs in the
/// downstream refinement. Pairs are emitted as (indexed, probing) when
/// `emit_indexed_first`, else flipped — the caller passes the flag
/// restoring its own (r, s) orientation. Any index built here is dropped
/// before returning. Phases "build index <name>" (when building),
/// "probe index".
Status InlFilter(BufferPool* pool, const JoinInput& indexed,
                 const JoinInput& probing, const JoinOptions& opts,
                 CandidateSorter* sorter, JoinCostBreakdown* breakdown,
                 const RStarTree* preexisting_index = nullptr,
                 bool emit_indexed_first = true);

/// Spatial hash filter (Lo & Ravishankar, SIGMOD '96; the paper's §2).
/// Unlike PBSM it is asymmetric: a Hilbert-sorted sample of R seeds the
/// bucket extents; every R tuple goes to exactly ONE bucket (the one
/// needing the least enlargement, which then grows to cover it); every S
/// tuple is replicated to all buckets whose final extents it overlaps, and
/// dropped when it overlaps none; each bucket pair is plane-sweep joined.
/// Phases "sample <r>", "partition <r>", "partition <s>", "merge buckets".
Status SpatialHashFilter(BufferPool* pool, const JoinInput& r,
                         const JoinInput& s, const JoinSpec::Hash& hash,
                         const JoinOptions& opts, CandidateSorter* sorter,
                         JoinCostBreakdown* breakdown);

/// Z-order filter (Orenstein, [Ore86, OM88]; the paper's Table 1). Each
/// MBR is approximated by up to `zorder.max_cells_per_object` quadtree
/// cells of a 2^max_level grid, each a z-interval [lo, hi); both inputs
/// become externally sorted z-interval lists, merged in one pass with a
/// containment stack per input. Cell covers are supersets of the MBRs, so
/// no true pair is missed, but one object pair can meet through several
/// cells (duplicates go in the refinement sort). Phases "transform <r>",
/// "transform <s>", "merge z-lists".
Status ZOrderFilter(BufferPool* pool, const JoinInput& r, const JoinInput& s,
                    const JoinSpec::ZOrder& zorder, const JoinOptions& opts,
                    CandidateSorter* sorter, JoinCostBreakdown* breakdown);

}  // namespace pbsm

#endif  // PBSM_CORE_JOIN_METHODS_INTERNAL_H_
