#include "core/join_methods_internal.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <queue>
#include <utility>
#include <vector>

#include "common/canceller.h"
#include "common/metrics.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/plane_sweep_join.h"
#include "core/refinement.h"
#include "core/spatial_partitioner.h"
#include "core/sweep_kernel.h"
#include "core/two_layer_filter.h"
#include "storage/tuple.h"

namespace pbsm {

namespace {

/// Wraps a status returned from inside a phase: flushes every thread's
/// still-open trace spans first, so an error or cancellation export (the
/// METRICS_JSON span tree, a Chrome trace) keeps the phase spans that were
/// open at exit instead of orphaning their finished sub-spans.
Status EarlyExit(const Status& status) {
  Tracer::Global().FlushOpenSpans();
  return status;
}

/// A phase's failure, in reporting priority: first real task error (the
/// root cause), then an external cancellation with the canceller's own
/// reason, then any remaining per-task status (sibling kCancelled noise).
Status PhaseStatus(const Canceller& cancel,
                   const std::vector<Status>& task_status) {
  PBSM_RETURN_IF_ERROR(cancel.FirstError());
  if (cancel.is_cancelled()) return cancel.CancellationStatus();
  for (const Status& ts : task_status) PBSM_RETURN_IF_ERROR(ts);
  return Status::OK();
}

/// Key-pointer buffers one scan task routed into: one vector per partition.
using PartitionBuffers = std::vector<std::vector<KeyPointer>>;

/// Scans pages [first, end) of `heap`, routing each tuple's key-pointer
/// into `bufs` (one bucket per partition).
Status ScanRangeIntoBuffers(const HeapFile& heap, uint32_t first,
                            uint32_t end, const SpatialPartitioner& part,
                            const Canceller& cancel, PartitionBuffers* bufs,
                            uint64_t* replicated) {
  std::vector<uint32_t> targets;
  return heap.ScanPages(
      first, end, [&](Oid oid, const char* data, size_t size) -> Status {
        if (cancel.is_cancelled()) {
          return Status::Cancelled("sibling scan task failed");
        }
        PBSM_ASSIGN_OR_RETURN(const Tuple tuple, Tuple::Parse(data, size));
        const KeyPointer kp{tuple.geometry.Mbr(), oid.Encode()};
        targets.clear();
        part.PartitionsFor(kp.mbr, &targets);
        *replicated += targets.size() - 1;
        for (const uint32_t p : targets) {
          (*bufs)[p].push_back(kp);
        }
        return Status::OK();
      });
}

/// Sweeps one in-memory partition pair into `out`, recursively
/// repartitioning with a finer grid when the pair exceeds the memory
/// budget (§3.5, the in-memory analogue of the serial MergePair).
void SweepPartitionPair(std::vector<KeyPointer>* r,
                        std::vector<KeyPointer>* s, const Rect& universe,
                        const JoinOptions& opts, uint32_t depth,
                        InputOrder order, std::vector<OidPair>* out,
                        uint64_t* candidates, uint64_t* repartitioned) {
  if (r->empty() || s->empty()) return;
  const uint64_t pair_bytes = (r->size() + s->size()) * sizeof(KeyPointer);
  if (pair_bytes <= opts.memory_budget_bytes || !opts.dynamic_repartition ||
      depth >= opts.max_repartition_depth) {
    *candidates += PlaneSweepJoinBatch(r, s, VectorBatchSink{out}, opts.sweep,
                                       opts.simd, order);
    return;
  }

  ++*repartitioned;
  if (opts.sweep == SweepAlgorithm::kForwardSweep &&
      order != InputOrder::kSortedByXlo) {
    // Sort once at the overflowing parent: routing below preserves order,
    // so every recursive sub-sweep can skip its own std::sort.
    auto by_xlo = [](const KeyPointer& a, const KeyPointer& b) {
      return a.mbr.xlo < b.mbr.xlo;
    };
    std::sort(r->begin(), r->end(), by_xlo);
    std::sort(s->begin(), s->end(), by_xlo);
    order = InputOrder::kSortedByXlo;
  }
  uint32_t sub_parts = SpatialPartitioner::EstimatePartitionCount(
      r->size(), s->size(), opts.memory_budget_bytes);
  if (sub_parts < 2) sub_parts = 2;
  const uint32_t sub_tiles = sub_parts * 16 + 7;  // Off the parent shape.
  const SpatialPartitioner sub(universe, sub_tiles, sub_parts, opts.mapping);

  auto route = [&](std::vector<KeyPointer>* in,
                   std::vector<std::vector<KeyPointer>>* subs) {
    subs->resize(sub_parts);
    std::vector<uint32_t> targets;
    for (const KeyPointer& kp : *in) {
      targets.clear();
      sub.PartitionsFor(kp.mbr, &targets);
      for (const uint32_t p : targets) (*subs)[p].push_back(kp);
    }
    in->clear();
    in->shrink_to_fit();
  };
  std::vector<std::vector<KeyPointer>> r_subs, s_subs;
  route(r, &r_subs);
  route(s, &s_subs);
  for (uint32_t p = 0; p < sub_parts; ++p) {
    SweepPartitionPair(&r_subs[p], &s_subs[p], universe, opts, depth + 1,
                       order, out, candidates, repartitioned);
    r_subs[p] = {};
    s_subs[p] = {};
  }
  // Sub-partitioning can replicate pairs across sub-partitions; the
  // candidate merge removes them like any other duplicate.
}

/// Splits [0, total) into `chunks` near-equal contiguous ranges.
std::vector<std::pair<uint32_t, uint32_t>> SplitRange(uint32_t total,
                                                      uint32_t chunks) {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  if (chunks == 0) chunks = 1;
  const uint32_t base = total / chunks;
  const uint32_t extra = total % chunks;
  uint32_t begin = 0;
  for (uint32_t c = 0; c < chunks; ++c) {
    const uint32_t len = base + (c < extra ? 1 : 0);
    out.emplace_back(begin, begin + len);
    begin += len;
  }
  return out;
}

/// Records a task's busy seconds into the per-task slot and the executing
/// worker's accumulator (a worker runs its tasks serially, so the
/// per-worker slot needs no lock).
class TaskTimer {
 public:
  TaskTimer(double* task_slot, std::vector<double>* worker_busy)
      : task_slot_(task_slot), worker_busy_(worker_busy) {}
  ~TaskTimer() {
    const double s = watch_.ElapsedSeconds();
    *task_slot_ += s;
    const int w = ThreadPool::CurrentWorker();
    if (w >= 0 && static_cast<size_t>(w) < worker_busy_->size()) {
      (*worker_busy_)[static_cast<size_t>(w)] += s;
    }
  }

 private:
  double* task_slot_;
  std::vector<double>* worker_busy_;
  Stopwatch watch_;
};

// ---------------------------------------------------------------------------
// Two-layer (duplicate-free) executor. See core/two_layer_filter.h for the
// scheme; here it replaces phases 2+3a of the merge path with one "filter
// partitions" phase whose output needs no k-way dedup merge.
// ---------------------------------------------------------------------------

/// Classed-copy buffers one scan task routed into: one vector per partition.
using ClassedBuffers = std::vector<std::vector<ClassedKeyPointer>>;

/// Scans pages [first, end) of `heap`, replicating each tuple into every
/// tile its MBR overlaps with the copy's corner class, routed to the tile's
/// partition bucket. `class_counts` accumulates per-class copy counts
/// (indexed by TileClass) for the partition.class_* metrics.
Status ScanRangeIntoClassedBuffers(const HeapFile& heap, uint32_t first,
                                   uint32_t end,
                                   const SpatialPartitioner& part,
                                   const Canceller& cancel,
                                   ClassedBuffers* bufs, uint64_t* replicated,
                                   uint64_t* class_counts) {
  std::vector<TileAssignment> targets;
  return heap.ScanPages(
      first, end, [&](Oid oid, const char* data, size_t size) -> Status {
        if (cancel.is_cancelled()) {
          return Status::Cancelled("sibling scan task failed");
        }
        PBSM_ASSIGN_OR_RETURN(const Tuple tuple, Tuple::Parse(data, size));
        ClassedKeyPointer ckp;
        ckp.mbr = tuple.geometry.Mbr();
        ckp.oid = oid.Encode();
        targets.clear();
        part.ClassifyTiles(ckp.mbr, &targets);
        *replicated += targets.size() - 1;
        for (const TileAssignment& ta : targets) {
          ckp.tile = ta.tile;
          ckp.cls = static_cast<uint32_t>(ta.cls);
          ++class_counts[ckp.cls];
          (*bufs)[part.PartitionOfTile(ta.tile)].push_back(ckp);
        }
        return Status::OK();
      });
}

/// The two-layer executor body: phase 1 routes classed copies, phase 2 runs
/// the per-partition mini-joins (no dedup merge exists — every candidate
/// pair is emitted exactly once globally), phase 3 concatenates the worker
/// arenas, sorts once for refinement I/O order, and refines OID_R-aligned
/// shards exactly like the merge path — minus its k-way dedup merge.
/// Unlike the merge path there is no §3.5 repartition:
/// partitions are processed whole (the mini-join is an out-of-place sweep
/// whose footprint is the partition itself, already sized by Equation 1).
Result<JoinCostBreakdown> ParallelTwoLayerJoin(
    BufferPool* pool, const JoinInput& r, const JoinInput& s,
    SpatialPredicate pred, const JoinOptions& opts, const ResultSink& sink,
    ParallelJoinStats& st, const SpatialPartitioner& partitioner,
    uint32_t threads, JoinCostBreakdown breakdown) {
  DiskManager* disk = pool->disk();
  const uint32_t num_partitions = partitioner.num_partitions();

  Stopwatch total_watch;
  ThreadPool tp(threads);
  Canceller cancel(opts.cancel);
  static Counter* const cancelled_tasks =
      MetricsRegistry::Global().GetCounter("join.parallel.cancelled_tasks");

  // ---- Phase 1: parallel classed filter scan. As in the merge path, but
  // each copy additionally carries (tile, class). ----
  const auto r_ranges = SplitRange(r.heap->num_pages(), threads);
  const auto s_ranges = SplitRange(s.heap->num_pages(), threads);
  std::vector<ClassedBuffers> r_bufs(threads), s_bufs(threads);
  std::vector<uint64_t> task_replicated(2 * threads, 0);
  std::vector<std::array<uint64_t, 4>> task_classes(
      2 * threads, std::array<uint64_t, 4>{0, 0, 0, 0});
  std::vector<Status> task_status(2 * threads);
  st.partition_task_seconds.assign(2 * threads, 0.0);
  {
    PhaseCost& cost = breakdown.AddPhase("partition inputs");
    PhaseTimer timer(disk, &cost, "partition inputs");
    Stopwatch wall;
    for (uint32_t t = 0; t < threads; ++t) {
      tp.Submit([&, t] {
        TaskTimer tt(&st.partition_task_seconds[t],
                     &st.worker_busy_seconds);
        if (cancel.is_cancelled()) {
          cancelled_tasks->Add();
          task_status[t] = Status::Cancelled("sibling scan task failed");
          return;
        }
        r_bufs[t].resize(num_partitions);
        task_status[t] = ScanRangeIntoClassedBuffers(
            *r.heap, r_ranges[t].first, r_ranges[t].second, partitioner,
            cancel, &r_bufs[t], &task_replicated[t], task_classes[t].data());
        cancel.Report(task_status[t]);
      });
      tp.Submit([&, t] {
        TaskTimer tt(&st.partition_task_seconds[threads + t],
                     &st.worker_busy_seconds);
        if (cancel.is_cancelled()) {
          cancelled_tasks->Add();
          task_status[threads + t] =
              Status::Cancelled("sibling scan task failed");
          return;
        }
        s_bufs[t].resize(num_partitions);
        task_status[threads + t] = ScanRangeIntoClassedBuffers(
            *s.heap, s_ranges[t].first, s_ranges[t].second, partitioner,
            cancel, &s_bufs[t], &task_replicated[threads + t],
            task_classes[threads + t].data());
        cancel.Report(task_status[threads + t]);
      });
    }
    tp.Wait();
    st.partition_wall_seconds = wall.ElapsedSeconds();
  }
  {
    const Status ps = PhaseStatus(cancel, task_status);
    if (!ps.ok()) return EarlyExit(ps);
  }
  for (const uint64_t rep : task_replicated) breakdown.replicated += rep;
  {
    uint64_t classes[4] = {0, 0, 0, 0};
    for (const auto& tc : task_classes) {
      for (size_t c = 0; c < 4; ++c) classes[c] += tc[c];
    }
    two_layer_internal::FlushClassCounts(classes);
  }

  // ---- Phase 2: concurrent duplicate-free mini-joins, one task per
  // partition. Each task gathers its partition's classed copies into
  // thread-local scratch and appends its candidate run to the executing
  // worker's arena — no cross-worker writes, no dedup merge. ----
  std::vector<std::vector<OidPair>> arenas(threads);
  std::vector<uint64_t> task_candidates(num_partitions, 0);
  st.sweep_task_seconds.assign(num_partitions, 0.0);
  st.sweep_task_key_pointers.assign(num_partitions, 0);
  const KernelKind kind = ResolveKernel(opts.simd);
  {
    PhaseCost& cost = breakdown.AddPhase("filter partitions");
    PhaseTimer timer(disk, &cost, "filter partitions");
    Stopwatch wall;
    for (uint32_t p = 0; p < num_partitions; ++p) {
      tp.Submit([&, p] {
        TaskTimer tt(&st.sweep_task_seconds[p], &st.worker_busy_seconds);
        if (cancel.is_cancelled()) {
          cancelled_tasks->Add();
          return;
        }
        size_t r_total = 0, s_total = 0;
        for (uint32_t t = 0; t < threads; ++t) {
          r_total += r_bufs[t][p].size();
          s_total += s_bufs[t][p].size();
        }
        if (r_total == 0 || s_total == 0) return;
        st.sweep_task_key_pointers[p] = r_total + s_total;
        // Thread-local gather buffers: partitions handled by the same
        // worker reuse their capacity, so steady state performs no
        // per-partition allocations (asserted by the zero-alloc test).
        thread_local std::vector<ClassedKeyPointer> r_kps, s_kps;
        r_kps.clear();
        s_kps.clear();
        r_kps.reserve(r_total);
        s_kps.reserve(s_total);
        for (uint32_t t = 0; t < threads; ++t) {
          auto& rb = r_bufs[t][p];
          r_kps.insert(r_kps.end(), rb.begin(), rb.end());
          rb = {};
          auto& sb = s_bufs[t][p];
          s_kps.insert(s_kps.end(), sb.begin(), sb.end());
          sb = {};
        }
        const int w = ThreadPool::CurrentWorker();
        PBSM_CHECK(w >= 0 && static_cast<size_t>(w) < arenas.size())
            << "filter task executed outside the pool";
        task_candidates[p] = TwoLayerPartitionJoinBatch(
            &r_kps, &s_kps, kind,
            VectorBatchSink{&arenas[static_cast<size_t>(w)]});
      });
    }
    tp.Wait();
    st.sweep_wall_seconds = wall.ElapsedSeconds();
  }
  if (cancel.is_cancelled()) return EarlyExit(cancel.CancellationStatus());
  for (uint32_t p = 0; p < num_partitions; ++p) {
    breakdown.candidates += task_candidates[p];
  }
  // st.merge_wall_seconds stays 0: there is no merge phase to pay for.

  // ---- Phase 3: one global refinement order, then parallel refinement
  // over OID_R-aligned shards, as in the merge path's phase 3b. The runs
  // are duplicate-free across partitions, so preparing the stream is a
  // plain concatenate + sort for refinement I/O locality (each R page is
  // fetched by exactly one shard) — no k-way merge, no dedup compare. ----
  {
    PhaseCost& cost = breakdown.AddPhase("refinement");
    PhaseTimer timer(disk, &cost, "refinement");
    Stopwatch wall;

    std::vector<OidPair> candidates;
    candidates.reserve(static_cast<size_t>(breakdown.candidates));
    for (std::vector<OidPair>& arena : arenas) {
      candidates.insert(candidates.end(), arena.begin(), arena.end());
      arena = {};
    }
    std::sort(candidates.begin(), candidates.end(), OidPairLess{});

    std::vector<std::pair<size_t, size_t>> shards;
    const size_t n = candidates.size();
    const size_t target = (n + threads - 1) / std::max<uint32_t>(threads, 1);
    size_t begin = 0;
    while (begin < n) {
      size_t end = std::min(n, begin + std::max<size_t>(target, 1));
      while (end < n && candidates[end].r == candidates[end - 1].r) ++end;
      shards.emplace_back(begin, end);
      begin = end;
    }

    std::mutex sink_mutex;
    std::vector<JoinCostBreakdown> shard_breakdowns(shards.size());
    std::vector<Status> shard_status(shards.size());
    st.refine_task_seconds.assign(shards.size(), 0.0);
    for (size_t i = 0; i < shards.size(); ++i) {
      tp.Submit([&, i] {
        TaskTimer tt(&st.refine_task_seconds[i], &st.worker_busy_seconds);
        if (cancel.is_cancelled()) {
          cancelled_tasks->Add();
          shard_status[i] = Status::Cancelled("sibling refine shard failed");
          return;
        }
        size_t cursor = shards[i].first;
        const size_t end = shards[i].second;
        const SortedPairStream next = [&candidates, &cursor, end,
                                       &cancel](OidPair* out) -> Result<bool> {
          if (cancel.is_cancelled()) {
            return Status::Cancelled("sibling refine shard failed");
          }
          if (cursor >= end) return false;
          *out = candidates[cursor++];
          return true;
        };
        ResultSink shard_sink;
        if (sink) {
          shard_sink = [&sink, &sink_mutex](Oid ro, Oid so) {
            std::lock_guard<std::mutex> lock(sink_mutex);
            sink(ro, so);
          };
        }
        shard_status[i] =
            RefinePairStream(next, r, s, pred, opts, shard_sink,
                             &shard_breakdowns[i]);
        cancel.Report(shard_status[i]);
      });
    }
    tp.Wait();
    st.refine_wall_seconds = wall.ElapsedSeconds();
    const Status ps = PhaseStatus(cancel, shard_status);
    if (!ps.ok()) return EarlyExit(ps);
    for (const JoinCostBreakdown& sb : shard_breakdowns) {
      breakdown.results += sb.results;
    }
  }

  st.total_wall_seconds = total_watch.ElapsedSeconds();
  return breakdown;
}

}  // namespace

double ParallelJoinStats::SweepBalanceCov() const {
  std::vector<double> loads;
  loads.reserve(sweep_task_key_pointers.size());
  for (const uint64_t n : sweep_task_key_pointers) {
    if (n > 0) loads.push_back(static_cast<double>(n));
  }
  return ComputeStats(loads).CoefficientOfVariation();
}

double ParallelJoinStats::TotalBusySeconds() const {
  double sum = 0.0;
  for (const double s : partition_task_seconds) sum += s;
  for (const double s : sweep_task_seconds) sum += s;
  for (const double s : refine_task_seconds) sum += s;
  return sum;
}

double ParallelJoinStats::CriticalPathSpeedup() const {
  double slowest = 0.0;
  for (const double s : worker_busy_seconds) {
    slowest = std::max(slowest, s);
  }
  const double total = TotalBusySeconds();
  return slowest == 0.0 ? 1.0 : total / slowest;
}

Result<JoinCostBreakdown> ParallelPbsmJoin(BufferPool* pool,
                                           const JoinInput& r,
                                           const JoinInput& s,
                                           SpatialPredicate pred,
                                           const JoinOptions& opts,
                                           const ResultSink& sink,
                                           ParallelJoinStats* stats) {
  JoinCostBreakdown breakdown;
  DiskManager* disk = pool->disk();
  const uint32_t threads = opts.num_threads != 0
                               ? opts.num_threads
                               : static_cast<uint32_t>(
                                     ThreadPool::DefaultThreads());

  const Rect universe = Rect::Union(r.info.universe, s.info.universe);
  if (universe.empty()) {
    return Status::InvalidArgument("join inputs have an empty universe");
  }

  // Equation 1 sizes partitions for the memory budget; the executor
  // additionally wants enough partitions to keep every worker busy in the
  // sweep phase, so it raises the count to 4 tasks per thread (an explicit
  // override is respected verbatim).
  uint32_t num_partitions =
      opts.num_partitions_override != 0
          ? opts.num_partitions_override
          : std::max(SpatialPartitioner::EstimatePartitionCount(
                         r.info.cardinality, s.info.cardinality,
                         opts.memory_budget_bytes),
                     threads * 4);
  const uint32_t num_tiles = std::max(opts.num_tiles, num_partitions);
  const SpatialPartitioner partitioner(universe, num_tiles, num_partitions,
                                       opts.mapping);
  breakdown.num_partitions = num_partitions;
  breakdown.num_tiles = partitioner.num_tiles();

  ParallelJoinStats local_stats;
  ParallelJoinStats& st = stats != nullptr ? *stats : local_stats;
  st = ParallelJoinStats();
  st.num_threads = threads;
  st.worker_busy_seconds.assign(threads, 0.0);

  if (opts.dedup_mode == DedupMode::kTwoLayer) {
    return ParallelTwoLayerJoin(pool, r, s, pred, opts, sink, st, partitioner,
                                threads, std::move(breakdown));
  }

  Stopwatch total_watch;
  ThreadPool tp(threads);
  // Error propagation between sibling tasks, chained below the caller's
  // cancel flag (service timeout / client abort) when one is supplied: a
  // tripped parent stops every task at its next poll, exactly like a
  // sibling failure, but the parent's reason wins in the returned status.
  Canceller cancel(opts.cancel);
  static Counter* const cancelled_tasks =
      MetricsRegistry::Global().GetCounter("join.parallel.cancelled_tasks");

  // ---- Phase 1: parallel filter scan. Each task owns a page range of one
  // input and private per-partition buffers; the barrier makes them visible
  // to the sweep tasks without locks. ----
  const auto r_ranges = SplitRange(r.heap->num_pages(), threads);
  const auto s_ranges = SplitRange(s.heap->num_pages(), threads);
  std::vector<PartitionBuffers> r_bufs(threads), s_bufs(threads);
  std::vector<uint64_t> task_replicated(2 * threads, 0);
  std::vector<Status> task_status(2 * threads);
  st.partition_task_seconds.assign(2 * threads, 0.0);
  {
    PhaseCost& cost = breakdown.AddPhase("partition inputs");
    PhaseTimer timer(disk, &cost, "partition inputs");
    Stopwatch wall;
    for (uint32_t t = 0; t < threads; ++t) {
      tp.Submit([&, t] {
        TaskTimer tt(&st.partition_task_seconds[t],
                     &st.worker_busy_seconds);
        if (cancel.is_cancelled()) {
          cancelled_tasks->Add();
          task_status[t] = Status::Cancelled("sibling scan task failed");
          return;
        }
        r_bufs[t].resize(num_partitions);
        task_status[t] = ScanRangeIntoBuffers(
            *r.heap, r_ranges[t].first, r_ranges[t].second, partitioner,
            cancel, &r_bufs[t], &task_replicated[t]);
        cancel.Report(task_status[t]);
      });
      tp.Submit([&, t] {
        TaskTimer tt(&st.partition_task_seconds[threads + t],
                     &st.worker_busy_seconds);
        if (cancel.is_cancelled()) {
          cancelled_tasks->Add();
          task_status[threads + t] =
              Status::Cancelled("sibling scan task failed");
          return;
        }
        s_bufs[t].resize(num_partitions);
        task_status[threads + t] = ScanRangeIntoBuffers(
            *s.heap, s_ranges[t].first, s_ranges[t].second, partitioner,
            cancel, &s_bufs[t], &task_replicated[threads + t]);
        cancel.Report(task_status[threads + t]);
      });
    }
    tp.Wait();
    st.partition_wall_seconds = wall.ElapsedSeconds();
  }
  // The first real error wins; sibling kCancelled statuses are noise, and
  // an external cancellation surfaces with the canceller's own reason.
  {
    const Status ps = PhaseStatus(cancel, task_status);
    if (!ps.ok()) return EarlyExit(ps);
  }
  for (const uint64_t rep : task_replicated) breakdown.replicated += rep;

  // ---- Phase 2: concurrent plane-sweep, one task per partition pair.
  // Each task gathers the scan tasks' buckets for its partition, sweeps
  // them, and leaves a sorted candidate run. ----
  std::vector<std::vector<OidPair>> partition_candidates(num_partitions);
  std::vector<uint64_t> task_candidates(num_partitions, 0);
  std::vector<uint64_t> task_repartitioned(num_partitions, 0);
  st.sweep_task_seconds.assign(num_partitions, 0.0);
  st.sweep_task_key_pointers.assign(num_partitions, 0);
  {
    PhaseCost& cost = breakdown.AddPhase("sweep partitions");
    PhaseTimer timer(disk, &cost, "sweep partitions");
    Stopwatch wall;
    for (uint32_t p = 0; p < num_partitions; ++p) {
      tp.Submit([&, p] {
        TaskTimer tt(&st.sweep_task_seconds[p], &st.worker_busy_seconds);
        // Pure-CPU phase: no per-task status, but an external cancellation
        // (timeout) should not grind through the remaining partitions. The
        // post-phase is_cancelled() check below reports it.
        if (cancel.is_cancelled()) {
          cancelled_tasks->Add();
          return;
        }
        size_t r_total = 0, s_total = 0;
        for (uint32_t t = 0; t < threads; ++t) {
          r_total += r_bufs[t][p].size();
          s_total += s_bufs[t][p].size();
        }
        if (r_total == 0 || s_total == 0) return;
        st.sweep_task_key_pointers[p] = r_total + s_total;
        std::vector<KeyPointer> r_kps, s_kps;
        r_kps.reserve(r_total);
        s_kps.reserve(s_total);
        for (uint32_t t = 0; t < threads; ++t) {
          auto& rb = r_bufs[t][p];
          r_kps.insert(r_kps.end(), rb.begin(), rb.end());
          rb = {};
          auto& sb = s_bufs[t][p];
          s_kps.insert(s_kps.end(), sb.begin(), sb.end());
          sb = {};
        }
        SweepPartitionPair(&r_kps, &s_kps, universe, opts, /*depth=*/0,
                           InputOrder::kUnsorted, &partition_candidates[p],
                           &task_candidates[p], &task_repartitioned[p]);
        std::sort(partition_candidates[p].begin(),
                  partition_candidates[p].end(), OidPairLess{});
      });
    }
    tp.Wait();
    st.sweep_wall_seconds = wall.ElapsedSeconds();
  }
  if (cancel.is_cancelled()) return EarlyExit(cancel.CancellationStatus());
  for (uint32_t p = 0; p < num_partitions; ++p) {
    breakdown.candidates += task_candidates[p];
    breakdown.repartitioned_pairs += task_repartitioned[p];
  }

  // ---- Phase 3a: k-way merge of the sorted candidate runs with duplicate
  // elimination (serial; O(N log P) on in-memory runs). ----
  std::vector<OidPair> deduped;
  {
    PhaseCost& cost = breakdown.AddPhase("merge candidates");
    PhaseTimer timer(disk, &cost, "merge candidates");
    Stopwatch wall;
    deduped.reserve(breakdown.candidates);
    struct RunCursor {
      const std::vector<OidPair>* run;
      size_t index;
    };
    auto greater = [](const std::pair<OidPair, size_t>& a,
                      const std::pair<OidPair, size_t>& b) {
      return b.first < a.first;
    };
    std::priority_queue<std::pair<OidPair, size_t>,
                        std::vector<std::pair<OidPair, size_t>>,
                        decltype(greater)>
        heap(greater);
    std::vector<RunCursor> cursors;
    cursors.reserve(num_partitions);
    for (uint32_t p = 0; p < num_partitions; ++p) {
      if (partition_candidates[p].empty()) continue;
      cursors.push_back(RunCursor{&partition_candidates[p], 0});
      heap.emplace(partition_candidates[p][0], cursors.size() - 1);
    }
    while (!heap.empty()) {
      const auto [pair, c] = heap.top();
      heap.pop();
      if (deduped.empty() || !(deduped.back() == pair)) {
        deduped.push_back(pair);
      } else {
        ++breakdown.duplicates_removed;
      }
      RunCursor& cur = cursors[c];
      if (++cur.index < cur.run->size()) {
        heap.emplace((*cur.run)[cur.index], c);
      }
    }
    partition_candidates.clear();
    st.merge_wall_seconds = wall.ElapsedSeconds();
  }

  // ---- Phase 3b: parallel refinement over OID_R-aligned shards. Keeping
  // every pair of one R tuple in a single shard means shards fetch disjoint
  // R pages (near-sequential reads, as in the serial §3.2 step). ----
  {
    PhaseCost& cost = breakdown.AddPhase("refinement");
    PhaseTimer timer(disk, &cost, "refinement");
    Stopwatch wall;

    std::vector<std::pair<size_t, size_t>> shards;
    const size_t n = deduped.size();
    const size_t target = (n + threads - 1) / std::max<uint32_t>(threads, 1);
    size_t begin = 0;
    while (begin < n) {
      size_t end = std::min(n, begin + std::max<size_t>(target, 1));
      // Advance to the next OID_R boundary.
      while (end < n && deduped[end].r == deduped[end - 1].r) ++end;
      shards.emplace_back(begin, end);
      begin = end;
    }

    std::mutex sink_mutex;
    std::vector<JoinCostBreakdown> shard_breakdowns(shards.size());
    std::vector<Status> shard_status(shards.size());
    st.refine_task_seconds.assign(shards.size(), 0.0);
    for (size_t i = 0; i < shards.size(); ++i) {
      tp.Submit([&, i] {
        TaskTimer tt(&st.refine_task_seconds[i], &st.worker_busy_seconds);
        if (cancel.is_cancelled()) {
          cancelled_tasks->Add();
          shard_status[i] = Status::Cancelled("sibling refine shard failed");
          return;
        }
        size_t cursor = shards[i].first;
        const size_t end = shards[i].second;
        // The stream is the shard's inner loop; polling the cancellation
        // flag here bounds how much doomed refinement I/O a sibling still
        // performs after the first failure.
        const SortedPairStream next = [&deduped, &cursor, end,
                                       &cancel](OidPair* out) -> Result<bool> {
          if (cancel.is_cancelled()) {
            return Status::Cancelled("sibling refine shard failed");
          }
          if (cursor >= end) return false;
          *out = deduped[cursor++];
          return true;
        };
        ResultSink shard_sink;
        if (sink) {
          shard_sink = [&sink, &sink_mutex](Oid ro, Oid so) {
            std::lock_guard<std::mutex> lock(sink_mutex);
            sink(ro, so);
          };
        }
        shard_status[i] =
            RefinePairStream(next, r, s, pred, opts, shard_sink,
                             &shard_breakdowns[i]);
        cancel.Report(shard_status[i]);
      });
    }
    tp.Wait();
    st.refine_wall_seconds = wall.ElapsedSeconds();
    const Status ps = PhaseStatus(cancel, shard_status);
    if (!ps.ok()) return EarlyExit(ps);
    for (const JoinCostBreakdown& sb : shard_breakdowns) {
      breakdown.results += sb.results;
    }
  }

  st.total_wall_seconds = total_watch.ElapsedSeconds();
  return breakdown;
}

}  // namespace pbsm
