#ifndef PBSM_SERVICE_JOIN_ROUTER_H_
#define PBSM_SERVICE_JOIN_ROUTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/bounded_queue.h"
#include "common/canceller.h"
#include "common/metrics.h"
#include "common/status.h"
#include "core/spatial_join.h"
#include "exec/view_maintainer.h"
#include "service/shard_manager.h"
#include "storage/tuple.h"

namespace pbsm {

/// Scheduling class of a service query. Strict priority: every queued
/// interactive query runs before any batch query (FIFO within a class).
enum class QueryPriority : uint8_t {
  kInteractive = 0,
  kBatch = 1,
};

std::string_view QueryPriorityName(QueryPriority p);

/// One join the service is asked to run, by dataset name.
struct JoinRequest {
  std::string r_dataset;
  std::string s_dataset;
  SpatialPredicate predicate = SpatialPredicate::kIntersects;

  /// Forced method; nullopt lets the cost-based planner choose per shard.
  std::optional<JoinMethod> method;

  /// Forced refinement strategy; nullopt runs the service's configured
  /// default (join_defaults.refine.mode). The planner's cost model follows
  /// whichever applies, and under the adaptive modes the plan also fixes
  /// the cell-grid precision.
  std::optional<RefineMode> refine_mode;

  /// When set, only result pairs whose MBRs both overlap the window are
  /// emitted/counted (a window-restricted join), and only the shards the
  /// window overlaps run a sub-join.
  std::optional<Rect> window;

  QueryPriority priority = QueryPriority::kBatch;

  /// Wall-clock budget from submission (the deadline is armed by Submit,
  /// so time spent queued counts); 0 = unlimited. Expiry cancels the query
  /// cooperatively (StatusCode::kCancelled) — a still-queued query never
  /// runs and its sink is never called.
  double timeout_seconds = 0.0;

  /// Optional per-pair callback, invoked from service worker threads. With
  /// more than one shard the sub-joins call it CONCURRENTLY, so it must be
  /// thread-safe.
  ResultSink sink;
};

/// Execution record of one sub-join — what the scheduler appends to the
/// response for each shard a query ran on.
struct ShardSliceStats {
  uint32_t shard = 0;          ///< The shard whose slices were joined.
  JoinMethod method = JoinMethod::kPbsm;
  uint64_t num_results = 0;    ///< After window + border-ownership filters.
  double exec_seconds = 0.0;   ///< This sub-join's execution wall time.
  /// CPU time the executing worker thread spent on this sub-join. With
  /// serial sub-joins (the num_threads=1 sharded default) this is the
  /// slice's full work, immune to time-sharing with sibling workers — the
  /// number the bench's critical-path throughput is computed from. With
  /// intra-sub-join threads it undercounts (pool threads are not metered).
  double cpu_seconds = 0.0;
  bool stolen = false;         ///< Executed by a sibling shard's worker.
  bool speculative = false;    ///< Ran via speculative re-dispatch.
};

/// What a completed query reports back.
struct JoinResponse {
  /// The forced method, else the method of the first planned sub-join
  /// (the one `plan` shows). kPbsm when every slice was empty.
  JoinMethod method = JoinMethod::kPbsm;
  bool planner_chosen = false;
  /// "shardN: <cost table>" of the first planned sub-join, when the
  /// planner chose.
  std::string plan;
  uint64_t num_results = 0;
  double queue_seconds = 0.0;  ///< Submission to the first sub-join's start.
  double exec_seconds = 0.0;   ///< First sub-join's start to completion.

  /// One record per dispatched sub-join, in completion order, at every
  /// shard count (a single-shard JoinService query has exactly one).
  /// max(exec_seconds) over the slices is the query's shard-parallel
  /// critical path — the latency an unconstrained multi-core host would
  /// see; the throughput bench gates on it.
  std::vector<ShardSliceStats> shard_slices;
};

/// What Explain returns: the plan a request would run under, rendered
/// without executing anything. Every rendering holds one block per shard
/// the request would dispatch to, prefixed "shardN:".
struct ExplainResult {
  /// The forced method, or the planner's pick on the first planned shard.
  JoinMethod method = JoinMethod::kPbsm;
  bool planner_chosen = false;  ///< False when the request forced a method.
  std::string plan;       ///< Cost tables, cheapest first (PlanChoice::ToString).
  /// Planner's costed operator trees (PlanChoice::TreeString); a shard is
  /// left out when the request forced a method the planner did not pick
  /// there — the planner only costs the tree of its own choice.
  std::string cost_tree;
  /// The operator trees the exec layer would actually build and drive
  /// (DescribeTree over BuildJoinTree), including window-pushdown selects.
  std::string tree;
};

/// Ticket for one submitted query. Created by Submit; callers Wait() for
/// the gathered result and may Cancel() at any time. Thread-safe.
class JoinQuery {
 public:
  /// Blocks until every dispatched sub-join has settled and returns the
  /// gathered result. Idempotent.
  const Result<JoinResponse>& Wait();

  bool done() const;

  /// Requests cooperative cancellation of every sub-join (queued ones fail
  /// without running; running ones stop at their next check).
  void Cancel();

 private:
  friend class JoinRouter;

  JoinRequest request_;
  Canceller canceller_;
  std::chrono::steady_clock::time_point submit_time_;

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;
  uint32_t remaining_ = 0;       ///< Sub-joins not yet settled.
  bool started_ = false;         ///< First sub-join began executing.
  std::chrono::steady_clock::time_point first_start_;
  Status first_bad_;             ///< First non-OK sub-join status.
  JoinResponse response_;        ///< Aggregated under mutex_.
  Result<JoinResponse> result_{Status::Internal("query still pending")};
};

struct JoinRouterConfig {
  /// Worker threads per shard (each runs one sub-join at a time).
  uint32_t workers_per_shard = 1;

  /// Per-shard sub-join queue bound. A query whose scatter cannot place
  /// every sub-join is rejected whole with kResourceExhausted.
  size_t queue_capacity = 64;

  /// Idle beat of a shard worker: how long it waits on its home queue
  /// before scanning sibling queues for work to steal.
  double steal_poll_seconds = 0.002;

  /// Partition stealing: an idle worker pops from the deepest sibling
  /// queue. Off turns straggler mitigation down to re-dispatch only.
  bool enable_stealing = true;

  /// Speculative re-dispatch knob: > 0 re-enqueues a sub-join still queued
  /// after this many seconds onto the shallowest sibling queue. The copy
  /// and the original race for an atomic claim, so the sub-join still runs
  /// exactly once. 0 disables.
  double speculative_deadline_seconds = 0.0;

  /// Per-sub-join join knobs; `cancel` is overwritten per query.
  /// num_threads applies within one sub-join — with shards supplying the
  /// inter-query parallelism, 1 (serial sub-joins) is the right default.
  JoinOptions join_defaults;
};

/// The service scheduler: scatter-gather over the N >= 1 shards of a
/// ShardManager (see DESIGN.md "Service layer"). JoinService is this
/// scheduler over one borrowed shard.
///
///  - Submit clips the request window against the shard strips and
///    dispatches one sub-join per overlapping shard (every shard when
///    unwindowed) onto per-shard bounded priority queues;
///  - per-shard worker loops execute sub-joins against their shard's
///    storage, planning each sub-join from that shard's slice statistics
///    and index-cache state (a warm shard may run kRtree while a cold
///    sibling picks kPbsm); index-method sub-joins pin their trees in the
///    shard's IndexCache;
///  - memory admission: a sub-join reserves its operator budget against
///    half of the pool it reads before running, so concurrent sub-joins on
///    one shard cannot collectively thrash that pool;
///  - the window is pushed into the engine (a select above the join); on
///    owned shards the sub-join sinks translate slice OIDs back to global
///    OIDs and drop pairs whose border-ownership reference corner lies in
///    another strip (the two-layer rule at shard granularity —
///    scatter-gather needs no dedup merge); a borrowed shard passes the
///    user sink straight through;
///  - the first sub-join to hit a real error Report()s it on the query
///    canceller, cancelling every sibling; the gathered status is that
///    first error (kCancelled never masks it);
///  - straggler mitigation: idle workers steal from the deepest sibling
///    queue, and the monitor thread optionally re-dispatches long-queued
///    sub-joins speculatively (both guarded by a per-sub-join atomic
///    claim). A thief or copy runs only if the sub-join's shard admits it
///    immediately — no thief waits in admission;
///  - the monitor thread doubles as the timeout watchdog;
///  - graceful drain: Shutdown(true) finishes every queued sub-join,
///    Shutdown(false) fails queued ones and cancels running queries.
///
/// Views (CreateView ...) need the caller's own heaps and so exist only on
/// a borrowed shard; elsewhere they fail with kFailedPrecondition.
///
/// Metrics: query outcomes under "<prefix>.queries.*" ("service" for
/// JoinService, "service.shard" for JoinRouter), plus the shared
/// service.shard.{subjoins,stolen_partitions,redispatches,border_filtered}
/// counters, service.shard.<i>.{queue_depth,latency_us} per shard, and
/// service.{admission_waits,queue_wait_us,latency_us.<priority>}.
///
/// Thread-safety: every public method may be called from any thread.
class JoinRouter {
 public:
  JoinRouter(ShardManager* shards, JoinRouterConfig config);
  virtual ~JoinRouter();  ///< Shutdown(/*drain=*/false) if still running.

  JoinRouter(const JoinRouter&) = delete;
  JoinRouter& operator=(const JoinRouter&) = delete;

  /// Scatters a query. Fails fast with kResourceExhausted when any target
  /// shard queue is full (the whole query is rejected — partial scatters
  /// are withdrawn), kNotFound for unknown datasets, kFailedPrecondition
  /// after shutdown began.
  Result<std::shared_ptr<JoinQuery>> Submit(JoinRequest request);

  /// Submit + Wait convenience for synchronous callers.
  Result<JoinResponse> Execute(JoinRequest request);

  /// Plans `request` without executing it, shard by shard: runs the
  /// cost-based planner on each target shard's slice statistics and cache
  /// state (or honours the forced method), builds the operator tree the
  /// exec layer would drive, and returns both renderings. Touches no heap
  /// pages beyond the statistics captured at registration and never
  /// builds indexes.
  Result<ExplainResult> Explain(const JoinRequest& request) const;

  /// Unregisters `name` from every shard and invalidates cached indexes
  /// over it; refused while a view references it. Running queries keep
  /// their snapshot.
  Status DropDataset(const std::string& name);

  /// Registers a materialized join view named `view_name` over two
  /// registered datasets and runs the base join to populate it. The view is
  /// then kept current through ViewInsert/ViewDelete. Fails with
  /// kInvalidArgument when the name is taken and kFailedPrecondition unless
  /// the scheduler runs over one borrowed shard.
  Status CreateView(const std::string& view_name, const std::string& r_dataset,
                    const std::string& s_dataset,
                    SpatialPredicate predicate = SpatialPredicate::kIntersects,
                    uint32_t num_tiles = 256);

  /// Unregisters a view. Queries already streaming it finish first (shared
  /// ownership).
  Status DropView(const std::string& view_name);

  /// Names of all registered views, sorted.
  std::vector<std::string> ListViews() const;

  /// Emits the view's current pair set (ascending) to `sink` and returns
  /// the pair count — the warm path that replaces re-running the join.
  Result<uint64_t> QueryView(const std::string& view_name,
                             const ResultSink& sink) const;

  /// Applies one tuple insertion to a view's side. The caller must have
  /// already appended the tuple to the side's heap at `oid` (the view
  /// fetches counterpart tuples through the shared buffer pool). Also
  /// invalidates cached indexes over the mutated dataset — they no longer
  /// reflect the heap.
  Status ViewInsert(const std::string& view_name,
                    MaterializedJoinView::Side side, Oid oid,
                    const Tuple& tuple);

  /// Logical deletion of `oid` from a view's side; invalidates cached
  /// indexes over the mutated dataset.
  Status ViewDelete(const std::string& view_name,
                    MaterializedJoinView::Side side, Oid oid);

  /// Stops accepting queries; with `drain` finishes everything queued
  /// (workers keep stealing until every queue is empty), otherwise fails
  /// queued sub-joins and cancels running queries. Idempotent; the first
  /// call's drain mode wins. Blocks until the workers and the monitor have
  /// exited.
  void Shutdown(bool drain = true);

  uint32_t num_shards() const { return shards_->num_shards(); }
  size_t queue_depth(uint32_t shard) const {
    return lanes_[shard]->queue.size();
  }

 protected:
  /// The scheduler over `owned` when set (JoinService's borrowed shard),
  /// else over `shards`; `metrics_prefix` namespaces the query outcome
  /// counters.
  JoinRouter(std::unique_ptr<ShardManager> owned, ShardManager* shards,
             JoinRouterConfig config, const std::string& metrics_prefix);

  ShardManager& shards() { return *shards_; }
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }

 private:
  struct SubJoin {
    std::shared_ptr<JoinQuery> query;
    uint32_t shard = 0;  ///< The shard whose slices this sub-join reads.
    /// Exactly-once execution guard: set by the winning worker
    /// (claim-or-skip), by Submit when withdrawing a partial scatter, and
    /// by non-drain shutdown when completing drained sub-joins.
    std::atomic<bool> claimed{false};
    /// Set by the monitor when a speculative copy has been enqueued.
    std::atomic<bool> redispatched{false};
    std::chrono::steady_clock::time_point enqueue_time;
  };
  using SubJoinRef = std::shared_ptr<SubJoin>;
  using QueryRef = std::shared_ptr<JoinQuery>;

  /// Operator-memory admission over one shard's pool.
  class Admission {
   public:
    Admission(size_t budget, Counter* waits) : budget_(budget), waits_(waits) {}
    /// Reserves `bytes` if they fit right now.
    bool TryAdmit(size_t bytes);
    /// Blocks until `bytes` fit; false once `give_up()` turns true first.
    bool Admit(size_t bytes, const std::function<bool()>& give_up);
    void Release(size_t bytes);

   private:
    std::mutex mutex_;
    std::condition_variable cv_;
    const size_t budget_;
    size_t used_ = 0;  ///< Guarded by mutex_.
    Counter* waits_;
  };

  /// One shard's scheduling state.
  struct Lane {
    Lane(size_t capacity, size_t admission_budget, Counter* admission_waits)
        : queue(capacity, /*num_priorities=*/2),
          admission(admission_budget, admission_waits) {}
    BoundedQueue<SubJoinRef> queue;
    Admission admission;
    Gauge* depth_gauge = nullptr;
    Histogram* latency_us = nullptr;
  };

  /// One registered view plus the dataset names it joins, so mutations can
  /// invalidate the right cache entries and DropDataset can refuse while a
  /// view still depends on the dataset.
  struct ViewEntry {
    std::shared_ptr<MaterializedJoinView> view;
    std::string r_dataset;
    std::string s_dataset;
  };

  void WorkerLoop(uint32_t home);
  /// Pops from the deepest sibling queue if that shard admits a sub-join
  /// right now; `*admitted` tells whether the admission is held for it.
  SubJoinRef Steal(uint32_t home, bool* admitted);
  void MonitorLoop();
  bool AllQueuesEmpty() const;

  void RunSubJoin(const SubJoinRef& sub, bool stolen, bool admitted);
  /// The join itself: per-shard planning, index pinning, window pushdown
  /// and slice sink wrapping. Fills `slice` (results, method).
  Status ExecuteSubJoin(const QueryRef& query, uint32_t shard_id,
                        ShardSliceStats* slice);
  /// Settles one sub-join on its query; the last one finalizes the gather.
  void CompleteSub(const SubJoinRef& sub, const Status& status,
                   const ShardSliceStats* slice);
  void UpdateQueueGauge(uint32_t shard);

  /// The join spec common to execution and Explain: predicate, knobs and
  /// the request's refinement override.
  JoinSpec BaseSpec(const JoinRequest& request) const;
  /// The inclusive shard range a request dispatches to.
  ShardLayout::ShardRange DispatchRange(const JoinRequest& request) const;

  Result<ViewEntry> FindView(const std::string& name) const;
  /// Common tail of ViewInsert/ViewDelete: cache invalidation over the
  /// mutated side's dataset.
  void InvalidateAfterViewMutation(const ViewEntry& entry,
                                   MaterializedJoinView::Side side);

  std::unique_ptr<ShardManager> owned_shards_;
  ShardManager* shards_;
  const JoinRouterConfig config_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> workers_;
  std::thread monitor_;

  // Monitor state: timeout deadlines (min-heap) + the speculative
  // re-dispatch watchlist. Guarded by monitor_mutex_.
  std::mutex monitor_mutex_;
  std::condition_variable monitor_cv_;
  using Deadline = std::pair<std::chrono::steady_clock::time_point,
                             std::weak_ptr<JoinQuery>>;
  struct DeadlineLater {
    bool operator()(const Deadline& a, const Deadline& b) const {
      return a.first > b.first;
    }
  };
  std::priority_queue<Deadline, std::vector<Deadline>, DeadlineLater>
      deadlines_;
  std::deque<std::weak_ptr<SubJoin>> watchlist_;

  // In-flight queries, for non-drain shutdown cancellation.
  std::mutex running_mutex_;
  std::vector<std::weak_ptr<JoinQuery>> running_;

  mutable std::mutex views_mutex_;
  std::map<std::string, ViewEntry> views_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{true};
  std::mutex shutdown_mutex_;
  bool shutdown_complete_ = false;  ///< Guarded by shutdown_mutex_.

  Counter* submitted_;
  Counter* completed_;
  Counter* failed_;
  Counter* cancelled_;
  Counter* rejected_;
  Counter* planned_;
  Counter* subjoins_;
  Counter* stolen_;
  Counter* redispatches_;
  Counter* border_filtered_;
  Histogram* queue_wait_us_;
  Histogram* latency_interactive_us_;
  Histogram* latency_batch_us_;
};

}  // namespace pbsm

#endif  // PBSM_SERVICE_JOIN_ROUTER_H_
