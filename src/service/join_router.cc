#include "service/join_router.h"

#include <algorithm>
#include <ctime>
#include <utility>

#include "common/logging.h"
#include "common/trace.h"
#include "core/spatial_sharding.h"
#include "exec/plan_builder.h"
#include "service/join_planner.h"

namespace pbsm {

namespace {

std::chrono::steady_clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}

double SecondsBetween(std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

uint64_t MicrosBetween(std::chrono::steady_clock::time_point start,
                       std::chrono::steady_clock::time_point end) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count());
}

/// CPU time consumed by the calling thread, for the contention-immune
/// ShardSliceStats::cpu_seconds (worker threads time-share cores, so a
/// sub-join's wall time says nothing about its work on a loaded host).
double ThreadCpuSeconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return 0.0;
}

std::string ShardTag(uint32_t shard) {
  return "shard" + std::to_string(shard) + ":";
}

/// `text` with every line indented two spaces, to nest under a ShardTag.
std::string Indented(const std::string& text) {
  std::string out;
  for (size_t start = 0; start < text.size();) {
    const size_t end = std::min(text.find('\n', start), text.size());
    out += "  " + text.substr(start, end - start) + "\n";
    start = end + 1;
  }
  return out;
}

}  // namespace

std::string_view QueryPriorityName(QueryPriority p) {
  switch (p) {
    case QueryPriority::kInteractive:
      return "interactive";
    case QueryPriority::kBatch:
      return "batch";
  }
  PBSM_CHECK(false) << "unknown QueryPriority " << static_cast<int>(p);
}

// ---------------------------------------------------------------------------
// JoinQuery.
// ---------------------------------------------------------------------------

const Result<JoinResponse>& JoinQuery::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return done_; });
  return result_;
}

bool JoinQuery::done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

void JoinQuery::Cancel() {
  canceller_.Cancel(Status::Cancelled("query cancelled by client"));
}

// ---------------------------------------------------------------------------
// Admission.
// ---------------------------------------------------------------------------

bool JoinRouter::Admission::TryAdmit(size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (used_ + bytes > budget_) return false;
  used_ += bytes;
  return true;
}

bool JoinRouter::Admission::Admit(size_t bytes,
                                  const std::function<bool()>& give_up) {
  std::unique_lock<std::mutex> lock(mutex_);
  bool waited = false;
  while (used_ + bytes > budget_) {
    if (give_up()) return false;
    if (!waited) {
      waited = true;
      waits_->Add();
    }
    // Bounded wait so cancellation/shutdown are re-polled without a
    // notification.
    cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
  used_ += bytes;
  return true;
}

void JoinRouter::Admission::Release(size_t bytes) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    PBSM_CHECK(used_ >= bytes);
    used_ -= bytes;
  }
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// JoinRouter.
// ---------------------------------------------------------------------------

JoinRouter::JoinRouter(ShardManager* shards, JoinRouterConfig config)
    : JoinRouter(nullptr, shards, std::move(config), "service.shard") {}

JoinRouter::JoinRouter(std::unique_ptr<ShardManager> owned,
                       ShardManager* shards, JoinRouterConfig config,
                       const std::string& metrics_prefix)
    : owned_shards_(std::move(owned)),
      shards_(owned_shards_ != nullptr ? owned_shards_.get() : shards),
      config_(std::move(config)) {
  const uint32_t n = shards_->num_shards();
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const std::string queries = metrics_prefix + ".queries.";
  submitted_ = metrics.GetCounter(queries + "submitted");
  completed_ = metrics.GetCounter(queries + "completed");
  failed_ = metrics.GetCounter(queries + "failed");
  cancelled_ = metrics.GetCounter(queries + "cancelled");
  rejected_ = metrics.GetCounter(queries + "rejected");
  planned_ = metrics.GetCounter(queries + "planned");
  subjoins_ = metrics.GetCounter("service.shard.subjoins");
  stolen_ = metrics.GetCounter("service.shard.stolen_partitions");
  redispatches_ = metrics.GetCounter("service.shard.redispatches");
  border_filtered_ = metrics.GetCounter("service.shard.border_filtered");
  queue_wait_us_ = metrics.GetHistogram("service.queue_wait_us");
  latency_interactive_us_ =
      metrics.GetHistogram("service.latency_us.interactive");
  latency_batch_us_ = metrics.GetHistogram("service.latency_us.batch");
  Counter* admission_waits = metrics.GetCounter("service.admission_waits");

  lanes_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    // Operator memory admitted against one pool never exceeds that pool;
    // a single sub-join's budget is always admissible.
    auto lane = std::make_unique<Lane>(
        std::max<size_t>(config_.queue_capacity, 1),
        std::max(config_.join_defaults.memory_budget_bytes,
                 shards_->shard(i).pool->pool_bytes()),
        admission_waits);
    const std::string prefix = "service.shard." + std::to_string(i);
    lane->depth_gauge = metrics.GetGauge(prefix + ".queue_depth");
    lane->latency_us = metrics.GetHistogram(prefix + ".latency_us");
    lanes_.push_back(std::move(lane));
  }

  const uint32_t per_shard = std::max(1u, config_.workers_per_shard);
  workers_.reserve(static_cast<size_t>(n) * per_shard);
  for (uint32_t shard = 0; shard < n; ++shard) {
    for (uint32_t w = 0; w < per_shard; ++w) {
      workers_.emplace_back([this, shard] { WorkerLoop(shard); });
    }
  }
  monitor_ = std::thread([this] { MonitorLoop(); });
}

JoinRouter::~JoinRouter() { Shutdown(/*drain=*/false); }

ShardLayout::ShardRange JoinRouter::DispatchRange(
    const JoinRequest& request) const {
  // Every strip, or — windowed — only the strips the window overlaps.
  // Border pairs stay complete because the ownership corner is clamped by
  // the window's left edge (see ShardLayout::PairOwner).
  const uint32_t last = shards_->num_shards() - 1;
  ShardLayout::ShardRange range{0, last};
  if (request.window.has_value() && !request.window->empty()) {
    range = shards_->layout().Overlapping(*request.window);
    range.first = std::min(range.first, last);
    range.last = std::min(range.last, last);
  }
  return range;
}

JoinSpec JoinRouter::BaseSpec(const JoinRequest& request) const {
  JoinSpec spec;
  spec.predicate = request.predicate;
  spec.options = config_.join_defaults;
  if (request.refine_mode.has_value()) {
    spec.options.refine.mode = *request.refine_mode;
  }
  return spec;
}

Result<std::shared_ptr<JoinQuery>> JoinRouter::Submit(JoinRequest request) {
  if (stopping()) {
    return Status::FailedPrecondition("service is shutting down");
  }
  if (request.timeout_seconds < 0) {
    return Status::InvalidArgument("negative timeout");
  }
  // Validate dataset names once up front (registration is all-or-nothing,
  // so shard 0 speaks for every shard).
  PBSM_RETURN_IF_ERROR(shards_->FindDataset(0, request.r_dataset).status());
  PBSM_RETURN_IF_ERROR(shards_->FindDataset(0, request.s_dataset).status());

  const ShardLayout::ShardRange range = DispatchRange(request);
  auto query = std::make_shared<JoinQuery>();
  query->request_ = std::move(request);
  query->submit_time_ = std::chrono::steady_clock::now();
  query->remaining_ = range.count();
  query->response_.shard_slices.reserve(range.count());
  if (query->request_.method.has_value()) {
    query->response_.method = *query->request_.method;
  }

  TraceSpan span("router/scatter");
  std::vector<SubJoinRef> subs;
  subs.reserve(range.count());
  for (uint32_t shard = range.first; shard <= range.last; ++shard) {
    auto sub = std::make_shared<SubJoin>();
    sub->query = query;
    sub->shard = shard;
    sub->enqueue_time = query->submit_time_;
    subs.push_back(std::move(sub));
  }
  const size_t priority = static_cast<size_t>(query->request_.priority);
  for (const SubJoinRef& sub : subs) {
    if (lanes_[sub->shard]->queue.TryPush(sub, priority)) {
      UpdateQueueGauge(sub->shard);
      continue;
    }
    // Backpressure rejects the query whole: withdraw the scatter by
    // poisoning every sub-join's claim. A worker may already have claimed
    // an earlier one — the cancel stops it at its next check, and the
    // orphaned gather state dies with the last SubJoinRef.
    for (const SubJoinRef& poisoned : subs) {
      poisoned->claimed.store(true, std::memory_order_release);
    }
    query->canceller_.Cancel(Status::Cancelled("scatter withdrawn"));
    rejected_->Add();
    return Status::ResourceExhausted(
        "shard " + std::to_string(sub->shard) + " queue full (" +
        std::to_string(lanes_[sub->shard]->queue.capacity()) +
        " sub-joins); retry with backoff");
  }
  submitted_->Add();
  if (!query->request_.method.has_value()) planned_->Add();

  {
    std::lock_guard<std::mutex> lock(running_mutex_);
    running_.erase(
        std::remove_if(
            running_.begin(), running_.end(),
            [](const std::weak_ptr<JoinQuery>& w) { return w.expired(); }),
        running_.end());
    running_.push_back(query);
  }

  const bool want_deadline = query->request_.timeout_seconds > 0;
  const bool want_watch = config_.speculative_deadline_seconds > 0;
  if (want_deadline || want_watch) {
    std::lock_guard<std::mutex> lock(monitor_mutex_);
    if (want_deadline) {
      deadlines_.emplace(
          query->submit_time_ + ToDuration(query->request_.timeout_seconds),
          query);
    }
    if (want_watch) {
      for (const SubJoinRef& sub : subs) watchlist_.emplace_back(sub);
    }
    monitor_cv_.notify_one();
  }
  return query;
}

Result<JoinResponse> JoinRouter::Execute(JoinRequest request) {
  PBSM_ASSIGN_OR_RETURN(const QueryRef query, Submit(std::move(request)));
  return query->Wait();
}

Result<ExplainResult> JoinRouter::Explain(const JoinRequest& request) const {
  const ShardLayout::ShardRange range = DispatchRange(request);
  ExplainResult out;
  if (request.method.has_value()) out.method = *request.method;
  for (uint32_t shard_id = range.first; shard_id <= range.last; ++shard_id) {
    PBSM_ASSIGN_OR_RETURN(const ShardManager::ShardDatasetRef r,
                          shards_->FindDataset(shard_id, request.r_dataset));
    PBSM_ASSIGN_OR_RETURN(const ShardManager::ShardDatasetRef s,
                          shards_->FindDataset(shard_id, request.s_dataset));
    const std::string tag = ShardTag(shard_id);
    if (r->info.cardinality == 0 || s->info.cardinality == 0) {
      out.plan += tag + " empty slice, no sub-join\n";
      continue;
    }
    if (request.window.has_value() && (r->mbrs.empty() || s->mbrs.empty())) {
      return Status::FailedPrecondition(
          "window queries need datasets registered with build_stats");
    }

    // The planner call a sub-join would make right now, including this
    // shard's cache warmth.
    JoinSpec spec = BaseSpec(request);
    const PlanChoice plan =
        PlanShardSlices(*r, *s, *shards_->shard(shard_id).cache,
                        spec.options);
    spec.method = request.method.value_or(plan.method);
    if (!request.method.has_value() && !out.planner_chosen) {
      out.method = plan.method;
      out.planner_chosen = true;
    }
    out.plan += tag + " " + plan.ToString() + "\n";
    // The planner only costs the tree of its own choice; a forced method
    // that happens to match still gets the costed rendering.
    if (spec.method == plan.method) {
      out.cost_tree += tag + "\n" + Indented(plan.TreeString());
    }
    if (request.window.has_value()) {
      spec.window = WindowFilter{*request.window, &r->mbrs, &s->mbrs};
    }
    // Build (but never open) the operator tree the exec layer would drive.
    // No index is pinned and no heap page is touched — construction is pure.
    const std::unique_ptr<Operator> tree = BuildJoinTree(
        JoinInput{r->heap, r->info}, JoinInput{s->heap, s->info}, spec);
    out.tree += tag + "\n" + Indented(DescribeTree(*tree));
  }
  MetricsRegistry::Global().GetCounter("service.explains")->Add();
  return out;
}

void JoinRouter::WorkerLoop(uint32_t home) {
  const auto poll = ToDuration(std::max(config_.steal_poll_seconds, 1e-4));
  const size_t bytes = config_.join_defaults.memory_budget_bytes;
  BoundedQueue<SubJoinRef>& queue = lanes_[home]->queue;
  while (true) {
    SubJoinRef sub;
    bool stolen = false;
    bool admitted = false;  // The sub-join's shard admission is held.
    if (std::optional<SubJoinRef> own = queue.PopFor(poll)) {
      sub = std::move(*own);
      UpdateQueueGauge(home);
    } else if (config_.enable_stealing) {
      sub = Steal(home, &admitted);
      stolen = sub != nullptr;
    }
    if (sub == nullptr) {
      if (queue.closed()) {
        if (AllQueuesEmpty()) return;
        // Draining shutdown with work left on sibling queues: yield the
        // core to whoever is finishing it.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      continue;
    }
    // Only home workers wait in admission. A speculative copy of another
    // shard's sub-join runs here only if that shard admits it right now;
    // otherwise it is dropped — its original is still queued or claimed.
    if (sub->shard != home && !admitted) {
      if (!lanes_[sub->shard]->admission.TryAdmit(bytes)) continue;
      admitted = true;
    }
    // Claim-or-skip: steal, speculative re-dispatch, and withdrawal all
    // race on this exchange, so the sub-join settles exactly once.
    if (sub->claimed.exchange(true, std::memory_order_acq_rel)) {
      if (admitted) lanes_[sub->shard]->admission.Release(bytes);
      continue;
    }
    RunSubJoin(sub, stolen, admitted);
  }
}

JoinRouter::SubJoinRef JoinRouter::Steal(uint32_t home, bool* admitted) {
  // Partition stealing: the idle beat elapsed with an empty home queue, so
  // take work from the deepest sibling — the straggler's backlog drains on
  // this otherwise-idle worker.
  uint32_t victim = home;
  size_t deepest = 0;
  for (uint32_t i = 0; i < lanes_.size(); ++i) {
    if (i == home) continue;
    const size_t depth = lanes_[i]->queue.size();
    if (depth > deepest) {
      deepest = depth;
      victim = i;
    }
  }
  if (victim == home) return nullptr;
  // Reserve before popping, so a popped original never lacks a runner.
  const size_t bytes = config_.join_defaults.memory_budget_bytes;
  Lane& lane = *lanes_[victim];
  if (!lane.admission.TryAdmit(bytes)) return nullptr;
  std::optional<SubJoinRef> theft = lane.queue.TryPop();
  if (!theft.has_value()) {
    lane.admission.Release(bytes);
    return nullptr;
  }
  UpdateQueueGauge(victim);
  // A speculative copy parked on the victim reads a third shard; the
  // caller admits it there or drops it.
  *admitted = (*theft)->shard == victim;
  if (!*admitted) lane.admission.Release(bytes);
  return std::move(*theft);
}

void JoinRouter::MonitorLoop() {
  const bool speculate = config_.speculative_deadline_seconds > 0;
  const auto spec_deadline = ToDuration(
      speculate ? config_.speculative_deadline_seconds : 0.0);
  std::unique_lock<std::mutex> lock(monitor_mutex_);
  while (true) {
    if (stopping()) return;
    auto now = std::chrono::steady_clock::now();
    auto wake = now + std::chrono::hours(1);
    if (!deadlines_.empty()) wake = std::min(wake, deadlines_.top().first);
    if (speculate && !watchlist_.empty()) {
      // Scan a few times per speculative deadline so a straggler is
      // re-dispatched soon after it crosses the threshold.
      wake = std::min(wake, now + std::max(spec_deadline / 4,
                                           ToDuration(0.0005)));
    }
    monitor_cv_.wait_until(lock, wake);
    if (stopping()) return;
    now = std::chrono::steady_clock::now();

    // 1. Fire expired query timeouts.
    while (!deadlines_.empty() && deadlines_.top().first <= now) {
      std::weak_ptr<JoinQuery> weak = deadlines_.top().second;
      deadlines_.pop();
      lock.unlock();
      if (QueryRef query = weak.lock(); query != nullptr && !query->done()) {
        query->canceller_.Cancel(Status::Cancelled(
            "deadline exceeded (" +
            std::to_string(query->request_.timeout_seconds) + "s timeout)"));
      }
      lock.lock();
    }

    if (!speculate) continue;

    // 2. Speculative re-dispatch: a sub-join still unclaimed past the
    // deadline gets a copy pushed onto the shallowest sibling queue. The
    // original and the copy race for the claim (exactly-once).
    const size_t scan = watchlist_.size();
    for (size_t i = 0; i < scan; ++i) {
      std::weak_ptr<SubJoin> weak = std::move(watchlist_.front());
      watchlist_.pop_front();
      SubJoinRef sub = weak.lock();
      if (sub == nullptr || sub->claimed.load(std::memory_order_acquire) ||
          sub->redispatched.load(std::memory_order_acquire)) {
        continue;  // Settled, running, or already re-dispatched: drop.
      }
      if (now - sub->enqueue_time < spec_deadline) {
        watchlist_.push_back(std::move(weak));  // Not yet a straggler.
        continue;
      }
      uint32_t target = sub->shard;
      size_t shallowest = SIZE_MAX;
      for (uint32_t q = 0; q < lanes_.size(); ++q) {
        if (q == sub->shard) continue;
        const size_t depth = lanes_[q]->queue.size();
        if (depth < shallowest) {
          shallowest = depth;
          target = q;
        }
      }
      if (target == sub->shard) continue;  // Single shard: nowhere to go.
      sub->redispatched.store(true, std::memory_order_release);
      const size_t priority =
          static_cast<size_t>(sub->query->request_.priority);
      lock.unlock();
      if (lanes_[target]->queue.TryPush(sub, priority)) {
        redispatches_->Add();
        UpdateQueueGauge(target);
      }
      lock.lock();
    }
  }
}

bool JoinRouter::AllQueuesEmpty() const {
  for (const auto& lane : lanes_) {
    if (lane->queue.size() > 0) return false;
  }
  return true;
}

void JoinRouter::RunSubJoin(const SubJoinRef& sub, bool stolen,
                            bool admitted) {
  const QueryRef& query = sub->query;
  const size_t bytes = config_.join_defaults.memory_budget_bytes;
  Admission& admission = lanes_[sub->shard]->admission;
  if (stolen) stolen_->Add();
  const auto abandoned = [this, &query] {
    return query->canceller_.is_cancelled() ||
           !draining_.load(std::memory_order_acquire);
  };
  if (!admitted) admitted = admission.Admit(bytes, abandoned);
  if (!admitted || abandoned()) {
    if (admitted) admission.Release(bytes);
    CompleteSub(sub,
                query->canceller_.is_cancelled()
                    ? query->canceller_.CancellationStatus()
                    : Status::Cancelled("service shut down"),
                nullptr);
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(query->mutex_);
    if (!query->started_) {
      query->started_ = true;
      query->first_start_ = start;
      queue_wait_us_->Record(MicrosBetween(query->submit_time_, start));
    }
  }
  TraceSpan span("router/subjoin");
  ShardSliceStats slice;
  slice.shard = sub->shard;
  slice.stolen = stolen;
  slice.speculative = sub->redispatched.load(std::memory_order_acquire);
  const double cpu_start = ThreadCpuSeconds();
  const Status status = ExecuteSubJoin(query, sub->shard, &slice);
  slice.cpu_seconds = ThreadCpuSeconds() - cpu_start;
  slice.exec_seconds =
      SecondsBetween(start, std::chrono::steady_clock::now());
  lanes_[sub->shard]->latency_us->Record(
      static_cast<uint64_t>(slice.exec_seconds * 1e6));
  admission.Release(bytes);
  if (!status.ok()) {
    // First real error wins and cancels every sibling shard; kCancelled is
    // ignored by Report so it can never mask the root cause.
    query->canceller_.Report(status);
    CompleteSub(sub, status, nullptr);
    return;
  }
  CompleteSub(sub, status, &slice);
}

Status JoinRouter::ExecuteSubJoin(const QueryRef& query, uint32_t shard_id,
                                  ShardSliceStats* slice) {
  const JoinRequest& request = query->request_;
  ShardManager::Shard& shard = shards_->shard(shard_id);
  PBSM_ASSIGN_OR_RETURN(const ShardManager::ShardDatasetRef r,
                        shards_->FindDataset(shard_id, request.r_dataset));
  PBSM_ASSIGN_OR_RETURN(const ShardManager::ShardDatasetRef s,
                        shards_->FindDataset(shard_id, request.s_dataset));
  slice->method = request.method.value_or(JoinMethod::kPbsm);
  if (r->info.cardinality == 0 || s->info.cardinality == 0) {
    return Status::OK();  // Empty slice: this strip contributes nothing.
  }
  if (request.window.has_value() && (r->mbrs.empty() || s->mbrs.empty())) {
    return Status::FailedPrecondition(
        "window queries need datasets registered with build_stats");
  }

  JoinSpec spec = BaseSpec(request);
  spec.options.cancel = &query->canceller_;
  if (request.method.has_value()) {
    spec.method = *request.method;
  } else {
    // Shard-aware plan; under adaptive refinement it also fixes the
    // cell-grid precision from the slice statistics.
    const PlanChoice plan =
        PlanShardSlices(*r, *s, *shard.cache, spec.options);
    spec.method = plan.method;
    if (spec.options.refine.mode != RefineMode::kExact &&
        spec.options.refine.grid_order == 0) {
      spec.options.refine.grid_order = plan.grid_order;
    }
    std::lock_guard<std::mutex> lock(query->mutex_);
    query->response_.planner_chosen = true;
    if (query->response_.plan.empty()) {
      query->response_.plan = ShardTag(shard_id) + " " + plan.ToString();
    }
  }
  slice->method = spec.method;

  // Index-method sub-joins go through this shard's cache: build-or-reuse
  // the trees and keep the refs alive for the join (pinning). INL indexes
  // the smaller side, matching the facade's choice.
  const JoinInput r_input{r->heap, r->info};
  const JoinInput s_input{s->heap, s->info};
  const double fill = spec.options.index_fill_factor;
  const bool index_r =
      spec.method == JoinMethod::kRtree ||
      (spec.method == JoinMethod::kInl &&
       r->info.cardinality <= s->info.cardinality);
  const bool index_s =
      spec.method == JoinMethod::kRtree ||
      (spec.method == JoinMethod::kInl && !index_r);
  IndexCache::TreeRef r_tree;
  IndexCache::TreeRef s_tree;
  if (index_r) {
    PBSM_ASSIGN_OR_RETURN(r_tree, shard.cache->GetOrBuild(r_input, fill));
    spec.r_index = r_tree.get();
  }
  if (index_s) {
    PBSM_ASSIGN_OR_RETURN(s_tree, shard.cache->GetOrBuild(s_input, fill));
    spec.s_index = s_tree.get();
  }

  // Window pushdown: a select above the join, backed by the MBR tables.
  if (request.window.has_value()) {
    spec.window = WindowFilter{*request.window, &r->mbrs, &s->mbrs};
  }

  const ResultSink& user_sink = request.sink;
  uint64_t results = 0;
  uint64_t border_dropped = 0;
  const ShardLayout layout = shards_->layout();
  if (shards_->borrowed()) {
    // The caller's own heaps under one strip: OIDs are already global and
    // every pair is owned here. Only a window makes the join's count
    // differ from what the sink sees, so count then.
    if (request.window.has_value()) {
      spec.sink = [&results, &user_sink](Oid ro, Oid so) {
        ++results;
        if (user_sink) user_sink(ro, so);
      };
    } else {
      spec.sink = user_sink;
    }
  } else {
    // Border-ownership dedup and local -> global OID translation. The
    // ownership test is the two-layer rule lifted to shard granularity —
    // with both MBRs replicated into the owner strip, dropping every
    // non-owner copy leaves each pair exactly once across the gather.
    spec.sink = [&results, &border_dropped, &layout, &user_sink,
                 rd = r.get(), sd = s.get(), window = &request.window,
                 shard_id](Oid ro, Oid so) {
      const auto rit = rd->mbrs.find(ro.Encode());
      const auto sit = sd->mbrs.find(so.Encode());
      if (rit == rd->mbrs.end() || sit == sd->mbrs.end()) return;
      const uint32_t owner =
          window->has_value()
              ? layout.PairOwner(rit->second, sit->second, **window)
              : layout.PairOwner(rit->second, sit->second);
      if (owner != shard_id) {
        ++border_dropped;
        return;
      }
      ++results;
      if (user_sink) {
        user_sink(rd->local_to_global.at(ro.Encode()),
                  sd->local_to_global.at(so.Encode()));
      }
    };
  }

  PBSM_ASSIGN_OR_RETURN(const JoinResult join,
                        SpatialJoin(shard.pool, r_input, s_input, spec));
  const bool counted = !shards_->borrowed() || request.window.has_value();
  slice->num_results = counted ? results : join.num_results;
  if (border_dropped > 0) border_filtered_->Add(border_dropped);
  return Status::OK();
}

void JoinRouter::CompleteSub(const SubJoinRef& sub, const Status& status,
                             const ShardSliceStats* slice) {
  const QueryRef& query = sub->query;
  subjoins_->Add();
  bool finished = false;
  {
    std::lock_guard<std::mutex> lock(query->mutex_);
    if (query->done_) return;
    if (slice != nullptr) {
      query->response_.shard_slices.push_back(*slice);
      query->response_.num_results += slice->num_results;
      if (query->response_.shard_slices.size() == 1 &&
          !query->request_.method.has_value()) {
        query->response_.method = slice->method;
      }
    }
    if (!status.ok() && query->first_bad_.ok()) query->first_bad_ = status;
    PBSM_CHECK(query->remaining_ > 0);
    finished = (--query->remaining_ == 0);
  }
  if (!finished) return;

  // Gather complete. remaining_ hit zero, so no other thread touches the
  // query's state past this point (Cancel only trips the canceller).
  // Status priority: canceller (first real error or the external cancel
  // reason) > first non-OK sub status > OK.
  Status final_status = Status::OK();
  if (query->canceller_.is_cancelled()) {
    final_status = query->canceller_.CancellationStatus();
  } else {
    std::lock_guard<std::mutex> lock(query->mutex_);
    final_status = query->first_bad_;
  }
  if (final_status.ok()) {
    completed_->Add();
  } else if (final_status.code() == StatusCode::kCancelled) {
    cancelled_->Add();
  } else {
    failed_->Add();
  }
  const auto now = std::chrono::steady_clock::now();
  (query->request_.priority == QueryPriority::kInteractive
       ? latency_interactive_us_
       : latency_batch_us_)
      ->Record(MicrosBetween(query->submit_time_, now));
  {
    std::lock_guard<std::mutex> lock(query->mutex_);
    if (final_status.ok()) {
      if (query->started_) {
        query->response_.queue_seconds =
            SecondsBetween(query->submit_time_, query->first_start_);
        query->response_.exec_seconds =
            SecondsBetween(query->first_start_, now);
      }
      query->result_ = query->response_;
    } else {
      query->result_ = final_status;
    }
    query->done_ = true;
  }
  query->done_cv_.notify_all();
}

void JoinRouter::UpdateQueueGauge(uint32_t shard) {
  lanes_[shard]->depth_gauge->Set(
      static_cast<int64_t>(lanes_[shard]->queue.size()));
}

// ---------------------------------------------------------------------------
// Datasets and materialized join views.
// ---------------------------------------------------------------------------

Status JoinRouter::DropDataset(const std::string& name) {
  {
    // A view's delta joins fetch counterpart tuples from the dataset heaps;
    // dropping a referenced dataset would leave the view reading a heap the
    // caller may now free. Make the dependency explicit instead.
    std::lock_guard<std::mutex> lock(views_mutex_);
    for (const auto& [view_name, entry] : views_) {
      if (entry.r_dataset == name || entry.s_dataset == name) {
        return Status::FailedPrecondition("dataset '" + name +
                                          "' is referenced by view '" +
                                          view_name + "'; drop the view first");
      }
    }
  }
  return shards_->DropDataset(name);
}

Status JoinRouter::CreateView(const std::string& view_name,
                              const std::string& r_dataset,
                              const std::string& s_dataset,
                              SpatialPredicate predicate, uint32_t num_tiles) {
  if (stopping()) {
    return Status::FailedPrecondition("service is shut down");
  }
  // A view maintains pairs over the caller's heaps, which the caller
  // appends to; only a borrowed shard serves those heaps (owned shards
  // hold read-only replicated slices).
  if (!shards_->borrowed()) {
    return Status::FailedPrecondition(
        "views need the single borrowed shard of a JoinService");
  }
  {
    std::lock_guard<std::mutex> lock(views_mutex_);
    if (views_.find(view_name) != views_.end()) {
      return Status::InvalidArgument("view '" + view_name +
                                     "' already registered");
    }
  }
  PBSM_ASSIGN_OR_RETURN(const ShardManager::ShardDatasetRef r,
                        shards_->FindDataset(0, r_dataset));
  PBSM_ASSIGN_OR_RETURN(const ShardManager::ShardDatasetRef s,
                        shards_->FindDataset(0, s_dataset));

  MaterializedJoinView::Config config;
  config.name = view_name;
  config.predicate = predicate;
  config.num_tiles = num_tiles;
  config.base.options = config_.join_defaults;
  config.base.options.cancel = nullptr;  // Builds are not query-cancellable.
  PBSM_ASSIGN_OR_RETURN(
      std::unique_ptr<MaterializedJoinView> view,
      MaterializedJoinView::Build(shards_->shard(0).pool,
                                  JoinInput{r->heap, r->info},
                                  JoinInput{s->heap, s->info},
                                  std::move(config)));

  std::lock_guard<std::mutex> lock(views_mutex_);
  const bool inserted =
      views_
          .emplace(view_name, ViewEntry{std::move(view), r_dataset, s_dataset})
          .second;
  if (!inserted) {
    // Lost a race with a concurrent CreateView of the same name.
    return Status::InvalidArgument("view '" + view_name +
                                   "' already registered");
  }
  return Status::OK();
}

Status JoinRouter::DropView(const std::string& view_name) {
  std::lock_guard<std::mutex> lock(views_mutex_);
  auto it = views_.find(view_name);
  if (it == views_.end()) {
    return Status::NotFound("view '" + view_name + "' not registered");
  }
  views_.erase(it);  // Streaming queries hold their own shared_ptr.
  return Status::OK();
}

std::vector<std::string> JoinRouter::ListViews() const {
  std::lock_guard<std::mutex> lock(views_mutex_);
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [name, entry] : views_) names.push_back(name);
  return names;  // std::map iteration order is already sorted.
}

Result<uint64_t> JoinRouter::QueryView(const std::string& view_name,
                                       const ResultSink& sink) const {
  PBSM_ASSIGN_OR_RETURN(const ViewEntry entry, FindView(view_name));
  TraceSpan span("service/query_view");
  if (sink) entry.view->Emit(sink);
  MetricsRegistry::Global().GetCounter("service.view_queries")->Add();
  return entry.view->num_pairs();
}

Status JoinRouter::ViewInsert(const std::string& view_name,
                              MaterializedJoinView::Side side, Oid oid,
                              const Tuple& tuple) {
  PBSM_ASSIGN_OR_RETURN(const ViewEntry entry, FindView(view_name));
  PBSM_RETURN_IF_ERROR(entry.view->Insert(side, oid, tuple));
  InvalidateAfterViewMutation(entry, side);
  return Status::OK();
}

Status JoinRouter::ViewDelete(const std::string& view_name,
                              MaterializedJoinView::Side side, Oid oid) {
  PBSM_ASSIGN_OR_RETURN(const ViewEntry entry, FindView(view_name));
  PBSM_RETURN_IF_ERROR(entry.view->Delete(side, oid));
  InvalidateAfterViewMutation(entry, side);
  return Status::OK();
}

Result<JoinRouter::ViewEntry> JoinRouter::FindView(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(views_mutex_);
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("view '" + name + "' not registered");
  }
  return it->second;
}

void JoinRouter::InvalidateAfterViewMutation(
    const ViewEntry& entry, MaterializedJoinView::Side side) {
  // The heap behind the mutated side changed; any cached R*-tree over it is
  // stale. Running queries keep their refs (cache pinning contract) — only
  // future GetOrBuild calls pay a rebuild.
  const std::string& dataset = side == MaterializedJoinView::Side::kR
                                   ? entry.r_dataset
                                   : entry.s_dataset;
  IndexCache& cache = *shards_->shard(0).cache;
  if (Result<ShardManager::ShardDatasetRef> ds =
          shards_->FindDataset(0, dataset);
      ds.ok()) {
    cache.InvalidateFile(ds.value()->info.file);
  }
  cache.InvalidateDataset(dataset);
}

void JoinRouter::Shutdown(bool drain) {
  // Serialised so a second caller (often the destructor after an explicit
  // Shutdown) blocks until teardown is complete instead of racing it.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (shutdown_complete_) return;
  draining_.store(drain, std::memory_order_release);
  stopping_.store(true, std::memory_order_release);
  for (auto& lane : lanes_) lane->queue.Close();
  if (!drain) {
    // Fail everything still queued and cancel everything running.
    for (auto& lane : lanes_) {
      for (const SubJoinRef& sub : lane->queue.Drain()) {
        if (!sub->claimed.exchange(true, std::memory_order_acq_rel)) {
          CompleteSub(sub,
                      Status::Cancelled("service shut down before the "
                                        "sub-join ran"),
                      nullptr);
        }
      }
    }
    std::lock_guard<std::mutex> lock(running_mutex_);
    for (const std::weak_ptr<JoinQuery>& weak : running_) {
      if (QueryRef query = weak.lock()) {
        query->canceller_.Cancel(Status::Cancelled("service shut down"));
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(monitor_mutex_);
    monitor_cv_.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (monitor_.joinable()) monitor_.join();
  for (uint32_t i = 0; i < lanes_.size(); ++i) {
    lanes_[i]->depth_gauge->Set(0);
  }
  shutdown_complete_ = true;
}

}  // namespace pbsm
