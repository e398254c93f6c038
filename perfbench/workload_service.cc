// service_read and service_sharded: four closed-loop clients send a seeded
// query mix to a JoinService with two workers (service_read), or to a
// JoinRouter over four spatial shards with one worker each
// (service_sharded). The data fits in the buffer pools, so storage does
// almost nothing; queueing, planning, index-cache hits, R-tree probes and
// polygon refinement carry the latency. Only the sharded variant runs
// scatter-gather, window-clipped dispatch, border-ownership dedup and
// partition stealing.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "datagen/loader.h"
#include "layers.h"
#include "reference.h"
#include "service/join_router.h"
#include "service/join_service.h"
#include "service/shard_manager.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// The data fits in the pools, and a run completes several thousand queries.
constexpr double kServiceScale = 0.03;
constexpr int kClients = 4;
constexpr size_t kPoolBytes = 64ull << 20;
constexpr size_t kShardPoolBytes = 16ull << 20;
constexpr int kNumWindows = 16;

enum class Template { kRoadHydro, kRoadRail, kRoadHydroWindow, kContains };

/// Mix weights out of 100: planner-routed Road x Hydro and Road x Rail,
/// window-restricted Road x Hydro forced to rtree (warm index cache), and
/// Sequoia polygons containing islands.
Template PickTemplate(pbsm::Rng* rng) {
  const uint64_t x = rng->Uniform(100);
  if (x < 30) return Template::kRoadHydro;
  if (x < 50) return Template::kRoadRail;
  if (x < 80) return Template::kRoadHydroWindow;
  return Template::kContains;
}

/// Everything one service instance needs, in destruction-safe order: the
/// service borrows the heaps, the heaps live in the workspace's pool.
struct Instance {
  std::unique_ptr<Workspace> ws;
  std::optional<pbsm::StoredRelation> road, hydro, rail, polygons, islands;
  std::unique_ptr<pbsm::ShardManager> shards;
  std::unique_ptr<pbsm::JoinRouter> router;
  std::unique_ptr<pbsm::JoinService> service;
  std::string shard_dir;  ///< The ShardManager leaves a given dir in place.

  ~Instance() {
    router.reset();
    service.reset();
    shards.reset();
    if (!shard_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(shard_dir, ec);
    }
  }

  pbsm::Result<pbsm::JoinResponse> Execute(pbsm::JoinRequest request) {
    return router ? router->Execute(std::move(request))
                  : service->Execute(std::move(request));
  }

  pbsm::IoStats DiskStats() const {
    pbsm::IoStats total = ws->disk()->stats();
    if (shards) {
      for (uint32_t i = 0; i < shards->num_shards(); ++i) {
        const pbsm::IoStats s = shards->shard(i).disk->stats();
        total.reads += s.reads;
        total.writes += s.writes;
        total.sequential_reads += s.sequential_reads;
        total.sequential_writes += s.sequential_writes;
        total.modeled_seconds += s.modeled_seconds;
      }
    }
    return total;
  }
};

pbsm::JoinOptions JoinDefaults() {
  pbsm::JoinOptions opts;
  opts.memory_budget_bytes = 8ull << 20;
  // Concurrency comes from the service's workers; a parallel join inside
  // each query would oversubscribe the cores.
  opts.num_threads = 1;
  // Containment refinement short-circuits on the stored MERs.
  opts.use_mer_filter = true;
  return opts;
}

/// Query windows: squares around the centers of seeded random roads, each
/// a tenth of the road universe's width.
std::vector<pbsm::Rect> MakeWindows(const TigerData& tiger, uint64_t seed) {
  pbsm::Rect universe;
  for (const pbsm::Tuple& t : tiger.roads) universe.Expand(t.geometry.Mbr());
  const double half = 0.05 * universe.width();
  pbsm::Rng rng(seed * 7919 + 17);
  std::vector<pbsm::Rect> windows;
  for (int i = 0; i < kNumWindows; ++i) {
    const pbsm::Point c =
        tiger.roads[rng.Uniform(tiger.roads.size())].geometry.Mbr().Center();
    windows.emplace_back(c.x - half, c.y - half, c.x + half, c.y + half);
  }
  return windows;
}

struct SetupTimes {
  double generate = 0, load = 0, register_ = 0;
};

/// Generates, loads and registers every dataset, then runs each query
/// template once so lazy index builds happen before timing.
std::unique_ptr<Instance> SetUp(const Args& args, bool sharded,
                                SetupTimes* times, TigerData* tiger,
                                SequoiaData* sequoia,
                                std::vector<pbsm::Rect>* windows) {
  const double scale = kServiceScale * args.scale_factor;
  pbsm::Stopwatch watch;
  *tiger = GenerateTiger(args.seed, scale, /*with_rail=*/true, 0, nullptr);
  *sequoia = GenerateSequoia(args.seed, scale);
  *windows = MakeWindows(*tiger, args.seed);
  times->generate = watch.Restart();

  auto inst = std::make_unique<Instance>();
  inst->ws = std::make_unique<Workspace>(args.workdir, kPoolBytes);
  pbsm::BufferPool* pool = inst->ws->pool();
  auto load = [&](const char* name, const std::vector<pbsm::Tuple>& tuples,
                  bool mers, std::optional<pbsm::StoredRelation>* out) {
    auto rel = pbsm::LoadRelation(pool, nullptr, name, tuples,
                                  /*clustered=*/false, mers);
    PBSM_CHECK(rel.ok()) << rel.status().ToString();
    out->emplace(std::move(*rel));
  };
  load("road", tiger->roads, false, &inst->road);
  load("hydro", tiger->hydro, false, &inst->hydro);
  load("rail", tiger->rail, false, &inst->rail);
  load("polygons", sequoia->polygons, /*mers=*/true, &inst->polygons);
  load("islands", sequoia->islands, false, &inst->islands);
  times->load = watch.Restart();

  const std::pair<const char*, pbsm::StoredRelation*> datasets[] = {
      {"road", &*inst->road},         {"hydro", &*inst->hydro},
      {"rail", &*inst->rail},         {"polygons", &*inst->polygons},
      {"islands", &*inst->islands}};
  if (sharded) {
    pbsm::ShardManagerConfig config;
    config.num_shards = 4;
    config.shard_pool_bytes = kShardPoolBytes;
    inst->shard_dir = MakeScratchDir(args.workdir, "shards");
    config.scratch_dir = inst->shard_dir;
    inst->shards = std::make_unique<pbsm::ShardManager>(config);
    // Road first: the first dataset freezes the strip layout.
    for (const auto& [name, rel] : datasets) {
      PBSM_CHECK(inst->shards->RegisterDataset(name, &rel->heap, rel->info)
                     .ok());
    }
    pbsm::JoinRouterConfig router_config;
    router_config.workers_per_shard = 1;
    router_config.join_defaults = JoinDefaults();
    inst->router =
        std::make_unique<pbsm::JoinRouter>(inst->shards.get(), router_config);
  } else {
    pbsm::JoinServiceConfig config;
    config.num_workers = 2;
    config.join_defaults = JoinDefaults();
    inst->service = std::make_unique<pbsm::JoinService>(pool, config);
    for (const auto& [name, rel] : datasets) {
      PBSM_CHECK(inst->service->RegisterDataset(name, &rel->heap, rel->info)
                     .ok());
    }
  }
  times->register_ = watch.Restart();

  for (const Template t : {Template::kRoadHydro, Template::kRoadRail,
                           Template::kRoadHydroWindow, Template::kContains}) {
    pbsm::JoinRequest request;
    request.r_dataset = t == Template::kContains ? "polygons" : "road";
    request.s_dataset = t == Template::kRoadRail   ? "rail"
                        : t == Template::kContains ? "islands"
                                                   : "hydro";
    if (t == Template::kContains) {
      request.predicate = pbsm::SpatialPredicate::kContains;
    }
    if (t == Template::kRoadHydroWindow) {
      request.method = pbsm::JoinMethod::kRtree;
      request.window = (*windows)[0];
    }
    PBSM_CHECK(inst->Execute(request).ok());
  }
  return inst;
}

/// The reference pair sets and the digests every template must return.
struct Expected {
  std::vector<RefItem> road, hydro, rail, polygons, islands;
  std::vector<RefPair> road_hydro, road_rail, contains;
  PairDigest road_hydro_d, road_rail_d, contains_d;
  std::vector<PairDigest> window_d;
};

bool BuildExpected(const Instance& inst, const TigerData& tiger,
                   const SequoiaData& sequoia,
                   const std::vector<pbsm::Rect>& windows, bool perturb,
                   Expected* e) {
  auto items = [](const pbsm::StoredRelation& rel,
                  const std::vector<pbsm::Tuple>& tuples,
                  std::vector<RefItem>* out) {
    auto oids = ScanOids(rel.heap, tuples);
    if (!oids.ok()) {
      std::fprintf(stderr, "reference: %s\n",
                   oids.status().ToString().c_str());
      return false;
    }
    *out = MakeRefItems(tuples, *oids);
    return true;
  };
  if (!items(*inst.road, tiger.roads, &e->road) ||
      !items(*inst.hydro, tiger.hydro, &e->hydro) ||
      !items(*inst.rail, tiger.rail, &e->rail) ||
      !items(*inst.polygons, sequoia.polygons, &e->polygons) ||
      !items(*inst.islands, sequoia.islands, &e->islands)) {
    return false;
  }
  using pbsm::SpatialPredicate;
  e->road_hydro = ReferenceJoin(e->road, e->hydro, SpatialPredicate::kIntersects);
  e->road_rail = ReferenceJoin(e->road, e->rail, SpatialPredicate::kIntersects);
  e->contains =
      ReferenceJoin(e->polygons, e->islands, SpatialPredicate::kContains);
  e->road_hydro_d = DigestOf(e->road_hydro, e->road, e->hydro);
  e->road_rail_d = DigestOf(e->road_rail, e->road, e->rail);
  e->contains_d = DigestOf(e->contains, e->polygons, e->islands);
  for (const pbsm::Rect& w : windows) {
    e->window_d.push_back(DigestOf(e->road_hydro, e->road, e->hydro, &w));
  }
  if (perturb) {
    e->road_hydro_d.sum ^= 1;
    e->road_rail_d.sum ^= 1;
    e->contains_d.sum ^= 1;
    for (PairDigest& d : e->window_d) d.sum ^= 1;
  }
  return true;
}

/// One client's record of its operations.
struct ClientLog {
  uint64_t attempted = 0, failed = 0;
  Samples latency, traced_latency, untraced_latency, queue_s, exec_s;
  Samples shard_critical_s, shard_skew, shard_stolen;
  std::map<std::string, uint64_t> plan_mix;
  uint64_t plan_total = 0;
};

}  // namespace

void RunService(const Args& args, bool sharded, Report* report) {
  LayerInputs in;

  // Set-up, three times; the last instance serves the measured window.
  Samples setup, generate_s, load_s, register_s;
  TigerData tiger;
  SequoiaData sequoia;
  std::unique_ptr<Instance> inst;
  std::vector<pbsm::Rect> windows;
  for (int rep = 0; rep < 3; ++rep) {
    inst.reset();
    SetupTimes t;
    pbsm::Stopwatch watch;
    inst = SetUp(args, sharded, &t, &tiger, &sequoia, &windows);
    setup.Add(watch.ElapsedSeconds());
    generate_s.Add(t.generate);
    load_s.Add(t.load);
    register_s.Add(t.register_);
  }
  in.generate_s = generate_s.Median();
  in.load_s = load_s.Median();
  in.register_s = register_s.Median();

  Expected expected;
  if (!BuildExpected(*inst, tiger, sequoia, windows, args.perturb_reference,
                     &expected)) {
    report->MarkIncorrect();
    return;
  }
  report->Info("tuples.road", static_cast<double>(tiger.roads.size()));
  report->Info("tuples.hydro", static_cast<double>(tiger.hydro.size()));
  report->Info("tuples.rail", static_cast<double>(tiger.rail.size()));
  report->Info("tuples.polygons", static_cast<double>(sequoia.polygons.size()));
  report->Info("tuples.islands", static_cast<double>(sequoia.islands.size()));
  report->Info("heap_pages",
               static_cast<double>(
                   inst->road->heap.num_pages() + inst->hydro->heap.num_pages() +
                   inst->rail->heap.num_pages() +
                   inst->polygons->heap.num_pages() +
                   inst->islands->heap.num_pages()));
  report->Info("pool_pages",
               static_cast<double>((sharded ? 4 * kShardPoolBytes : kPoolBytes) /
                                   pbsm::kPageSize));
  report->Info("clients", kClients);

  // Closed-loop clients run a one-second warm-up, then the measured window
  // until the main thread stops them. Every query is checked; only those
  // started inside the window are measured. In the traced run the main
  // thread flips tracing on and off in quarter-second blocks.
  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> next_request{1};
  std::vector<ClientLog> logs(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[c];
      pbsm::Rng rng(args.seed * 1000003 + static_cast<uint64_t>(c) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        const Template t = PickTemplate(&rng);
        pbsm::JoinRequest request;
        const PairDigest* want = nullptr;
        switch (t) {
          case Template::kRoadHydro:
            request.r_dataset = "road";
            request.s_dataset = "hydro";
            want = &expected.road_hydro_d;
            break;
          case Template::kRoadRail:
            request.r_dataset = "road";
            request.s_dataset = "rail";
            want = &expected.road_rail_d;
            break;
          case Template::kRoadHydroWindow: {
            const size_t w = rng.Uniform(windows.size());
            request.r_dataset = "road";
            request.s_dataset = "hydro";
            request.method = pbsm::JoinMethod::kRtree;
            request.window = windows[w];
            want = &expected.window_d[w];
            break;
          }
          case Template::kContains:
            request.r_dataset = "polygons";
            request.s_dataset = "islands";
            request.predicate = pbsm::SpatialPredicate::kContains;
            want = &expected.contains_d;
            break;
        }
        if (rng.Uniform(4) == 0) {
          request.priority = pbsm::QueryPriority::kInteractive;
        }
        AtomicDigest got;
        request.sink = [&got](pbsm::Oid r, pbsm::Oid s) {
          got.Add(r.Encode(), s.Encode());
        };

        const bool measured = measuring.load();
        const bool traced = SpanLog::Get().enabled();
        const uint64_t id = next_request.fetch_add(1);
        const uint64_t start_us = NowMicros();
        pbsm::Stopwatch watch;
        pbsm::Result<pbsm::JoinResponse> response =
            pbsm::Status::Internal("unset");
        {
          SpanLog::Scope op("op.query", id);
          response = inst->Execute(std::move(request));
        }
        const double seconds = watch.ElapsedSeconds();

        ++log.attempted;
        if (!response.ok() || got.Load() != *want) {
          ++log.failed;
          std::fprintf(stderr, "query %llu failed: %s\n",
                       static_cast<unsigned long long>(id),
                       response.ok() ? "digest mismatch"
                                     : response.status().ToString().c_str());
          continue;
        }
        if (!measured) continue;
        log.latency.Add(seconds);
        (traced ? log.traced_latency : log.untraced_latency).Add(seconds);
        log.queue_s.Add(response->queue_seconds);
        log.exec_s.Add(response->exec_seconds);
        if (traced) {
          SpanLog::Get().AddInterval(
              "service.queue", start_us,
              start_us + static_cast<uint64_t>(response->queue_seconds * 1e6),
              id);
        }
        if (response->shard_slices.empty()) {
          log.plan_mix[std::string(pbsm::JoinMethodName(response->method))]++;
          log.plan_total++;
        } else {
          double max_s = 0, sum_s = 0, stolen = 0;
          for (const pbsm::ShardSliceStats& slice : response->shard_slices) {
            max_s = std::max(max_s, slice.exec_seconds);
            sum_s += slice.exec_seconds;
            stolen += slice.stolen ? 1 : 0;
            log.plan_mix[std::string(pbsm::JoinMethodName(slice.method))]++;
            log.plan_total++;
          }
          const double mean_s =
              sum_s / static_cast<double>(response->shard_slices.size());
          log.shard_critical_s.Add(max_s);
          log.shard_skew.Add(Ratio(max_s, mean_s));
          log.shard_stolen.Add(stolen);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const pbsm::IoStats io_before = inst->DiskStats();
  in.counters = CounterWindow();
  pbsm::Stopwatch window;
  measuring.store(true);
  const bool trace = args.trace;
  uint64_t block = 0;
  while (window.ElapsedSeconds() < args.seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const uint64_t b = static_cast<uint64_t>(window.ElapsedSeconds() / 0.25);
    if (trace && b != block) {
      block = b;
      SpanLog::Get().Enable(block % 2 == 1);
    }
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  SpanLog::Get().Enable(false);
  const double elapsed = window.ElapsedSeconds();
  in.counters.Close();
  const pbsm::IoStats io = inst->DiskStats() - io_before;

  Samples latency;
  for (const ClientLog& log : logs) {
    report->Attempt(log.attempted);
    report->Fail(log.failed);
    latency.Append(log.latency);
    in.traced_latency.Append(log.traced_latency);
    in.untraced_latency.Append(log.untraced_latency);
    in.queue_s.Append(log.queue_s);
    in.exec_s.Append(log.exec_s);
    in.shard_critical_s.Append(log.shard_critical_s);
    in.shard_skew.Append(log.shard_skew);
    in.shard_stolen.Append(log.shard_stolen);
    for (const auto& [m, n] : log.plan_mix) in.plan_mix[m] += n;
    in.plan_total += log.plan_total;
  }
  in.ops = in.joins = latency.size();
  in.disk_reads = static_cast<double>(io.reads);
  in.random_reads = static_cast<double>(io.random_reads());
  in.disk_writes = static_cast<double>(io.writes);
  in.modeled_io_s = io.modeled_seconds;

  if (!args.trace) {
    report->Metric("setup_s", setup.Median(), "s");
    report->Metric("qps", static_cast<double>(latency.size()) / elapsed,
                   "1/s");
    report->Metric("latency_p50_s", latency.Median(), "s");
    report->Metric("latency_p99_s", latency.Percentile(0.99), "s");
    report->Metric("peak_rss_mb", PeakRssMiB(), "MiB");
    return;
  }

  in.layers = SpanLog::Get().Attribute();
  pbsm::DiskManager* disk = inst->ws->disk();
  in.read_page_us = ProbeDiskPageUs(disk, inst->road->heap, false, 4);
  in.write_page_us = ProbeDiskPageUs(disk, inst->road->heap, true, 2);
  in.heap_append_us = ProbeHeapAppendUs(inst->ws->pool(), tiger.roads);
  in.intersects_ns =
      ProbePredicateNs(expected.road_hydro, expected.road, expected.hydro,
                       pbsm::SpatialPredicate::kIntersects, args.seed);
  in.contains_ns =
      ProbePredicateNs(expected.contains, expected.polygons, expected.islands,
                       pbsm::SpatialPredicate::kContains, args.seed);
  std::optional<pbsm::RStarTree> tree;
  in.rtree_build_s =
      ProbeRtreeBuildS(inst->ws->pool(), inst->road->AsInput(), &tree);
  std::vector<pbsm::Rect> probes;
  for (const RefItem& h : expected.hydro) probes.push_back(h.mbr);
  in.window_query_us = ProbeWindowQueryUs(*tree, probes);
  EmitPerLayer(in, report);
}

}  // namespace perfbench
