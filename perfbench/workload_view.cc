// view_churn: one closed-loop client against a JoinService holding one
// MaterializedJoinView over Road x Hydrography. The seeded op stream is
// ~40% inserts (HeapFile::Append of a freshly generated road, then
// ViewInsert), ~40% ViewDelete of a random live road, ~15% QueryView and
// ~5% forced-rtree Road x Hydro joins whose cached road index the last
// mutation invalidated. Writes sit beside reads: heap appends, delta joins
// and index-cache invalidation and rebuild do the work; partitioning and
// the sweep do almost none.

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "datagen/loader.h"
#include "layers.h"
#include "reference.h"
#include "service/join_service.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Above the service workloads' 0.03: there the op mix's cost moved more
/// from one seed to the next.
constexpr double kViewScale = 0.05;
constexpr size_t kPoolBytes = 64ull << 20;
/// Fresh roads generated for inserts; a run that uses them all turns
/// further inserts into deletes.
constexpr uint64_t kExtraRoads = 30000;
constexpr char kView[] = "road_hydro";
using Side = pbsm::MaterializedJoinView::Side;

struct Instance {
  std::unique_ptr<Workspace> ws;
  std::optional<pbsm::StoredRelation> road, hydro;
  std::unique_ptr<pbsm::JoinService> service;
};

struct SetupTimes {
  double generate = 0, load = 0, register_ = 0, view_build = 0;
};

pbsm::JoinRequest RtreeJoin() {
  pbsm::JoinRequest request;
  request.r_dataset = "road";
  request.s_dataset = "hydro";
  request.method = pbsm::JoinMethod::kRtree;
  return request;
}

std::unique_ptr<Instance> SetUp(const Args& args, SetupTimes* times,
                                TigerData* tiger,
                                std::vector<pbsm::Tuple>* extra) {
  const double scale = kViewScale * args.scale_factor;
  pbsm::Stopwatch watch;
  *tiger = GenerateTiger(args.seed, scale, /*with_rail=*/false,
                         Scaled(kExtraRoads, args.scale_factor), extra);
  times->generate = watch.Restart();

  auto inst = std::make_unique<Instance>();
  inst->ws = std::make_unique<Workspace>(args.workdir, kPoolBytes);
  auto road = pbsm::LoadRelation(inst->ws->pool(), nullptr, "road",
                                 tiger->roads);
  auto hydro = pbsm::LoadRelation(inst->ws->pool(), nullptr, "hydro",
                                  tiger->hydro);
  PBSM_CHECK(road.ok() && hydro.ok());
  inst->road.emplace(std::move(*road));
  inst->hydro.emplace(std::move(*hydro));
  times->load = watch.Restart();

  pbsm::JoinServiceConfig config;
  config.num_workers = 2;
  config.join_defaults.memory_budget_bytes = 8ull << 20;
  inst->service = std::make_unique<pbsm::JoinService>(inst->ws->pool(),
                                                      config);
  PBSM_CHECK(inst->service
                 ->RegisterDataset("road", &inst->road->heap, inst->road->info)
                 .ok());
  PBSM_CHECK(inst->service
                 ->RegisterDataset("hydro", &inst->hydro->heap,
                                   inst->hydro->info)
                 .ok());
  times->register_ = watch.Restart();
  PBSM_CHECK(inst->service->CreateView(kView, "road", "hydro").ok());
  times->view_build = watch.Restart();
  PBSM_CHECK(inst->service->Execute(RtreeJoin()).ok());  // Index warm-up.
  return inst;
}

enum class OpKind : uint8_t { kInsert, kDelete, kQueryView, kJoin };

/// What one operation did and returned; checked after the window.
struct OpRecord {
  OpKind kind;
  bool ok = false;
  uint64_t oid = 0;  ///< The road inserted or deleted.
  PairDigest got;    ///< Reads only.
};

}  // namespace

void RunViewChurn(const Args& args, Report* report) {
  LayerInputs in;

  Samples setup, generate_s, load_s, register_s, view_build_s;
  TigerData tiger;
  std::vector<pbsm::Tuple> extra;
  std::unique_ptr<Instance> inst;
  for (int rep = 0; rep < 3; ++rep) {
    inst.reset();
    SetupTimes t;
    pbsm::Stopwatch watch;
    inst = SetUp(args, &t, &tiger, &extra);
    setup.Add(watch.ElapsedSeconds());
    generate_s.Add(t.generate);
    load_s.Add(t.load);
    register_s.Add(t.register_);
    view_build_s.Add(t.view_build);
  }
  in.generate_s = generate_s.Median();
  in.load_s = load_s.Median();
  in.register_s = register_s.Median();
  in.view_build_s = view_build_s.Median();

  // Reference per road: the digest of its pairs with every hydro feature.
  std::vector<RefItem> road_items, hydro_items;
  {
    auto r_oids = ScanOids(inst->road->heap, tiger.roads);
    auto s_oids = ScanOids(inst->hydro->heap, tiger.hydro);
    if (!r_oids.ok() || !s_oids.ok()) {
      report->MarkIncorrect();
      return;
    }
    road_items = MakeRefItems(tiger.roads, *r_oids);
    hydro_items = MakeRefItems(tiger.hydro, *s_oids);
  }
  const std::vector<RefPair> base_pairs = ReferenceJoin(
      road_items, hydro_items, pbsm::SpatialPredicate::kIntersects);
  std::unordered_map<uint64_t, PairDigest> road_digest;
  for (const RefItem& r : road_items) road_digest[r.oid];
  for (const RefPair& p : base_pairs) {
    if (p.hit) road_digest[road_items[p.r].oid].Add(road_items[p.r].oid,
                                                     hydro_items[p.s].oid);
  }
  report->Info("tuples.road", static_cast<double>(tiger.roads.size()));
  report->Info("tuples.hydro", static_cast<double>(tiger.hydro.size()));
  report->Info("tuples.insertable_roads", static_cast<double>(extra.size()));
  report->Info("reference.view_pairs",
               static_cast<double>(DigestOf(base_pairs, road_items,
                                            hydro_items).count));
  report->Info("heap_pages", static_cast<double>(
                                 inst->road->heap.num_pages() +
                                 inst->hydro->heap.num_pages()));
  report->Info("pool_pages", static_cast<double>(kPoolBytes / pbsm::kPageSize));

  std::vector<uint64_t> live;
  for (const RefItem& r : road_items) live.push_back(r.oid);
  std::vector<std::pair<size_t, uint64_t>> inserted;  // (extra index, oid)
  std::vector<OpRecord> ops;
  Samples all_ops, appends;
  pbsm::Rng rng(args.seed * 2654435761ULL + 99);
  pbsm::JoinService& service = *inst->service;
  pbsm::HeapFile& road_heap = inst->road->heap;

  auto run_op = [&](uint64_t id, bool traced) {
    const uint64_t x = rng.Uniform(100);
    OpKind kind = x < 40   ? OpKind::kInsert
                  : x < 80 ? OpKind::kDelete
                  : x < 95 ? OpKind::kQueryView
                           : OpKind::kJoin;
    if (kind == OpKind::kInsert && inserted.size() == extra.size()) {
      kind = OpKind::kDelete;
    }
    if (kind == OpKind::kDelete && live.empty()) kind = OpKind::kQueryView;
    OpRecord rec{kind, false, 0, PairDigest()};
    SpanLog::Get().Enable(traced);
    pbsm::Stopwatch watch;
    switch (kind) {
      case OpKind::kInsert: {
        SpanLog::Scope op("op.insert", id);
        const size_t idx = inserted.size();
        const std::string record = extra[idx].Serialize();
        pbsm::Result<pbsm::Oid> oid = pbsm::Status::Internal("unset");
        {
          SpanLog::Scope span("storage.heap_append", id);
          pbsm::Stopwatch append_watch;
          oid = road_heap.Append(record);
          appends.Add(append_watch.ElapsedSeconds());
        }
        if (!oid.ok()) break;
        pbsm::Stopwatch insert_watch;
        {
          SpanLog::Scope span("exec.view.insert", id);
          rec.ok = service.ViewInsert(kView, Side::kR, *oid, extra[idx]).ok();
        }
        in.view_insert_s.Add(insert_watch.ElapsedSeconds());
        rec.oid = oid->Encode();
        inserted.emplace_back(idx, rec.oid);
        live.push_back(rec.oid);
        break;
      }
      case OpKind::kDelete: {
        SpanLog::Scope op("op.delete", id);
        const size_t i = rng.Uniform(live.size());
        rec.oid = live[i];
        live[i] = live.back();
        live.pop_back();
        SpanLog::Scope span("exec.view.delete", id);
        rec.ok = service.ViewDelete(kView, Side::kR, pbsm::Oid::Decode(rec.oid))
                     .ok();
        in.view_delete_s.Add(watch.ElapsedSeconds());
        break;
      }
      case OpKind::kQueryView: {
        SpanLog::Scope op("op.query_view", id);
        PairDigest got;
        auto n = service.QueryView(kView, [&got](pbsm::Oid r, pbsm::Oid s) {
          got.Add(r.Encode(), s.Encode());
        });
        rec.ok = n.ok() && *n == got.count;
        rec.got = got;
        in.view_query_s.Add(watch.ElapsedSeconds());
        break;
      }
      case OpKind::kJoin: {
        const uint64_t start_us = NowMicros();
        SpanLog::Scope op("op.join", id);
        AtomicDigest got;
        pbsm::JoinRequest request = RtreeJoin();
        request.sink = [&got](pbsm::Oid r, pbsm::Oid s) {
          got.Add(r.Encode(), s.Encode());
        };
        auto response = service.Execute(std::move(request));
        rec.ok = response.ok();
        rec.got = got.Load();
        if (response.ok()) {
          in.queue_s.Add(response->queue_seconds);
          in.exec_s.Add(response->exec_seconds);
          in.plan_mix[std::string(pbsm::JoinMethodName(response->method))]++;
          in.plan_total++;
          SpanLog::Get().AddInterval(
              "service.queue", start_us,
              start_us + static_cast<uint64_t>(response->queue_seconds * 1e6),
              id);
        }
        break;
      }
    }
    const double seconds = watch.ElapsedSeconds();
    SpanLog::Get().Enable(false);
    all_ops.Add(seconds);
    (traced ? in.traced_latency : in.untraced_latency).Add(seconds);
    if (kind == OpKind::kInsert || kind == OpKind::kDelete) {
      in.write_s.Add(seconds);
    }
    ops.push_back(rec);
  };

  in.counters = CounterWindow();
  pbsm::Stopwatch window;
  uint64_t done = 0;
  while (!WindowOver(window.ElapsedSeconds(), args.seconds, done, 20)) {
    ++done;
    run_op(done, args.trace && done % 2 == 0);
  }
  const double elapsed = window.ElapsedSeconds();
  in.counters.Close();
  in.ops = done;
  in.joins = in.plan_total;

  // Expected digests of the inserted roads, then a replay of the op log:
  // the view holds the live roads' pairs; a join over the heap also sees
  // logically deleted roads, which stay on their pages.
  {
    std::vector<RefItem> new_items;
    for (const auto& [idx, oid] : inserted) {
      new_items.push_back(RefItem{extra[idx].geometry.Mbr(),
                                  &extra[idx].geometry, oid});
    }
    for (const RefItem& r : new_items) road_digest[r.oid];
    for (const RefPair& p : ReferenceJoin(new_items, hydro_items,
                                          pbsm::SpatialPredicate::kIntersects)) {
      if (p.hit) road_digest[new_items[p.r].oid].Add(new_items[p.r].oid,
                                                     hydro_items[p.s].oid);
    }
  }
  PairDigest view_d, heap_d;
  for (const RefItem& r : road_items) view_d += road_digest[r.oid];
  heap_d = view_d;
  const uint64_t flip = args.perturb_reference ? 1 : 0;
  uint64_t failed = 0;
  for (const OpRecord& rec : ops) {
    bool ok = rec.ok;
    switch (rec.kind) {
      case OpKind::kInsert:
        view_d += road_digest[rec.oid];
        heap_d += road_digest[rec.oid];
        break;
      case OpKind::kDelete:
        view_d -= road_digest[rec.oid];
        break;
      case OpKind::kQueryView: {
        PairDigest want = view_d;
        want.sum ^= flip;
        ok = ok && rec.got == want;
        break;
      }
      case OpKind::kJoin: {
        PairDigest want = heap_d;
        want.sum ^= flip;
        ok = ok && rec.got == want;
        break;
      }
    }
    if (!ok) ++failed;
  }

  // The final view content against a fresh reference join of the live
  // roads only.
  {
    std::unordered_map<uint64_t, const pbsm::Tuple*> by_oid;
    for (size_t i = 0; i < road_items.size(); ++i) {
      by_oid[road_items[i].oid] = &tiger.roads[i];
    }
    for (const auto& [idx, oid] : inserted) by_oid[oid] = &extra[idx];
    std::vector<RefItem> live_items;
    for (const uint64_t oid : live) {
      const pbsm::Tuple* t = by_oid.at(oid);
      live_items.push_back(RefItem{t->geometry.Mbr(), &t->geometry, oid});
    }
    PairDigest want = DigestOf(
        ReferenceJoin(live_items, hydro_items,
                      pbsm::SpatialPredicate::kIntersects),
        live_items, hydro_items);
    want.sum ^= flip;
    PairDigest got;
    auto n = service.QueryView(kView, [&got](pbsm::Oid r, pbsm::Oid s) {
      got.Add(r.Encode(), s.Encode());
    });
    report->Attempt();
    if (!n.ok() || got != want) {
      std::fprintf(stderr, "final view check failed (%llu vs %llu pairs)\n",
                   static_cast<unsigned long long>(got.count),
                   static_cast<unsigned long long>(want.count));
      report->Fail();
    }
  }
  report->Attempt(ops.size());
  report->Fail(failed);
  if (failed > 0) {
    std::fprintf(stderr, "%llu of %zu view operations failed\n",
                 static_cast<unsigned long long>(failed), ops.size());
  }

  if (!args.trace) {
    report->Metric("setup_s", setup.Median(), "s");
    report->Metric("qps", static_cast<double>(done) / elapsed, "1/s");
    // Over every operation: the median is a write (80% of the ops), the
    // p99 the rtree join after invalidation. QueryView's own latency moves
    // by a third between seeds with the view's size, so it is reported
    // per layer (exec.view.query_us) and not bounded.
    report->Metric("latency_p50_s", all_ops.Median(), "s");
    report->Metric("latency_p99_s", all_ops.Percentile(0.99), "s");
    report->Metric("peak_rss_mb", PeakRssMiB(), "MiB");
    return;
  }

  in.layers = SpanLog::Get().Attribute();
  in.heap_append_us = appends.Median() * 1e6;
  pbsm::DiskManager* disk = inst->ws->disk();
  in.read_page_us = ProbeDiskPageUs(disk, inst->road->heap, false, 4);
  in.write_page_us = ProbeDiskPageUs(disk, inst->road->heap, true, 2);
  in.intersects_ns =
      ProbePredicateNs(base_pairs, road_items, hydro_items,
                       pbsm::SpatialPredicate::kIntersects, args.seed);
  std::optional<pbsm::RStarTree> tree;
  in.rtree_build_s =
      ProbeRtreeBuildS(inst->ws->pool(), inst->road->AsInput(), &tree);
  std::vector<pbsm::Rect> probes;
  for (const RefItem& h : hydro_items) probes.push_back(h.mbr);
  in.window_query_us = ProbeWindowQueryUs(*tree, probes);
  EmitPerLayer(in, report);
}

}  // namespace perfbench
