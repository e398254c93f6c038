// fig07_cold_<method>: the paper's headline experiment (Figure 7, Road x
// Hydrography, intersects) at scale 0.15 with the 2 MB buffer pool scaled
// the same way. Every operation loads both relations into a fresh
// workspace and runs one cold join through the SpatialJoin facade from one
// thread, so physical page I/O, the checksum, partitioning, the sweep and
// refinement all do real work while the service layers do none.

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "datagen/loader.h"
#include "layers.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kScale = 0.15;
/// Converts measured CPU seconds to 1996 seconds (the repo's paper-figure
/// calibration, bench_util.h CpuScale's default).
constexpr double kCpuScale = 300.0;

/// The paper's 2 MB pool at `scale`, with the 1.5x correction for tuples
/// being larger than Paradise's (bench_util.h PoolSizes).
size_t PaperPoolBytes(double scale) {
  const size_t bytes =
      static_cast<size_t>(2.0 * 1024 * 1024 * scale * 1.5);
  return std::max<size_t>(bytes, 16 * pbsm::kPageSize);
}

struct Loaded {
  pbsm::StoredRelation road;
  pbsm::StoredRelation hydro;
};

Loaded LoadBoth(pbsm::BufferPool* pool, const TigerData& data) {
  auto road = pbsm::LoadRelation(pool, nullptr, "road", data.roads);
  PBSM_CHECK(road.ok()) << road.status().ToString();
  auto hydro = pbsm::LoadRelation(pool, nullptr, "hydro", data.hydro);
  PBSM_CHECK(hydro.ok()) << hydro.status().ToString();
  return Loaded{std::move(*road), std::move(*hydro)};
}

}  // namespace

void RunFig07(const Args& args, pbsm::JoinMethod method, Report* report) {
  const double scale = kScale * args.scale_factor;
  const size_t pool_bytes = PaperPoolBytes(scale);
  LayerInputs in;

  // Set-up, three times: generate, then load into a fresh paper-sized pool.
  Samples setup, generate_s, load_s;
  TigerData data;
  for (int rep = 0; rep < 3; ++rep) {
    pbsm::Stopwatch gen_watch;
    data = GenerateTiger(args.seed, scale, /*with_rail=*/false, 0, nullptr);
    const double gen = gen_watch.ElapsedSeconds();
    Workspace ws(args.workdir, pool_bytes);
    pbsm::Stopwatch load_watch;
    const Loaded loaded = LoadBoth(ws.pool(), data);
    const double load = load_watch.ElapsedSeconds();
    setup.Add(gen + load);
    generate_s.Add(gen);
    load_s.Add(load);
  }
  in.generate_s = generate_s.Median();

  // Reference: untimed and outside set-up.
  std::vector<RefItem> r_items, s_items;
  std::vector<RefPair> ref_pairs;
  PairDigest expected;
  {
    Workspace ws(args.workdir, 64ull << 20);
    const Loaded loaded = LoadBoth(ws.pool(), data);
    auto r_oids = ScanOids(loaded.road.heap, data.roads);
    auto s_oids = ScanOids(loaded.hydro.heap, data.hydro);
    if (!r_oids.ok() || !s_oids.ok()) {
      std::fprintf(stderr, "reference: %s %s\n",
                   r_oids.status().ToString().c_str(),
                   s_oids.status().ToString().c_str());
      report->MarkIncorrect();
      return;
    }
    r_items = MakeRefItems(data.roads, *r_oids);
    s_items = MakeRefItems(data.hydro, *s_oids);
    ref_pairs = ReferenceJoin(r_items, s_items,
                              pbsm::SpatialPredicate::kIntersects);
    expected = DigestOf(ref_pairs, r_items, s_items);
    if (args.perturb_reference) expected.sum ^= 1;
    report->Info("tuples.road", static_cast<double>(data.roads.size()));
    report->Info("tuples.hydro", static_cast<double>(data.hydro.size()));
    report->Info("heap_pages.road", loaded.road.heap.num_pages());
    report->Info("heap_pages.hydro", loaded.hydro.heap.num_pages());
    report->Info("pool_pages", static_cast<double>(pool_bytes /
                                                   pbsm::kPageSize));
    report->Info("reference.results", static_cast<double>(expected.count));
  }

  // One operation: fresh workspace, load, cold join, digest check.
  Samples latency;
  auto run_op = [&](uint64_t request, bool traced) {
    Workspace ws(args.workdir, pool_bytes);
    pbsm::Stopwatch load_watch;
    const Loaded loaded = LoadBoth(ws.pool(), data);
    load_s.Add(load_watch.ElapsedSeconds());
    ws.disk()->ResetStats();

    pbsm::JoinSpec spec;
    spec.method = method;
    spec.predicate = pbsm::SpatialPredicate::kIntersects;
    // The operator memory budget is the buffer-pool grant, as in Paradise;
    // 1024 tiles is the paper's default (§4.3).
    spec.options.memory_budget_bytes = pool_bytes;
    spec.options.num_tiles = 1024;
    PairDigest got;
    spec.sink = [&got](pbsm::Oid r, pbsm::Oid s) {
      got.Add(r.Encode(), s.Encode());
    };

    SpanLog::Get().Enable(traced);
    pbsm::Stopwatch watch;
    pbsm::Result<pbsm::JoinResult> result = pbsm::Status::Internal("unset");
    {
      SpanLog::Scope op("op.join", request);
      result = pbsm::SpatialJoin(ws.pool(), loaded.road.AsInput(),
                                 loaded.hydro.AsInput(), spec);
    }
    const double seconds = watch.ElapsedSeconds();
    SpanLog::Get().Enable(false);

    report->Attempt();
    if (!result.ok() || got != expected) {
      std::fprintf(stderr, "op %llu failed: %s (got %llu pairs, want %llu)\n",
                   static_cast<unsigned long long>(request),
                   result.ok() ? "digest mismatch"
                               : result.status().ToString().c_str(),
                   static_cast<unsigned long long>(got.count),
                   static_cast<unsigned long long>(expected.count));
      report->Fail();
      return;
    }
    const pbsm::PhaseCost total = result->breakdown.Total();
    in.disk_reads += static_cast<double>(total.io.reads);
    in.random_reads += static_cast<double>(total.io.random_reads());
    in.disk_writes += static_cast<double>(total.io.writes);
    in.modeled_io_s += total.io.modeled_seconds;
    in.paper_s += total.cpu_seconds * kCpuScale + total.io.modeled_seconds;
    in.plan_mix[std::string(pbsm::JoinMethodName(method))]++;
    in.plan_total++;
    latency.Add(seconds);
    (traced ? in.traced_latency : in.untraced_latency).Add(seconds);
  };

  run_op(0, false);  // Warm-up: page cache, allocator, lazy statics.
  latency = Samples();
  in.disk_reads = in.random_reads = in.disk_writes = 0;
  in.modeled_io_s = in.paper_s = 0;
  in.plan_mix.clear();
  in.plan_total = 0;
  in.untraced_latency = Samples();

  in.counters = CounterWindow();
  pbsm::Stopwatch window;
  uint64_t done = 0;
  while (!WindowOver(window.ElapsedSeconds(), args.seconds, done, 3)) {
    // The traced run alternates traced and untraced operations; the gap
    // between the two latency means is the tracing overhead.
    ++done;
    run_op(done, args.trace && done % 2 == 0);
  }
  const double elapsed = window.ElapsedSeconds();
  in.counters.Close();
  in.ops = in.joins = done;
  in.load_s = load_s.Median();

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
  {
    // Outside-in probes on this workload's data, in a paper-sized pool.
    Workspace ws(args.workdir, pool_bytes);
    const Loaded loaded = LoadBoth(ws.pool(), data);
    in.read_page_us = ProbeDiskPageUs(ws.disk(), loaded.road.heap, false, 2);
    in.write_page_us = ProbeDiskPageUs(ws.disk(), loaded.road.heap, true, 1);
    const size_t n = std::min<size_t>(data.roads.size(), 5000);
    in.heap_append_us = ProbeHeapAppendUs(
        ws.pool(), std::vector<pbsm::Tuple>(data.roads.begin(),
                                            data.roads.begin() + n));
    in.intersects_ns = ProbePredicateNs(ref_pairs, r_items, s_items,
                                        pbsm::SpatialPredicate::kIntersects,
                                        args.seed);
    std::optional<pbsm::RStarTree> tree;
    in.rtree_build_s = ProbeRtreeBuildS(ws.pool(), loaded.hydro.AsInput(),
                                        &tree);
    std::vector<pbsm::Rect> windows;
    for (size_t i = 0; i < n; ++i) windows.push_back(r_items[i].mbr);
    in.window_query_us = ProbeWindowQueryUs(*tree, windows);
  }
  EmitPerLayer(in, report);
}

}  // namespace perfbench
