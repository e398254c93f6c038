#include "layers.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/index_build.h"
#include "core/spatial_join.h"
#include "geom/predicates.h"

namespace perfbench {

double ProbeDiskPageUs(pbsm::DiskManager* disk, const pbsm::HeapFile& heap,
                       bool write, int rounds) {
  const uint32_t pages = heap.num_pages();
  if (pages == 0) return 0.0;
  std::vector<char> buf(pbsm::kPageSize);
  double seconds = 0.0;
  uint64_t calls = 0;
  for (int round = 0; round < rounds; ++round) {
    for (uint32_t p = 0; p < pages; ++p) {
      const pbsm::PageId id{heap.file(), p};
      if (write) {
        // Rewrite the page's current bytes: the timed call is WritePage
        // alone, and the heap stays intact for later probes.
        PBSM_CHECK(disk->ReadPage(id, buf.data()).ok());
        pbsm::Stopwatch watch;
        PBSM_CHECK(disk->WritePage(id, buf.data()).ok());
        seconds += watch.ElapsedSeconds();
      } else {
        pbsm::Stopwatch watch;
        PBSM_CHECK(disk->ReadPage(id, buf.data()).ok());
        seconds += watch.ElapsedSeconds();
      }
      ++calls;
    }
  }
  return seconds * 1e6 / static_cast<double>(calls);
}

double ProbePredicateNs(const std::vector<RefPair>& pairs,
                        const std::vector<RefItem>& r,
                        const std::vector<RefItem>& s,
                        pbsm::SpatialPredicate pred, uint64_t seed) {
  if (pairs.empty()) return 0.0;
  constexpr size_t kSample = 2000;
  constexpr int kRounds = 5;
  pbsm::Rng rng(seed ^ 0x9e0cf00dULL);
  std::vector<const RefPair*> sample;
  sample.reserve(kSample);
  for (size_t i = 0; i < kSample; ++i) {
    sample.push_back(&pairs[rng.Uniform(pairs.size())]);
  }
  uint64_t hits = 0;
  pbsm::Stopwatch watch;
  for (int round = 0; round < kRounds; ++round) {
    for (const RefPair* p : sample) {
      const pbsm::Geometry& a = *r[p->r].geometry;
      const pbsm::Geometry& b = *s[p->s].geometry;
      hits += pred == pbsm::SpatialPredicate::kIntersects
                  ? pbsm::Intersects(a, b)
                  : pbsm::Contains(a, b);
    }
  }
  const double seconds = watch.ElapsedSeconds();
  PBSM_CHECK(hits <= kSample * kRounds);  // Keeps the loop observable.
  return seconds * 1e9 / static_cast<double>(kSample * kRounds);
}

double ProbeHeapAppendUs(pbsm::BufferPool* pool,
                         const std::vector<pbsm::Tuple>& tuples) {
  if (tuples.empty()) return 0.0;
  auto heap = pbsm::HeapFile::Create(pool, "perfbench_append_probe.heap");
  PBSM_CHECK(heap.ok()) << heap.status().ToString();
  std::vector<std::string> records;
  records.reserve(tuples.size());
  for (const pbsm::Tuple& t : tuples) records.push_back(t.Serialize());
  pbsm::Stopwatch watch;
  for (const std::string& rec : records) {
    PBSM_CHECK(heap->Append(rec).ok());
  }
  const double seconds = watch.ElapsedSeconds();
  PBSM_CHECK(pool->DropFile(heap->file()).ok());
  return seconds * 1e6 / static_cast<double>(records.size());
}

double ProbeRtreeBuildS(pbsm::BufferPool* pool, const pbsm::JoinInput& input,
                        std::optional<pbsm::RStarTree>* tree) {
  Samples builds;
  for (int i = 0; i < 3; ++i) {
    if (tree->has_value()) {
      PBSM_CHECK(pool->DropFile((*tree)->file()).ok());
      tree->reset();
    }
    pbsm::Stopwatch watch;
    auto built = pbsm::BuildIndexByBulkLoad(
        pool, input, "perfbench_probe_" + std::to_string(i) + ".rtree",
        pbsm::JoinOptions().index_fill_factor);
    builds.Add(watch.ElapsedSeconds());
    PBSM_CHECK(built.ok()) << built.status().ToString();
    tree->emplace(std::move(*built));
  }
  return builds.Median();
}

double ProbeWindowQueryUs(const pbsm::RStarTree& tree,
                          const std::vector<pbsm::Rect>& windows) {
  if (windows.empty()) return 0.0;
  std::vector<uint64_t> hits;
  uint64_t total = 0;
  pbsm::Stopwatch watch;
  for (const pbsm::Rect& w : windows) {
    hits.clear();
    PBSM_CHECK(tree.WindowQuery(w, &hits).ok());
    total += hits.size();
  }
  const double seconds = watch.ElapsedSeconds();
  PBSM_CHECK(total < (1ull << 62));
  return seconds * 1e6 / static_cast<double>(windows.size());
}

void EmitPerLayer(const LayerInputs& in, Report* report) {
  const double ops = static_cast<double>(in.ops);
  const double joins = static_cast<double>(in.joins);
  const CounterWindow& c = in.counters;
  auto per_op = [&](double v) { return Ratio(v, ops); };
  auto per_join = [&](double v) { return Ratio(v, joins); };
  auto self_per_op = [&](const char* layer) {
    return Ratio(in.layers.Self(layer), static_cast<double>(in.layers.ops));
  };

  report->Metric("datagen.generate_s", in.generate_s, "s");
  report->Metric("storage.load_s", in.load_s, "s");
  report->Metric("service.register_s", in.register_s, "s");
  report->Metric("exec.view.build_s", in.view_build_s, "s");

  report->Metric("storage.read_page_us", in.read_page_us, "us");
  report->Metric("storage.write_page_us", in.write_page_us, "us");
  report->Metric("storage.disk_reads", per_op(in.disk_reads), "count/op");
  report->Metric("storage.random_reads", per_op(in.random_reads), "count/op");
  report->Metric("storage.disk_writes", per_op(in.disk_writes), "count/op");
  report->Metric("storage.modeled_io_s", per_op(in.modeled_io_s), "s/op");
  report->Metric("core.paper_s", per_op(in.paper_s), "s/op");
  const double hits = static_cast<double>(c.Count("storage.bufferpool.hits"));
  const double misses =
      static_cast<double>(c.Count("storage.bufferpool.misses"));
  report->Metric("storage.bufferpool_hit_rate", Ratio(hits, hits + misses),
                 "ratio");
  report->Metric("storage.bufferpool_evictions",
                 per_op(c.Count("storage.bufferpool.evictions")), "count/op");
  report->Metric("storage.heap_fetches",
                 per_op(c.Count("storage.heapfile.fetches")), "count/op");
  report->Metric("storage.bufferpool_latch_waits",
                 per_op(c.Count("storage.bufferpool.latch_waits")),
                 "count/op");
  report->Metric("storage.heap_append_us", in.heap_append_us, "us");

  report->Metric("core.partition_self_s", self_per_op("core.partition"),
                 "s/op");
  report->Metric("core.filter_self_s", self_per_op("core.filter"), "s/op");
  report->Metric("core.refine_self_s", self_per_op("core.refine"), "s/op");
  report->Metric("core.replicated", per_join(c.Count("join.replicated")),
                 "count/join");
  const double candidates = static_cast<double>(c.Count("join.candidates"));
  const double results = static_cast<double>(c.Count("join.results"));
  report->Metric("core.candidates", per_join(candidates), "count/join");
  report->Metric("core.results", per_join(results), "count/join");
  report->Metric("core.refine_true_hit_rate", Ratio(results, candidates),
                 "ratio");

  report->Metric("geom.intersects_ns", in.intersects_ns, "ns");
  report->Metric("geom.contains_ns", in.contains_ns, "ns");

  report->Metric("rtree.build_s", in.rtree_build_s, "s");
  report->Metric("rtree.window_query_us", in.window_query_us, "us");
  report->Metric("rtree.nodes_scanned", per_op(c.Count("rtree.nodes_scanned")),
                 "count/op");
  report->Metric("rtree.leaf_hit_rate",
                 Ratio(static_cast<double>(c.Count("rtree.leaf_hits")),
                       static_cast<double>(c.Count("rtree.entries_tested"))),
                 "ratio");

  report->Metric("exec.op_self_s", self_per_op("exec.op"), "s/op");
  report->Metric(
      "exec.rows_per_batch",
      Ratio(static_cast<double>(c.SumMatching("exec.", ".rows_out")),
            static_cast<double>(c.SumMatching("exec.", ".batches"))),
      "rows");
  report->Metric("exec.view.insert_us", in.view_insert_s.Median() * 1e6,
                 "us");
  report->Metric("exec.view.delete_us", in.view_delete_s.Median() * 1e6,
                 "us");
  report->Metric("exec.view.query_us", in.view_query_s.Median() * 1e6, "us");
  report->Metric(
      "exec.view.delta_hit_rate",
      Ratio(static_cast<double>(c.Count("view.delta_results")),
            static_cast<double>(c.Count("view.delta_candidates"))),
      "ratio");
  report->Metric("exec.view.write_p50_s", in.write_s.Median(), "s");
  report->Metric("exec.view.write_p99_s", in.write_s.Percentile(0.99), "s");

  report->Metric("service.queue_p50_s", in.queue_s.Median(), "s");
  report->Metric("service.queue_p99_s", in.queue_s.Percentile(0.99), "s");
  report->Metric("service.exec_p50_s", in.exec_s.Median(), "s");
  const double cache_hits = static_cast<double>(c.Count("service.cache.hits"));
  const double cache_misses =
      static_cast<double>(c.Count("service.cache.misses"));
  report->Metric("service.cache_hit_rate",
                 Ratio(cache_hits, cache_hits + cache_misses), "ratio");
  report->Metric("service.cache_invalidations",
                 per_op(c.Count("service.cache.invalidations")), "count/op");
  for (const char* method :
       {"pbsm", "parallel_pbsm", "inl", "rtree", "spatial_hash", "zorder"}) {
    auto it = in.plan_mix.find(method);
    const double n = it == in.plan_mix.end() ? 0.0 : it->second;
    report->Metric(std::string("service.plan_mix.") + method,
                   Ratio(n, static_cast<double>(in.plan_total)), "ratio");
  }
  report->Metric("service.shard.critical_s", in.shard_critical_s.Median(),
                 "s");
  report->Metric("service.shard.skew", in.shard_skew.Median(), "ratio");
  report->Metric("service.shard.stolen", in.shard_stolen.Mean(), "count/op");

  if (in.layers.dropped_spans > 0) {
    std::fprintf(stderr, "tracer dropped %llu spans; attribution is partial\n",
                 static_cast<unsigned long long>(in.layers.dropped_spans));
  }
  report->Metric("trace.coverage", in.layers.Coverage(), "ratio");
  report->Metric("trace.overhead_frac",
                 Ratio(in.traced_latency.Mean(), in.untraced_latency.Mean()) -
                     (in.untraced_latency.empty() ? 0.0 : 1.0),
                 "ratio");
}

}  // namespace perfbench
