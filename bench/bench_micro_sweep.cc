// Microbenchmarks for the in-memory plane-sweep rectangle join (the PBSM
// partition-merge kernel): forward sweep vs interval-tree sweep vs nested
// loops across input sizes and selectivities.
//
// `bench_micro_sweep --compare-kernels` skips google-benchmark and instead
// runs the scalar-vs-SIMD filter-kernel comparison: for each workload it
// verifies both kernels emit the identical pair set (exit 1 on mismatch)
// and times the pure §3.1 forward-sweep scan (inputs pre-sorted so the sort
// does not dilute kernel speedup), emitting one KERNEL_COMPARE_JSON line.
// The checked-in baseline lives at bench/results/simd_sweep_baseline.json
// and the CI perf-smoke job replays this mode on every push.
//
// `bench_micro_sweep --compare-refine` compares refine_mode=exact against
// refine_mode=adaptive (true-hit cell filtering) on the Figure 7 and 8
// workloads (Road x Hydrography, Road x Rail): verifies the adaptive engine
// produces the identical result-pair set, times the refinement phase alone
// (best-of-N refine_wall_seconds), and emits one REFINE_COMPARE_JSON line.
// Baseline: bench/results/adaptive_refine_baseline.json; CI's perf-smoke
// job gates refine_speedup on the fig07 case at PBSM_SCALE=1.0.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/plane_sweep_join.h"
#include "core/spatial_join.h"
#include "core/sweep_kernel.h"

namespace pbsm {
namespace {

std::vector<KeyPointer> RandomRects(size_t n, double size, uint64_t seed) {
  Rng rng(seed);
  std::vector<KeyPointer> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.UniformDouble(0, 1000);
    const double y = rng.UniformDouble(0, 1000);
    out.push_back(KeyPointer{
        Rect(x, y, x + rng.NextDouble() * size, y + rng.NextDouble() * size),
        i});
  }
  return out;
}

void RunSweep(benchmark::State& state, SweepAlgorithm algo) {
  const size_t n = static_cast<size_t>(state.range(0));
  const double size = static_cast<double>(state.range(1));
  const auto r0 = RandomRects(n, size, 1);
  const auto s0 = RandomRects(n, size, 2);
  uint64_t pairs = 0;
  for (auto _ : state) {
    auto r = r0;
    auto s = s0;
    pairs = PlaneSweepJoin(&r, &s, [](uint64_t, uint64_t) {}, algo);
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * n));
}

void BM_ForwardSweep(benchmark::State& state) {
  RunSweep(state, SweepAlgorithm::kForwardSweep);
}
BENCHMARK(BM_ForwardSweep)
    ->Args({1000, 2})
    ->Args({10000, 2})
    ->Args({100000, 2})
    ->Args({10000, 20});

void BM_IntervalTreeSweep(benchmark::State& state) {
  RunSweep(state, SweepAlgorithm::kIntervalTreeSweep);
}
BENCHMARK(BM_IntervalTreeSweep)
    ->Args({1000, 2})
    ->Args({10000, 2})
    ->Args({100000, 2})
    ->Args({10000, 20});

void BM_NestedLoopsJoin(benchmark::State& state) {
  RunSweep(state, SweepAlgorithm::kNestedLoops);
}
BENCHMARK(BM_NestedLoopsJoin)->Args({1000, 2})->Args({10000, 2});

// ---------------------------------------------------------------------------
// --compare-kernels mode.
// ---------------------------------------------------------------------------

struct CompareCase {
  const char* label;
  size_t n;
  double rect_size;  // Larger rectangles = longer scan windows = more lanes.
};

/// Best-of-k wall time for one forward sweep under `simd`, counting pairs
/// through a no-op batch sink so emission overhead cannot mask kernel cost.
/// Inputs are pre-sorted and passed kSortedByXlo: both kernels then time the
/// scan itself rather than the shared std::sort.
double TimeSweepMs(std::vector<KeyPointer>* r, std::vector<KeyPointer>* s,
                   SimdMode simd, uint64_t* pairs_out) {
  constexpr int kReps = 5;
  double best_ms = 1e300;
  uint64_t pairs = 0;
  for (int rep = 0; rep <= kReps; ++rep) {  // Rep 0 is warmup.
    uint64_t count = 0;
    const auto t0 = std::chrono::steady_clock::now();
    PlaneSweepJoinBatch(
        r, s, [&count](const OidPair*, size_t k) { count += k; },
        SweepAlgorithm::kForwardSweep, simd, InputOrder::kSortedByXlo);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep > 0 && ms < best_ms) best_ms = ms;
    pairs = count;
  }
  *pairs_out = pairs;
  return best_ms;
}

int RunCompareKernels() {
  const CompareCase cases[] = {
      {"sparse-10k", 10000, 2},
      {"sparse-100k", 100000, 2},
      {"mid-10k", 10000, 20},
      {"dense-4k", 4000, 80},
  };
  const bool have_avx2 = Avx2Supported();
  std::printf("Filter-kernel comparison (forward sweep, pre-sorted inputs)\n");
  std::printf("  avx2_compiled_in=%d avx2_supported=%d\n",
              Avx2CompiledIn() ? 1 : 0, have_avx2 ? 1 : 0);

  bool all_match = true;
  double best_speedup = 0.0;
  std::string cases_json = "[";
  for (const CompareCase& c : cases) {
    auto r = RandomRects(c.n, c.rect_size, 1);
    auto s = RandomRects(c.n, c.rect_size, 2);
    auto by_xlo = [](const KeyPointer& a, const KeyPointer& b) {
      return a.mbr.xlo < b.mbr.xlo;
    };
    std::sort(r.begin(), r.end(), by_xlo);
    std::sort(s.begin(), s.end(), by_xlo);

    // Correctness first: the two kernels must emit the identical pair SET.
    std::vector<OidPair> scalar_pairs, simd_pairs;
    PlaneSweepJoinBatch(&r, &s, VectorBatchSink{&scalar_pairs},
                        SweepAlgorithm::kForwardSweep, SimdMode::kScalar,
                        InputOrder::kSortedByXlo);
    PlaneSweepJoinBatch(&r, &s, VectorBatchSink{&simd_pairs},
                        SweepAlgorithm::kForwardSweep, SimdMode::kAvx2,
                        InputOrder::kSortedByXlo);
    auto by_pair = [](const OidPair& a, const OidPair& b) {
      return a.r != b.r ? a.r < b.r : a.s < b.s;
    };
    std::sort(scalar_pairs.begin(), scalar_pairs.end(), by_pair);
    std::sort(simd_pairs.begin(), simd_pairs.end(), by_pair);
    const bool match =
        scalar_pairs.size() == simd_pairs.size() &&
        std::equal(scalar_pairs.begin(), scalar_pairs.end(),
                   simd_pairs.begin(),
                   [](const OidPair& a, const OidPair& b) {
                     return a.r == b.r && a.s == b.s;
                   });
    all_match = all_match && match;

    uint64_t scalar_count = 0, simd_count = 0;
    const double scalar_ms = TimeSweepMs(&r, &s, SimdMode::kScalar,
                                         &scalar_count);
    const double simd_ms = TimeSweepMs(&r, &s, SimdMode::kAvx2, &simd_count);
    const double speedup = simd_ms > 0 ? scalar_ms / simd_ms : 0.0;
    if (have_avx2 && speedup > best_speedup) best_speedup = speedup;
    std::printf(
        "  %-12s n=%-7zu pairs=%-9llu scalar=%8.3fms simd=%8.3fms "
        "speedup=%5.2fx %s\n",
        c.label, c.n, static_cast<unsigned long long>(scalar_count),
        scalar_ms, simd_ms, speedup, match ? "MATCH" : "MISMATCH");

    char row[320];
    std::snprintf(row, sizeof(row),
                  "%s{\"label\":\"%s\",\"n\":%zu,\"rect_size\":%.1f,"
                  "\"pairs_scalar\":%llu,\"pairs_simd\":%llu,\"match\":%s,"
                  "\"scalar_ms\":%.3f,\"simd_ms\":%.3f,\"speedup\":%.3f}",
                  cases_json.size() > 1 ? "," : "", c.label, c.n, c.rect_size,
                  static_cast<unsigned long long>(scalar_pairs.size()),
                  static_cast<unsigned long long>(simd_pairs.size()),
                  match ? "true" : "false", scalar_ms, simd_ms, speedup);
    cases_json += row;
  }
  cases_json += "]";

  std::printf("  best_speedup=%.2fx %s\n", best_speedup,
              all_match ? "(all pair sets match)" : "(PAIR SET MISMATCH)");
  std::printf(
      "KERNEL_COMPARE_JSON {\"schema\":\"pbsm.kernel_compare.v1\","
      "\"host\":%s,\"all_match\":%s,\"best_speedup\":%.3f,\"cases\":%s}\n",
      bench::HostInfoJson().c_str(), all_match ? "true" : "false",
      best_speedup, cases_json.c_str());
  return all_match ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --compare-refine mode.
// ---------------------------------------------------------------------------

/// One Figure 7/8 workload: Road joined with Hydrography or Rail.
struct JoinCase {
  const char* label;
  const std::vector<Tuple>* r;
  const std::vector<Tuple>* s;
  const char* r_name;
  const char* s_name;
};

struct RefineRun {
  double refine_ms = 1e300;  ///< Best-of-N refinement-phase wall.
  double total_ms = 0.0;     ///< Total wall of the best rep.
  uint64_t candidates = 0;
  uint64_t results = 0;
  uint64_t true_hits = 0;
  uint64_t cell_rejects = 0;
  uint64_t exact_fallbacks = 0;
  uint64_t cover_builds = 0;
  uint32_t threads = 0;
  std::vector<OidPair> pairs;  ///< Sorted result pairs, for the match check.
};

/// Runs the parallel executor under `mode` in one workspace, best-of-kReps
/// after a warm-up rep. The timed quantity is the refinement phase alone
/// (refine_wall_seconds): the cell filter replaces exact predicate tests
/// there and nowhere else.
RefineRun RunRefineMode(const JoinCase& c, size_t budget_bytes,
                        RefineMode mode) {
  bench::Workspace ws(std::max<size_t>(budget_bytes, 128u << 20));
  auto r = LoadRelation(ws.pool(), nullptr, c.r_name, *c.r);
  PBSM_CHECK(r.ok()) << r.status().ToString();
  auto s = LoadRelation(ws.pool(), nullptr, c.s_name, *c.s);
  PBSM_CHECK(s.ok()) << s.status().ToString();

  RefineRun run;
  constexpr int kReps = 5;
  for (int rep = 0; rep <= kReps; ++rep) {
    std::vector<OidPair> pairs;
    ParallelJoinStats stats;
    JoinSpec spec;
    spec.method = JoinMethod::kParallelPbsm;
    spec.options.memory_budget_bytes = budget_bytes;
    spec.options.num_tiles = 1024;  // The paper's default (§4.3).
    spec.options.refine.mode = mode;
    // PBSM_REFINE_GRID_ORDER overrides the auto grid resolution, for
    // sweeping the reject-rate / raster-cost trade-off without a rebuild.
    if (const char* go = std::getenv("PBSM_REFINE_GRID_ORDER")) {
      spec.options.refine.grid_order =
          static_cast<uint32_t>(std::atoi(go));
    }
    if (const char* mr = std::getenv("PBSM_REFINE_MIN_RUN")) {
      spec.options.refine.min_cover_pairs =
          static_cast<uint32_t>(std::atoi(mr));
    }
    spec.parallel_stats = &stats;
    spec.sink = [&pairs](Oid ro, Oid so) {
      pairs.push_back(OidPair{ro.Encode(), so.Encode()});
    };
    auto result = SpatialJoin(ws.pool(), r->AsInput(), s->AsInput(), spec);
    PBSM_CHECK(result.ok()) << result.status().ToString();
    if (rep == 0) continue;  // Warm-up.
    const double refine_ms = stats.refine_wall_seconds * 1e3;
    if (refine_ms < run.refine_ms) {
      run.refine_ms = refine_ms;
      run.total_ms = stats.total_wall_seconds * 1e3;
    }
    run.candidates = result->breakdown.candidates;
    run.results = result->breakdown.results;
    run.true_hits = result->metrics.counter("refinement.true_hits");
    run.cell_rejects = result->metrics.counter("refinement.cell_rejects");
    run.exact_fallbacks =
        result->metrics.counter("refinement.exact_fallbacks");
    run.cover_builds = result->metrics.counter("refinement.cover_builds");
    run.threads = stats.num_threads;
    run.pairs = std::move(pairs);
  }
  std::sort(run.pairs.begin(), run.pairs.end());
  return run;
}

int RunCompareRefine() {
  const double scale = bench::ScaleFromEnv();
  const bench::TigerData tiger = bench::GenTiger(scale);
  const JoinCase cases[] = {
      {"fig07-road-hydro", &tiger.roads, &tiger.hydro, "road", "hydrography"},
      {"fig08-road-rail", &tiger.roads, &tiger.rail, "road", "rail"},
  };
  const size_t pool_bytes = bench::PoolSizes(scale).back().second;

  std::printf("Refine-mode comparison (parallel PBSM, exact vs adaptive)\n");
  std::printf("  scale=%.2f pool_pages=%zu\n", scale, pool_bytes / kPageSize);

  bool all_match = true;
  std::string cases_json = "[";
  for (const JoinCase& c : cases) {
    const RefineRun exact = RunRefineMode(c, pool_bytes, RefineMode::kExact);
    const RefineRun adaptive =
        RunRefineMode(c, pool_bytes, RefineMode::kAdaptive);
    const bool match = exact.pairs == adaptive.pairs;
    all_match = all_match && match;
    const double speedup =
        adaptive.refine_ms > 0 ? exact.refine_ms / adaptive.refine_ms : 0.0;
    std::printf(
        "  %-18s r=%-7zu s=%-7zu threads=%u exact=%8.2fms "
        "adaptive=%8.2fms (hits=%llu rejects=%llu fallbacks=%llu "
        "builds=%llu) refine_speedup=%5.2fx %s\n",
        c.label, c.r->size(), c.s->size(), adaptive.threads, exact.refine_ms,
        adaptive.refine_ms,
        static_cast<unsigned long long>(adaptive.true_hits),
        static_cast<unsigned long long>(adaptive.cell_rejects),
        static_cast<unsigned long long>(adaptive.exact_fallbacks),
        static_cast<unsigned long long>(adaptive.cover_builds), speedup,
        match ? "MATCH" : "MISMATCH");

    char row[640];
    std::snprintf(
        row, sizeof(row),
        "%s{\"label\":\"%s\",\"r_n\":%zu,\"s_n\":%zu,\"threads\":%u,"
        "\"exact_refine_ms\":%.3f,\"adaptive_refine_ms\":%.3f,"
        "\"refine_speedup\":%.3f,\"exact_total_ms\":%.3f,"
        "\"adaptive_total_ms\":%.3f,\"candidates\":%llu,\"results\":%llu,"
        "\"true_hits\":%llu,\"cell_rejects\":%llu,\"exact_fallbacks\":%llu,"
        "\"match\":%s}",
        cases_json.size() > 1 ? "," : "", c.label, c.r->size(), c.s->size(),
        adaptive.threads, exact.refine_ms, adaptive.refine_ms, speedup,
        exact.total_ms, adaptive.total_ms,
        static_cast<unsigned long long>(adaptive.candidates),
        static_cast<unsigned long long>(adaptive.results),
        static_cast<unsigned long long>(adaptive.true_hits),
        static_cast<unsigned long long>(adaptive.cell_rejects),
        static_cast<unsigned long long>(adaptive.exact_fallbacks),
        match ? "true" : "false");
    cases_json += row;
  }
  cases_json += "]";

  std::printf("  %s\n", all_match ? "(all result-pair sets match)"
                                  : "(RESULT-PAIR SET MISMATCH)");
  std::printf(
      "REFINE_COMPARE_JSON {\"schema\":\"pbsm.refine_compare.v1\","
      "\"host\":%s,\"scale\":%.2f,\"all_match\":%s,\"cases\":%s}\n",
      bench::HostInfoJson().c_str(), scale, all_match ? "true" : "false",
      cases_json.c_str());
  return all_match ? 0 : 1;
}

}  // namespace
}  // namespace pbsm

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--compare-kernels") == 0) {
      return pbsm::RunCompareKernels();
    }
    if (std::strcmp(argv[i], "--compare-refine") == 0) {
      return pbsm::RunCompareRefine();
    }
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
