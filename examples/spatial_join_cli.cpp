// Command-line spatial join over WKT files — the "downstream user" entry
// point: bring your own data, no generators involved.
//
// One-shot join:
//   ./examples/spatial_join_cli R.wkt S.wkt [intersects|contains]
//                               [pbsm|parallel_pbsm|rtree|inl|spatial_hash|zorder|auto]
//                               [--refine-mode=exact|adaptive|approximate]
//                               [--fault-profile=SPEC] [--shards=N]
//                               [--explain]
//
// --explain prints the planned operator tree with per-operator cost
// estimates (the planner's cost table plus the exec-layer tree that would
// run) and exits WITHOUT executing the join. The method operand may be
// `auto` here, showing what the cost-based planner would pick.
//
// Service mode (long-running, planner + index cache; see DESIGN.md
// "Service layer"):
//   ./examples/spatial_join_cli serve R.wkt S.wkt [--workers=N] [--queue=N]
//                               [--shards=N]
// then issue commands on stdin, one per line:
//   join <intersects|contains> [auto|pbsm|...] [timeout_seconds]
//   explain <intersects|contains> [auto|pbsm|...]
//   stats
//   quit
//
// --shards=N > 1 runs the join through the sharded scatter-gather path
// (ShardManager + JoinRouter): the universe is cut into N spatial strips,
// each with its own buffer pool and index cache, and every query scatters
// one sub-join per strip. Results and exit codes are identical to the
// single-shard path — sharding is a throughput/isolation knob, not a
// semantic one. In serve mode --workers means workers per shard, and the
// one serve loop answers every command at any N (--shards=1 serves the
// loaded heaps in place, as JoinService does).
//
// Each input file holds one WKT geometry per line (POINT / LINESTRING /
// POLYGON; '#' lines are comments). One-shot mode prints the result as
// "<r_line> <s_line>" pairs of 1-based input line numbers, followed by the
// cost breakdown. With no arguments, a small built-in demo runs.
//
// --fault-profile arms a deterministic storage fault injector (see
// FaultInjector::Parse for the spec syntax, e.g. "seed=42;read=0.01"):
// transient faults are retried transparently by the buffer pool; permanent
// ones make the join fail with a clean non-OK status.
//
// Exit codes: 0 success, 1 runtime failure (I/O, bad input data, join
// error), 2 usage error (unknown flag/predicate/method, missing operand).

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <algorithm>
#include <mutex>

#include "core/spatial_join.h"
#include "datagen/loader.h"
#include "exec/plan_builder.h"
#include "geom/wkt.h"
#include "service/join_planner.h"
#include "service/join_router.h"
#include "service/shard_manager.h"

int RunCli(int argc, const char** argv);

namespace {

using namespace pbsm;

constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;

void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: spatial_join_cli R.wkt S.wkt [intersects|contains]\n"
      "                        [pbsm|parallel_pbsm|rtree|inl|spatial_hash|"
      "zorder|auto]\n"
      "                        [--refine-mode=exact|adaptive|approximate]\n"
      "                        [--fault-profile=SPEC] [--shards=N] "
      "[--explain]\n"
      "       spatial_join_cli serve R.wkt S.wkt [--workers=N] [--queue=N]\n"
      "                        [--refine-mode=MODE] [--fault-profile=SPEC]\n"
      "                        [--shards=N]\n");
}

/// Flags shared by both modes, parsed strictly: any unrecognised --flag is
/// a usage error (exit 2) instead of being silently treated as a file name.
struct CliFlags {
  std::string fault_profile;
  uint32_t workers = 2;
  size_t queue_capacity = 64;
  /// > 1 routes the join through the sharded scatter-gather path.
  uint32_t shards = 1;
  /// Refinement strategy: unset = the library default (exact). In serve
  /// mode this becomes each request's refine_mode override, so the
  /// planner's cost model follows it too.
  std::optional<RefineMode> refine_mode;
  /// One-shot mode: print the planned operator tree with per-operator cost
  /// estimates and exit without executing.
  bool explain = false;
};

/// Splits argv into flags and positionals; false (usage error) on any
/// unknown flag or malformed value.
bool ParseArgs(int argc, const char** argv, CliFlags* flags,
               std::vector<const char*>* positional) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional->push_back(argv[i]);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (name == "--fault-profile") {
      flags->fault_profile = value;
    } else if (name == "--explain") {
      if (eq != std::string::npos) {
        std::fprintf(stderr, "--explain takes no value\n");
        return false;
      }
      flags->explain = true;
    } else if (name == "--refine-mode") {
      auto mode = ParseRefineMode(value);
      if (!mode.ok()) {
        std::fprintf(stderr, "bad value for --refine-mode: %s\n",
                     mode.status().message().c_str());
        return false;
      }
      flags->refine_mode = *mode;
    } else if (name == "--workers" || name == "--queue" ||
               name == "--shards") {
      char* end = nullptr;
      const unsigned long n = std::strtoul(value.c_str(), &end, 10);
      if (value.empty() || end == nullptr || *end != '\0' || n == 0) {
        std::fprintf(stderr, "bad value for %s: '%s'\n", name.c_str(),
                     value.c_str());
        return false;
      }
      if (name == "--workers") {
        flags->workers = static_cast<uint32_t>(n);
      } else if (name == "--queue") {
        flags->queue_capacity = static_cast<size_t>(n);
      } else {
        flags->shards = static_cast<uint32_t>(n);
      }
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", name.c_str());
      return false;
    }
  }
  return true;
}

/// Reads one-geometry-per-line WKT into tuples (id = 1-based line number).
Result<std::vector<Tuple>> ReadWktFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::vector<Tuple> tuples;
  std::string line;
  uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Skip blanks and comments.
    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    auto geometry = ParseWkt(line);
    if (!geometry.ok()) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": " + geometry.status().message());
    }
    Tuple t;
    t.id = line_no;
    t.name = path + ":" + std::to_string(line_no);
    t.geometry = std::move(geometry).value();
    tuples.push_back(std::move(t));
  }
  return tuples;
}

int RunDemo() {
  PrintUsage(stdout);
  std::printf("\nrunning built-in demo instead:\n");
  const std::string dir = "/tmp/pbsm_cli_demo";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream r(dir + "/parks.wkt");
    r << "# two parks\n"
      << "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))\n"
      << "POLYGON ((20 20, 30 20, 30 30, 20 30, 20 20))\n";
    std::ofstream s(dir + "/lakes.wkt");
    s << "POLYGON ((2 2, 4 2, 4 4, 2 4, 2 2))\n"      // In park 1.
      << "POLYGON ((25 25, 27 25, 27 27, 25 27, 25 25))\n"  // In park 2.
      << "POLYGON ((50 50, 52 50, 52 52, 50 52, 50 50))\n";  // Nowhere.
  }
  const char* argv[] = {"demo", "/tmp/pbsm_cli_demo/parks.wkt",
                        "/tmp/pbsm_cli_demo/lakes.wkt", "contains", "pbsm"};
  return RunCli(5, argv);
}

/// Parses the "[pred] [method] [timeout_s]" tail of a serve-mode join or
/// explain line into a request over the registered datasets "R" and "S".
/// On an unknown predicate or method, prints an ERR line and returns
/// nullopt.
std::optional<JoinRequest> ParseServeRequest(std::istringstream& iss,
                                             const CliFlags& flags) {
  std::string pred_name = "intersects", method_name = "auto";
  double timeout = 0.0;
  iss >> pred_name >> method_name >> timeout;

  // The names are move-assigned from temporaries: assigning the literals
  // directly trips a false-positive -Wrestrict in GCC 12 at -O3.
  JoinRequest request;
  request.r_dataset = std::string("R");
  request.s_dataset = std::string("S");
  request.timeout_seconds = timeout;
  request.refine_mode = flags.refine_mode;
  if (pred_name == "intersects") {
    request.predicate = SpatialPredicate::kIntersects;
  } else if (pred_name == "contains") {
    request.predicate = SpatialPredicate::kContains;
  } else {
    std::printf("ERR unknown predicate '%s'\n", pred_name.c_str());
    std::fflush(stdout);
    return std::nullopt;
  }
  if (method_name != "auto") {
    const auto method = ParseJoinMethod(method_name);
    if (!method.has_value()) {
      std::printf("ERR unknown method '%s'\n", method_name.c_str());
      std::fflush(stdout);
      return std::nullopt;
    }
    request.method = *method;
  }
  return request;
}

/// `serve` mode: loads both relations once, then answers commands from
/// stdin through one scheduler over --shards strips (at 1, the loaded
/// heaps are served in place, as JoinService does). Repeated index-method
/// joins hit the shard index caches, and `auto` routes through the
/// cost-based planner per shard.
int RunServe(const CliFlags& flags, const std::string& r_path,
             const std::string& s_path) {
  auto r_tuples = ReadWktFile(r_path);
  auto s_tuples = ReadWktFile(s_path);
  if (!r_tuples.ok() || !s_tuples.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!r_tuples.ok() ? r_tuples.status() : s_tuples.status())
                     .ToString()
                     .c_str());
    return kExitRuntime;
  }

  const std::string dir = "/tmp/pbsm_cli_serve";
  std::filesystem::remove_all(dir);
  DiskManager disk(dir);
  if (!flags.fault_profile.empty()) {
    auto injector = FaultInjector::Parse(flags.fault_profile);
    if (!injector.ok()) {
      std::fprintf(stderr, "bad --fault-profile: %s\n",
                   injector.status().ToString().c_str());
      return kExitUsage;
    }
    disk.set_fault_injector(std::move(*injector));
  }
  BufferPool pool(&disk, 64 << 20);
  Catalog catalog;
  auto r = LoadRelation(&pool, &catalog, "R", std::move(r_tuples).value());
  auto s = LoadRelation(&pool, &catalog, "S", std::move(s_tuples).value());
  if (!r.ok() || !s.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 (!r.ok() ? r.status() : s.status()).ToString().c_str());
    return kExitRuntime;
  }

  ShardManagerConfig shard_config;
  shard_config.num_shards = flags.shards;
  const std::unique_ptr<ShardManager> shards =
      flags.shards == 1 ? std::make_unique<ShardManager>(&pool)
                        : std::make_unique<ShardManager>(shard_config);
  Status reg = shards->RegisterDataset("R", &r->heap, r->info);
  if (reg.ok()) reg = shards->RegisterDataset("S", &s->heap, s->info);
  if (!reg.ok()) {
    std::fprintf(stderr, "register failed: %s\n", reg.ToString().c_str());
    return kExitRuntime;
  }
  JoinRouterConfig config;
  config.workers_per_shard = flags.workers;
  config.queue_capacity = flags.queue_capacity;
  // Shard workers supply the parallelism: serial sub-joins, so the planner
  // never starts a thread pool per slice beside them.
  config.join_defaults.num_threads = 1;
  JoinRouter scheduler(shards.get(), config);

  std::printf("serving R=%s (%llu) S=%s (%llu) over %u shard(s); commands: "
              "join <pred> [method|auto] [timeout_s] | "
              "explain <pred> [method|auto] | stats | quit\n",
              r_path.c_str(), (unsigned long long)r->info.cardinality,
              s_path.c_str(), (unsigned long long)s->info.cardinality,
              shards->num_shards());
  if (shards->num_shards() > 1) {
    std::printf("sharded layout: %s\n", shards->layout().ToString().c_str());
  }
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream iss(line);
    std::string cmd;
    iss >> cmd;
    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") break;

    if (cmd == "stats") {
      for (uint32_t i = 0; i < shards->num_shards(); ++i) {
        const IndexCache& cache = *shards->shard(i).cache;
        std::printf("shard %u: cache %zu entries, %llu hits, %llu misses, "
                    "%llu evictions; queue depth %zu\n",
                    i, cache.size(), (unsigned long long)cache.hits(),
                    (unsigned long long)cache.misses(),
                    (unsigned long long)cache.evictions(),
                    scheduler.queue_depth(i));
      }
      std::fflush(stdout);
      continue;
    }

    if (cmd != "join" && cmd != "explain") {
      std::printf("ERR unknown command '%s'\n", cmd.c_str());
      std::fflush(stdout);
      continue;
    }

    std::optional<JoinRequest> parsed = ParseServeRequest(iss, flags);
    if (!parsed.has_value()) continue;
    JoinRequest request = std::move(*parsed);

    if (cmd == "explain") {
      // Plan without executing: per shard, the cost table, the costed tree
      // and the exec-layer tree.
      auto explained = scheduler.Explain(request);
      if (!explained.ok()) {
        std::printf("ERR %s\n", explained.status().ToString().c_str());
      } else {
        std::printf("EXPLAIN method=%.*s%s\nplan:\n%s",
                    (int)JoinMethodName(explained->method).size(),
                    JoinMethodName(explained->method).data(),
                    explained->planner_chosen ? " (planned)" : " (forced)",
                    explained->plan.c_str());
        if (!explained->cost_tree.empty()) {
          std::printf("costed tree:\n%s", explained->cost_tree.c_str());
        }
        std::printf("operator tree:\n%s", explained->tree.c_str());
      }
      std::fflush(stdout);
      continue;
    }

    auto response = scheduler.Execute(std::move(request));
    if (!response.ok()) {
      std::printf("ERR %s\n", response.status().ToString().c_str());
    } else {
      double critical = 0.0;
      for (const ShardSliceStats& slice : response->shard_slices) {
        critical = std::max(critical, slice.exec_seconds);
      }
      std::printf("OK %llu results method=%.*s%s shards=%zu exec=%.4fs "
                  "queue=%.4fs critical=%.4fs\n",
                  (unsigned long long)response->num_results,
                  (int)JoinMethodName(response->method).size(),
                  JoinMethodName(response->method).data(),
                  response->planner_chosen ? " (planned)" : "",
                  response->shard_slices.size(), response->exec_seconds,
                  response->queue_seconds, critical);
      if (response->planner_chosen) {
        std::printf("plan: %s\n", response->plan.c_str());
      }
      for (const ShardSliceStats& slice : response->shard_slices) {
        std::printf("  shard %u: %llu results method=%.*s %.4fs%s%s\n",
                    slice.shard, (unsigned long long)slice.num_results,
                    (int)JoinMethodName(slice.method).size(),
                    JoinMethodName(slice.method).data(), slice.exec_seconds,
                    slice.stolen ? " (stolen)" : "",
                    slice.speculative ? " (speculative)" : "");
      }
    }
    std::fflush(stdout);
  }

  scheduler.Shutdown(/*drain=*/true);
  std::filesystem::remove_all(dir);
  return kExitOk;
}

}  // namespace

int RunCli(int argc, const char** argv) {
  CliFlags flags;
  std::vector<const char*> positional;
  if (!ParseArgs(argc, argv, &flags, &positional)) {
    PrintUsage(stderr);
    return kExitUsage;
  }
  argc = static_cast<int>(positional.size());
  argv = positional.data();

  if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    if (argc != 4) {
      std::fprintf(stderr, "serve needs exactly two WKT files\n");
      PrintUsage(stderr);
      return kExitUsage;
    }
    return RunServe(flags, argv[2], argv[3]);
  }
  if (argc < 3 || argc > 5) {
    PrintUsage(stderr);
    return kExitUsage;
  }

  const std::string r_path = argv[1];
  const std::string s_path = argv[2];
  const std::string pred_name = argc > 3 ? argv[3] : "intersects";
  const std::string algo = argc > 4 ? argv[4] : "pbsm";

  SpatialPredicate pred;
  if (pred_name == "intersects") {
    pred = SpatialPredicate::kIntersects;
  } else if (pred_name == "contains") {
    pred = SpatialPredicate::kContains;
  } else {
    std::fprintf(stderr, "unknown predicate '%s'\n", pred_name.c_str());
    return kExitUsage;
  }
  std::optional<JoinMethod> method;
  if (algo == "auto") {
    // The one-shot join path runs a fixed method; `auto` only makes sense
    // when just planning (--explain) or in serve mode (planner per query).
    if (!flags.explain) {
      std::fprintf(stderr,
                   "method 'auto' needs --explain or serve mode\n");
      return kExitUsage;
    }
  } else {
    method = ParseJoinMethod(algo);
    if (!method.has_value()) {
      std::fprintf(stderr, "unknown algorithm '%s'\n", algo.c_str());
      return kExitUsage;
    }
  }

  auto r_tuples = ReadWktFile(r_path);
  auto s_tuples = ReadWktFile(s_path);
  if (!r_tuples.ok() || !s_tuples.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!r_tuples.ok() ? r_tuples.status() : s_tuples.status())
                     .ToString()
                     .c_str());
    return kExitRuntime;
  }

  const std::string dir = "/tmp/pbsm_cli_work";
  std::filesystem::remove_all(dir);
  DiskManager disk(dir);
  if (!flags.fault_profile.empty()) {
    auto injector = FaultInjector::Parse(flags.fault_profile);
    if (!injector.ok()) {
      std::fprintf(stderr, "bad --fault-profile: %s\n",
                   injector.status().ToString().c_str());
      return kExitUsage;
    }
    disk.set_fault_injector(std::move(*injector));
  }
  BufferPool pool(&disk, 32 << 20);
  Catalog catalog;
  auto r = LoadRelation(&pool, &catalog, "R", std::move(r_tuples).value(),
                        false, pred == SpatialPredicate::kContains);
  auto s = LoadRelation(&pool, &catalog, "S", std::move(s_tuples).value());
  if (!r.ok() || !s.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 (!r.ok() ? r.status() : s.status()).ToString().c_str());
    return kExitRuntime;
  }

  if (flags.explain) {
    // Plan only: the cost table, the planner's costed operator tree, and
    // the exec-layer tree that would be driven. Nothing executes — no
    // index builds, no heap scans beyond the load above.
    JoinSpec spec;
    spec.predicate = pred;
    spec.options.memory_budget_bytes = 8 << 20;
    spec.options.use_mer_filter = pred == SpatialPredicate::kContains;
    if (flags.refine_mode.has_value()) {
      spec.options.refine.mode = *flags.refine_mode;
    }
    PlannerCosts costs;
    costs.dedup_mode = spec.options.dedup_mode;
    costs.refine_mode = spec.options.refine.mode;
    const PlannerSide pr{&r->info, nullptr, false};
    const PlannerSide ps{&s->info, nullptr, false};
    const PlanChoice plan = PlanJoin(pr, ps, 0, costs);
    spec.method = method.value_or(plan.method);
    std::printf("plan: %s\n", plan.ToString().c_str());
    if (spec.method == plan.method) {
      std::printf("costed tree:\n%s\n", plan.TreeString().c_str());
    }
    const std::unique_ptr<Operator> tree =
        BuildJoinTree(r->AsInput(), s->AsInput(), spec);
    std::printf("operator tree (%.*s):\n%s",
                (int)JoinMethodName(spec.method).size(),
                JoinMethodName(spec.method).data(),
                DescribeTree(*tree).c_str());
    std::filesystem::remove_all(dir);
    return kExitOk;
  }

  // Result pairs are reported as input line numbers (tuple ids).
  ResultSink sink = [&](Oid ro, Oid so) {
    std::string rec;
    uint64_t r_line = 0, s_line = 0;
    if (r->heap.Fetch(ro, &rec).ok()) {
      auto t = Tuple::Parse(rec.data(), rec.size());
      if (t.ok()) r_line = t->id;
    }
    if (s->heap.Fetch(so, &rec).ok()) {
      auto t = Tuple::Parse(rec.data(), rec.size());
      if (t.ok()) s_line = t->id;
    }
    std::printf("%llu %llu\n", (unsigned long long)r_line,
                (unsigned long long)s_line);
  };

  if (flags.shards > 1) {
    // Sharded one-shot: scatter over a router. The router's sinks hand back
    // GLOBAL oids (local->global translation), so the line-number sink works
    // unchanged — but it may now be called from several shard workers at
    // once, hence the lock.
    ShardManagerConfig shard_config;
    shard_config.num_shards = flags.shards;
    ShardManager shards(shard_config);
    Status reg = shards.RegisterDataset("R", &r->heap, r->info);
    if (reg.ok()) reg = shards.RegisterDataset("S", &s->heap, s->info);
    if (!reg.ok()) {
      std::fprintf(stderr, "register failed: %s\n", reg.ToString().c_str());
      return kExitRuntime;
    }
    JoinRouterConfig router_config;
    router_config.join_defaults.num_threads = 1;  // Serial sub-joins.
    JoinRouter router(&shards, router_config);
    std::mutex sink_mutex;
    JoinRequest request;
    request.r_dataset = "R";
    request.s_dataset = "S";
    request.predicate = pred;
    request.method = *method;
    request.refine_mode = flags.refine_mode;
    request.sink = [&](Oid ro, Oid so) {
      std::lock_guard<std::mutex> lock(sink_mutex);
      sink(ro, so);
    };
    auto response = router.Execute(std::move(request));
    router.Shutdown(/*drain=*/true);
    if (!response.ok()) {
      std::fprintf(stderr, "join failed: %s\n",
                   response.status().ToString().c_str());
      return kExitRuntime;
    }
    std::fprintf(stderr, "# %s %s: %llu results over %zu shards\n",
                 algo.c_str(), pred_name.c_str(),
                 (unsigned long long)response->num_results,
                 response->shard_slices.size());
    for (const ShardSliceStats& slice : response->shard_slices) {
      std::fprintf(stderr, "#   shard %-4u %llu results, %.4fs%s\n",
                   slice.shard, (unsigned long long)slice.num_results,
                   slice.exec_seconds, slice.stolen ? " (stolen)" : "");
    }
    std::filesystem::remove_all(dir);
    return kExitOk;
  }

  JoinSpec spec;
  spec.method = *method;
  spec.predicate = pred;
  spec.options.memory_budget_bytes = 8 << 20;
  spec.options.use_mer_filter = pred == SpatialPredicate::kContains;
  if (flags.refine_mode.has_value()) {
    spec.options.refine.mode = *flags.refine_mode;
  }
  spec.sink = sink;
  auto result = SpatialJoin(&pool, r->AsInput(), s->AsInput(), spec);
  if (!result.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 result.status().ToString().c_str());
    return kExitRuntime;
  }
  std::fprintf(stderr, "# %s %s: %llu results from %llu candidates\n",
               algo.c_str(), pred_name.c_str(),
               (unsigned long long)result->num_results,
               (unsigned long long)result->breakdown.candidates);
  for (const auto& [phase, c] : result->breakdown.phases) {
    std::fprintf(stderr, "#   %-24s %.4fs cpu, %llu I/Os\n", phase.c_str(),
                 c.cpu_seconds, (unsigned long long)c.io.total());
  }
  std::fprintf(
      stderr,
      "# pool: %llu hits / %llu misses; refinement: %llu true / %llu false "
      "positives\n",
      (unsigned long long)result->metrics.counter("storage.bufferpool.hits"),
      (unsigned long long)result->metrics.counter(
          "storage.bufferpool.misses"),
      (unsigned long long)result->metrics.counter(
          "join.refine.true_positives"),
      (unsigned long long)result->metrics.counter(
          "join.refine.false_positives"));
  std::filesystem::remove_all(dir);
  return kExitOk;
}

int main(int argc, char** argv) {
  if (argc < 2) return RunDemo();
  return RunCli(argc, const_cast<const char**>(argv));
}
