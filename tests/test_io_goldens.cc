// Golden I/O counts: every serial join method, run through the SpatialJoin
// facade on small seeded datasets with a buffer pool far smaller than the
// data, must issue exactly the page reads, sequential reads and writes
// recorded here, and produce exactly these candidate and result counts.
//
// The brute-force oracle tests pin *which* pairs a join returns; nothing
// else pins *how* it gets them. A refactor of the execution engine that
// keeps results but changes the access pattern (an extra pass, a lost
// sequential run, a different spill) shows up here first. A change that
// alters I/O on purpose must update these constants and say why.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/spatial_join.h"
#include "datagen/loader.h"
#include "datagen/sequoia_gen.h"
#include "datagen/tiger_gen.h"
#include "tests/test_util.h"

namespace pbsm {
namespace {

/// The pool: 24 pages. Road x Hydro loads 114 heap pages and Sequoia 91, so
/// every method spills and re-reads.
constexpr size_t kPoolBytes = 24 * kPageSize;

struct Golden {
  uint64_t reads;
  uint64_t sequential_reads;
  uint64_t writes;
  uint64_t candidates;
  uint64_t results;
};

struct Workload {
  std::vector<Tuple> r;
  std::vector<Tuple> s;
  SpatialPredicate pred;
  bool mers;  ///< Store precomputed MERs with r (containment workloads).
};

/// Road x Hydro on a 1/8-side corner of the TIGER universe, so a few
/// thousand tuples still produce a dense join.
Workload RoadHydro() {
  TigerGenerator::Params params;
  params.seed = 1996;
  params.universe = Rect(params.universe.xlo, params.universe.ylo,
                         params.universe.xlo + params.universe.width() / 8,
                         params.universe.ylo + params.universe.height() / 8);
  TigerGenerator gen(params);
  Workload w;
  w.r = gen.GenerateRoads(3000);
  w.s = gen.GenerateHydrography(1200);
  w.pred = SpatialPredicate::kIntersects;
  w.mers = false;
  return w;
}

/// Sequoia landuse polygons CONTAIN islands (Figure 13's query).
Workload SequoiaContainment() {
  SequoiaGenerator::Params params;
  params.seed = 2000;
  SequoiaGenerator gen(params);
  Workload w;
  w.r = gen.GeneratePolygons(600);
  w.s = gen.GenerateIslands(300);
  w.pred = SpatialPredicate::kContains;
  w.mers = true;
  return w;
}

/// Loads both inputs into a fresh workspace, resets the I/O counters, and
/// runs one join the way the figure benches do (cold pool, the paper's
/// 1024 tiles, the pool as the operator memory budget).
Golden Measure(const Workload& w, JoinMethod method) {
  StorageEnv env(kPoolBytes);
  auto r = LoadRelation(env.pool(), nullptr, "r", w.r, /*clustered=*/false,
                        w.mers);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  auto s = LoadRelation(env.pool(), nullptr, "s", w.s);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  if (!r.ok() || !s.ok()) return Golden{};
  env.disk()->ResetStats();

  JoinSpec spec;
  spec.method = method;
  spec.predicate = w.pred;
  spec.options.memory_budget_bytes = kPoolBytes;
  spec.options.num_tiles = 1024;
  auto result = SpatialJoin(env.pool(), r->AsInput(), s->AsInput(), spec);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return Golden{};
  const IoStats io = env.disk()->stats();
  return Golden{io.reads, io.sequential_reads, io.writes,
                result->breakdown.candidates, result->num_results};
}

void ExpectGolden(const Workload& w, JoinMethod method,
                  const Golden& expected) {
  SCOPED_TRACE(std::string(JoinMethodName(method)));
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    const Golden got = Measure(w, method);
    EXPECT_EQ(got.reads, expected.reads);
    EXPECT_EQ(got.sequential_reads, expected.sequential_reads);
    EXPECT_EQ(got.writes, expected.writes);
    EXPECT_EQ(got.candidates, expected.candidates);
    EXPECT_EQ(got.results, expected.results);
  }
}

TEST(IoGoldensTest, RoadHydroIntersects) {
  const Workload w = RoadHydro();
  ExpectGolden(w, JoinMethod::kPbsm, {461, 415, 84, 19170, 17093});
  ExpectGolden(w, JoinMethod::kRtree, {536, 493, 68, 19170, 17093});
  ExpectGolden(w, JoinMethod::kInl, {476, 453, 47, 19170, 17093});
  ExpectGolden(w, JoinMethod::kSpatialHash, {509, 469, 63, 19170, 17093});
  ExpectGolden(w, JoinMethod::kZOrder, {580, 436, 142, 57677, 17093});
}

TEST(IoGoldensTest, SequoiaPolygonsContainIslands) {
  const Workload w = SequoiaContainment();
  ExpectGolden(w, JoinMethod::kPbsm, {213, 200, 14, 356, 236});
  ExpectGolden(w, JoinMethod::kRtree, {272, 263, 5, 356, 236});
  ExpectGolden(w, JoinMethod::kInl, {181, 174, 3, 356, 236});
  ExpectGolden(w, JoinMethod::kSpatialHash, {275, 263, 6, 356, 236});
  ExpectGolden(w, JoinMethod::kZOrder, {205, 199, 0, 2810, 236});
}

}  // namespace
}  // namespace pbsm
