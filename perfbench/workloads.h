// The benchmark's workloads and the data they share. Every workload takes
// its seed from the command line and hands it to the generators; sizes are
// fractions of the paper's cardinalities (Tables 2/3).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/spatial_join.h"
#include "harness.h"
#include "storage/tuple.h"

namespace perfbench {

/// Paper cardinalities: Road 456,613 / Hydrography 122,149 / Rail 16,844 /
/// Sequoia polygons 58,115 / islands 20,000 (assumed; not reported).
inline constexpr uint64_t kRoad = 456613;
inline constexpr uint64_t kHydro = 122149;
inline constexpr uint64_t kRail = 16844;
inline constexpr uint64_t kPolygons = 58115;
inline constexpr uint64_t kIslands = 20000;

/// `full` scaled to `scale`, at least 10.
uint64_t Scaled(uint64_t full, double scale);

/// Every relation is the union of kDataParts parts, part k drawn from its
/// own generator seeded with seed * kDataParts + k at 1/kDataParts of the
/// size. One generator's 96-cluster layout moves the Road x Hydro result
/// count by about +-30% between seeds; the union keeps the generator's
/// shapes and local skew while the cost of a workload varies little from
/// one seed to the next.
inline constexpr uint32_t kDataParts = 64;

struct TigerData {
  std::vector<pbsm::Tuple> roads;
  std::vector<pbsm::Tuple> hydro;
  std::vector<pbsm::Tuple> rail;
};

/// Road, hydrography and (when `with_rail`) rail at `scale`. `extra_roads`
/// more roads come from the same generators after the loaded ones (the
/// view workload's inserts).
TigerData GenerateTiger(uint64_t seed, double scale, bool with_rail,
                        uint64_t extra_roads, std::vector<pbsm::Tuple>* extra);

struct SequoiaData {
  std::vector<pbsm::Tuple> polygons;
  std::vector<pbsm::Tuple> islands;
};

SequoiaData GenerateSequoia(uint64_t seed, double scale);

/// Host block: core count and the filter kernel the dispatcher resolves.
void AddHostInfo(Report* report);

/// True once `seconds` have passed and at least `min_ops` completed.
inline bool WindowOver(double elapsed, double seconds, uint64_t done,
                       uint64_t min_ops) {
  return elapsed >= seconds && done >= min_ops;
}

/// fig07_cold_<method>: one cold Road x Hydrography join per operation.
void RunFig07(const Args& args, pbsm::JoinMethod method, Report* report);

/// service_read (sharded = false) and service_sharded (sharded = true).
void RunService(const Args& args, bool sharded, Report* report);

/// view_churn: inserts, deletes and reads against a materialized view.
void RunViewChurn(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
