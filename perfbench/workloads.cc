#include "workloads.h"

#include <thread>
#include <utility>

#include "common/rng.h"
#include "core/sweep_kernel.h"
#include "datagen/sequoia_gen.h"
#include "datagen/tiger_gen.h"

namespace perfbench {

uint64_t Scaled(uint64_t full, double scale) {
  const uint64_t n = static_cast<uint64_t>(static_cast<double>(full) * scale);
  return n < 10 ? 10 : n;
}

namespace {

/// Size of part `k` when `total` items are spread over kDataParts parts.
uint64_t PartSize(uint64_t total, uint32_t k) {
  return total / kDataParts + (k < total % kDataParts ? 1 : 0);
}

/// Appends `part` to `out`, renumbering ids to stay unique in the union.
void AppendPart(std::vector<pbsm::Tuple>* part, std::vector<pbsm::Tuple>* out) {
  for (pbsm::Tuple& t : *part) {
    t.id = out->size();
    out->push_back(std::move(t));
  }
}

}  // namespace

TigerData GenerateTiger(uint64_t seed, double scale, bool with_rail,
                        uint64_t extra_roads,
                        std::vector<pbsm::Tuple>* extra) {
  const uint64_t roads = Scaled(kRoad, scale);
  const uint64_t hydro = Scaled(kHydro, scale);
  const uint64_t rail = with_rail ? Scaled(kRail, scale) : 0;
  TigerData d;
  if (extra != nullptr) extra->clear();
  for (uint32_t k = 0; k < kDataParts; ++k) {
    pbsm::TigerGenerator::Params params;
    params.seed = seed * kDataParts + k;
    pbsm::TigerGenerator gen(params);
    const uint64_t n = PartSize(roads, k);
    std::vector<pbsm::Tuple> part =
        gen.GenerateRoads(n + PartSize(extra_roads, k));
    std::vector<pbsm::Tuple> tail(std::make_move_iterator(part.begin() + n),
                                  std::make_move_iterator(part.end()));
    part.resize(n);
    AppendPart(&part, &d.roads);
    if (extra != nullptr) AppendPart(&tail, extra);
    part = gen.GenerateHydrography(PartSize(hydro, k));
    AppendPart(&part, &d.hydro);
    part = gen.GenerateRail(PartSize(rail, k));
    AppendPart(&part, &d.rail);
  }
  if (extra != nullptr) {
    // Inserts draw the extra roads in order; shuffle so that every part
    // contributes from the first insert on.
    pbsm::Rng rng(seed);
    for (size_t i = extra->size(); i > 1; --i) {
      std::swap((*extra)[i - 1], (*extra)[rng.Uniform(i)]);
    }
  }
  return d;
}

SequoiaData GenerateSequoia(uint64_t seed, double scale) {
  const uint64_t polygons = Scaled(kPolygons, scale);
  const uint64_t islands = Scaled(kIslands, scale);
  SequoiaData d;
  for (uint32_t k = 0; k < kDataParts; ++k) {
    pbsm::SequoiaGenerator::Params params;
    params.seed = seed * kDataParts + k;
    pbsm::SequoiaGenerator gen(params);
    // Islands are placed inside this part's polygons, so generate in order.
    std::vector<pbsm::Tuple> part = gen.GeneratePolygons(PartSize(polygons, k));
    AppendPart(&part, &d.polygons);
    part = gen.GenerateIslands(PartSize(islands, k));
    AppendPart(&part, &d.islands);
  }
  return d;
}

void AddHostInfo(Report* report) {
  report->Info("host.nproc",
               static_cast<double>(std::thread::hardware_concurrency()));
  report->Info("host.kernel", std::string(pbsm::KernelKindName(
                                  pbsm::ResolveKernel(pbsm::SimdMode::kAuto))));
}

}  // namespace perfbench
