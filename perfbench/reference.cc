#include "reference.h"

#include <algorithm>
#include <string>

#include "geom/predicates.h"

namespace perfbench {

uint64_t PairDigest::Mix(uint64_t r, uint64_t s) {
  // splitmix64 finalizer over both halves.
  uint64_t z = r * 0x9e3779b97f4a7c15ULL + (s ^ 0xd1b54a32d192ed03ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  z += s * 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 33)) * 0xff51afd7ed558ccdULL;
  return z ^ (z >> 33);
}

std::vector<RefItem> MakeRefItems(const std::vector<pbsm::Tuple>& tuples,
                                  const std::vector<uint64_t>& oids) {
  std::vector<RefItem> items(tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    items[i] = RefItem{tuples[i].geometry.Mbr(), &tuples[i].geometry,
                       oids[i]};
  }
  return items;
}

pbsm::Result<std::vector<uint64_t>> ScanOids(
    const pbsm::HeapFile& heap, const std::vector<pbsm::Tuple>& tuples) {
  std::vector<uint64_t> oids;
  oids.reserve(tuples.size());
  PBSM_RETURN_IF_ERROR(heap.Scan(
      [&](pbsm::Oid oid, const char* data, size_t size) -> pbsm::Status {
        PBSM_ASSIGN_OR_RETURN(const pbsm::Tuple t,
                              pbsm::Tuple::Parse(data, size));
        if (oids.size() >= tuples.size() || t.id != tuples[oids.size()].id) {
          return pbsm::Status::Internal("heap order differs from input");
        }
        oids.push_back(oid.Encode());
        return pbsm::Status::OK();
      }));
  if (oids.size() != tuples.size()) {
    return pbsm::Status::Internal("heap holds " + std::to_string(oids.size()) +
                                  " of " + std::to_string(tuples.size()) +
                                  " tuples");
  }
  return oids;
}

std::vector<RefPair> ReferenceJoin(const std::vector<RefItem>& r,
                                   const std::vector<RefItem>& s,
                                   pbsm::SpatialPredicate pred) {
  auto by_xlo = [](const std::vector<RefItem>& items) {
    std::vector<uint32_t> order(items.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return items[a].mbr.xlo < items[b].mbr.xlo;
    });
    return order;
  };
  const std::vector<uint32_t> ro = by_xlo(r);
  const std::vector<uint32_t> so = by_xlo(s);

  std::vector<RefPair> out;
  auto emit = [&](uint32_t ri, uint32_t si) {
    const bool hit =
        pred == pbsm::SpatialPredicate::kIntersects
            ? pbsm::Intersects(*r[ri].geometry, *s[si].geometry)
            : pbsm::Contains(*r[ri].geometry, *s[si].geometry);
    out.push_back(RefPair{ri, si, hit});
  };
  // Forward sweep: the item with the smaller xlo scans the other list from
  // the current position while the other's xlo stays within its x-extent.
  size_t i = 0, j = 0;
  while (i < ro.size() && j < so.size()) {
    const RefItem& a = r[ro[i]];
    const RefItem& b = s[so[j]];
    if (a.mbr.xlo <= b.mbr.xlo) {
      for (size_t k = j; k < so.size() && s[so[k]].mbr.xlo <= a.mbr.xhi;
           ++k) {
        const pbsm::Rect& m = s[so[k]].mbr;
        if (m.ylo <= a.mbr.yhi && a.mbr.ylo <= m.yhi) emit(ro[i], so[k]);
      }
      ++i;
    } else {
      for (size_t k = i; k < ro.size() && r[ro[k]].mbr.xlo <= b.mbr.xhi;
           ++k) {
        const pbsm::Rect& m = r[ro[k]].mbr;
        if (m.ylo <= b.mbr.yhi && b.mbr.ylo <= m.yhi) emit(ro[k], so[j]);
      }
      ++j;
    }
  }
  return out;
}

PairDigest DigestOf(const std::vector<RefPair>& pairs,
                    const std::vector<RefItem>& r,
                    const std::vector<RefItem>& s, const pbsm::Rect* window) {
  PairDigest d;
  for (const RefPair& p : pairs) {
    if (!p.hit) continue;
    if (window != nullptr && (!r[p.r].mbr.Intersects(*window) ||
                              !s[p.s].mbr.Intersects(*window))) {
      continue;
    }
    d.Add(r[p.r].oid, s[p.s].oid);
  }
  return d;
}

}  // namespace perfbench
