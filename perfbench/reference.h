// The independent correctness reference: an MBR sort-sweep plus the geom
// layer's exact predicate, over the tuples as generated, and an
// order-independent digest of result-pair sets. Nothing here goes through
// the core or exec join code.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/join_options.h"
#include "geom/rect.h"
#include "storage/heap_file.h"
#include "storage/tuple.h"

namespace perfbench {

/// Multiset digest of (r, s) OID pairs: count, wrapping sum and xor of a
/// 64-bit mix of each pair. Independent of emission order; a lost,
/// duplicated or foreign pair changes it.
struct PairDigest {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t x = 0;

  static uint64_t Mix(uint64_t r, uint64_t s);
  void Add(uint64_t r, uint64_t s) { AddHash(Mix(r, s)); }
  void AddHash(uint64_t h) {
    ++count;
    sum += h;
    x ^= h;
  }
  PairDigest& operator+=(const PairDigest& o) {
    count += o.count;
    sum += o.sum;
    x ^= o.x;
    return *this;
  }
  PairDigest& operator-=(const PairDigest& o) {
    count -= o.count;
    sum -= o.sum;
    x ^= o.x;
    return *this;
  }
  friend bool operator==(const PairDigest& a, const PairDigest& b) {
    return a.count == b.count && a.sum == b.sum && a.x == b.x;
  }
  friend bool operator!=(const PairDigest& a, const PairDigest& b) {
    return !(a == b);
  }
};

/// Thread-safe digest for sinks that shard workers call concurrently.
class AtomicDigest {
 public:
  void Add(uint64_t r, uint64_t s) {
    const uint64_t h = PairDigest::Mix(r, s);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(h, std::memory_order_relaxed);
    x_.fetch_xor(h, std::memory_order_relaxed);
  }
  PairDigest Load() const {
    return PairDigest{count_.load(), sum_.load(), x_.load()};
  }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> x_{0};
};

/// One side of a reference join: borrowed geometries with their stored OID.
struct RefItem {
  pbsm::Rect mbr;
  const pbsm::Geometry* geometry = nullptr;
  uint64_t oid = 0;  ///< Oid::Encode() of the stored record.
};

/// Builds RefItems for `tuples`, stored at `oids` (parallel vectors).
std::vector<RefItem> MakeRefItems(const std::vector<pbsm::Tuple>& tuples,
                                  const std::vector<uint64_t>& oids);

/// Scans `heap` and returns the encoded OID of each record, checking that
/// record i holds tuples[i] (loads append in input order).
pbsm::Result<std::vector<uint64_t>> ScanOids(
    const pbsm::HeapFile& heap, const std::vector<pbsm::Tuple>& tuples);

/// A pair whose MBRs overlap, with the exact predicate's verdict.
struct RefPair {
  uint32_t r = 0;  ///< Index into the r items.
  uint32_t s = 0;
  bool hit = false;
};

/// Forward sort-sweep over x with a y-overlap test, then pred(r, s) with
/// the plane-sweep segment test. Returns every MBR-overlapping pair.
std::vector<RefPair> ReferenceJoin(const std::vector<RefItem>& r,
                                   const std::vector<RefItem>& s,
                                   pbsm::SpatialPredicate pred);

/// Digest of the true hits, optionally restricted to pairs whose both MBRs
/// intersect `window` (the service's window semantics).
PairDigest DigestOf(const std::vector<RefPair>& pairs,
                    const std::vector<RefItem>& r,
                    const std::vector<RefItem>& s,
                    const pbsm::Rect* window = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
