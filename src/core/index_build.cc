#include "core/index_build.h"

#include "geom/hilbert.h"
#include "storage/external_sort.h"
#include "storage/tuple.h"

namespace pbsm {

namespace {

/// A key-pointer tagged with its spatial sort key, the unit of the bulk
/// loader's external sort.
struct KeyedEntry {
  uint64_t key = 0;
  RTreeEntry entry;
};
static_assert(std::is_trivially_copyable_v<KeyedEntry>);

struct KeyedLess {
  bool operator()(const KeyedEntry& a, const KeyedEntry& b) const {
    return a.key < b.key;
  }
};

}  // namespace

Result<std::vector<RTreeEntry>> ExtractKeyPointers(const HeapFile& heap) {
  std::vector<RTreeEntry> entries;
  entries.reserve(heap.num_records());
  const Status s =
      heap.Scan([&](Oid oid, const char* data, size_t size) -> Status {
        PBSM_ASSIGN_OR_RETURN(const Tuple tuple, Tuple::Parse(data, size));
        entries.push_back(RTreeEntry{tuple.geometry.Mbr(), oid.Encode()});
        return Status::OK();
      });
  if (!s.ok()) return s;
  return entries;
}

Result<RStarTree> BuildIndexByBulkLoad(BufferPool* pool,
                                       const JoinInput& input,
                                       const std::string& index_name,
                                       double fill_factor,
                                       size_t memory_budget) {
  if (input.heap->num_records() == 0) {
    return RStarTree::BulkLoad(pool, index_name, {}, fill_factor);
  }

  // The spatial sort key comes from the catalog universe (computed here if
  // the caller did not provide catalog statistics).
  Rect universe = input.info.universe;
  if (universe.empty()) {
    PBSM_RETURN_IF_ERROR(input.heap->Scan(
        [&](Oid, const char* data, size_t size) -> Status {
          PBSM_ASSIGN_OR_RETURN(const Tuple tuple, Tuple::Parse(data, size));
          universe.Expand(tuple.geometry.Mbr());
          return Status::OK();
        }));
  }
  const SpaceFillingCurve curve(SpaceFillingCurve::Kind::kHilbert, universe);

  // Pass 1: is the relation already in spatial (Hilbert) order? Clustered
  // inputs are, and then the sort — the dominant bulk-load cost the paper
  // measures in Figure 10 — is skipped entirely.
  bool already_sorted = true;
  {
    uint64_t prev_key = 0;
    bool first = true;
    PBSM_RETURN_IF_ERROR(input.heap->Scan(
        [&](Oid, const char* data, size_t size) -> Status {
          PBSM_ASSIGN_OR_RETURN(const Tuple tuple, Tuple::Parse(data, size));
          const uint64_t key = curve.Key(tuple.geometry.Mbr());
          if (!first && key < prev_key) already_sorted = false;
          prev_key = key;
          first = false;
          return Status::OK();
        }));
  }

  if (already_sorted) {
    // Pass 2a: stream the heap straight into the bottom-up packer.
    HeapFile::Cursor cursor = input.heap->NewCursor();
    std::string record;
    return RStarTree::BulkLoadSorted(
        pool, index_name,
        [&](RTreeEntry* out) -> Result<bool> {
          Oid oid;
          PBSM_ASSIGN_OR_RETURN(const bool has, cursor.Next(&oid, &record));
          if (!has) return false;
          PBSM_ASSIGN_OR_RETURN(const Tuple tuple,
                                Tuple::Parse(record.data(), record.size()));
          *out = RTreeEntry{tuple.geometry.Mbr(), oid.Encode()};
          return true;
        },
        fill_factor);
  }

  // Pass 2b: external sort of the key-pointers under the operator's memory
  // budget (spilling runs through the buffer pool, as Paradise did), then
  // stream the sorted run into the packer.
  ExternalSorter<KeyedEntry, KeyedLess> sorter(pool, memory_budget,
                                               KeyedLess{});
  PBSM_RETURN_IF_ERROR(input.heap->Scan(
      [&](Oid oid, const char* data, size_t size) -> Status {
        PBSM_ASSIGN_OR_RETURN(const Tuple tuple, Tuple::Parse(data, size));
        KeyedEntry keyed;
        keyed.key = curve.Key(tuple.geometry.Mbr());
        keyed.entry = RTreeEntry{tuple.geometry.Mbr(), oid.Encode()};
        return sorter.Add(keyed);
      }));
  PBSM_RETURN_IF_ERROR(sorter.Finish());
  return RStarTree::BulkLoadSorted(
      pool, index_name,
      [&sorter](RTreeEntry* out) -> Result<bool> {
        KeyedEntry keyed;
        PBSM_ASSIGN_OR_RETURN(const bool has, sorter.Next(&keyed));
        if (!has) return false;
        *out = keyed.entry;
        return true;
      },
      fill_factor);
}

Result<RStarTree> BuildIndexByInserts(BufferPool* pool,
                                      const JoinInput& input,
                                      const std::string& index_name) {
  PBSM_ASSIGN_OR_RETURN(RStarTree tree, RStarTree::Create(pool, index_name));
  PBSM_RETURN_IF_ERROR(input.heap->Scan(
      [&](Oid oid, const char* data, size_t size) -> Status {
        PBSM_ASSIGN_OR_RETURN(const Tuple tuple, Tuple::Parse(data, size));
        return tree.Insert(tuple.geometry.Mbr(), oid.Encode());
      }));
  return tree;
}

}  // namespace pbsm
