#include "service/index_cache.h"

#include <functional>
#include <utility>

#include "common/logging.h"
#include "common/trace.h"
#include "core/index_build.h"

namespace pbsm {

IndexCache::IndexCache(BufferPool* pool, Config config)
    : pool_(pool),
      config_(config),
      per_shard_capacity_(std::max<size_t>(
          1, (std::max<size_t>(config.capacity, 1) +
              std::max<uint32_t>(config.num_shards, 1) - 1) /
                 std::max<uint32_t>(config.num_shards, 1))) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  hits_ = metrics.GetCounter("service.cache.hits");
  misses_ = metrics.GetCounter("service.cache.misses");
  evictions_ = metrics.GetCounter("service.cache.evictions");
  invalidations_ = metrics.GetCounter("service.cache.invalidations");
  shards_.reserve(std::max<uint32_t>(config.num_shards, 1));
  for (uint32_t i = 0; i < std::max<uint32_t>(config.num_shards, 1); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  drop_listener_token_ =
      pool_->AddDropListener([this](FileId file) { InvalidateFile(file); });
}

IndexCache::~IndexCache() {
  pool_->RemoveDropListener(drop_listener_token_);
  Clear();
}

std::string IndexCache::Key(const JoinInput& input, double fill_factor) {
  // The fill factor participates because trees packed differently are
  // different indexes; rounded to 1e-3 so float noise cannot fragment keys.
  return input.info.name + "#" + std::to_string(input.info.file) + "@" +
         std::to_string(static_cast<int>(fill_factor * 1000.0));
}

IndexCache::Shard& IndexCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

const IndexCache::Shard& IndexCache::ShardFor(const std::string& key) const {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

void IndexCache::EraseLru(Shard* shard, const std::string& key) {
  for (auto it = shard->lru.begin(); it != shard->lru.end(); ++it) {
    if (*it == key) {
      shard->lru.erase(it);
      return;
    }
  }
}

void IndexCache::EvictOverCapacityLocked(Shard* shard,
                                         std::vector<EntryRef>* out) {
  while (shard->lru.size() > per_shard_capacity_) {
    const std::string victim = shard->lru.back();
    shard->lru.pop_back();
    auto it = shard->entries.find(victim);
    if (it != shard->entries.end()) {
      out->push_back(std::move(it->second));
      shard->entries.erase(it);
      evictions_->Add();
    }
  }
}

IndexCache::TreeRef IndexCache::WrapTree(RStarTree&& tree) {
  // The deleter drops the index file once the last query releases the
  // tree. DropFile can only fail here if pages are still pinned — which
  // cannot happen after the last probe finished — or if the pool is being
  // fault-injected at shutdown; neither is actionable, hence the void cast.
  auto* owned = new RStarTree(std::move(tree));
  BufferPool* pool = pool_;
  return TreeRef(owned, [pool](const RStarTree* t) {
    const FileId file = t->file();
    delete t;
    (void)pool->DropFile(file);
  });
}

Result<IndexCache::TreeRef> IndexCache::GetOrBuild(const JoinInput& input,
                                                   double fill_factor) {
  const std::string key = Key(input, fill_factor);
  Shard& shard = ShardFor(key);

  EntryRef to_build;
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    while (true) {
      auto it = shard.entries.find(key);
      if (it == shard.entries.end()) break;  // Miss: build below.
      EntryRef entry = it->second;
      if (entry->state == Entry::State::kBuilding) {
        // Park until the builder finishes, then re-probe: the entry may
        // have become ready, failed (retry by building), or been
        // invalidated meanwhile.
        shard.build_cv.wait(lock);
        continue;
      }
      PBSM_CHECK(entry->state == Entry::State::kReady);
      EraseLru(&shard, key);
      shard.lru.push_front(key);
      hits_->Add();
      return entry->tree;
    }

    to_build = std::make_shared<Entry>();
    to_build->key = key;
    to_build->dataset_file = input.info.file;
    to_build->dataset_name = input.info.name;
    shard.entries[key] = to_build;
    misses_->Add();
  }

  // Bulk load outside every lock; unique file name per build so a rebuild
  // after invalidation never collides with a still-referenced old tree.
  TraceSpan span("service/index_build");
  const uint64_t build_id =
      next_build_id_.fetch_add(1, std::memory_order_relaxed);
  Result<RStarTree> built = BuildIndexByBulkLoad(
      pool_, input,
      "svc_idx_" + input.info.name + "_" + std::to_string(build_id) +
          ".rtree",
      fill_factor);

  std::vector<EntryRef> doomed;  // Destroyed after unlocking.
  Result<TreeRef> result = Status::Internal("unreachable");
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    if (!built.ok()) {
      to_build->state = Entry::State::kFailed;
      to_build->error = built.status();
      // Remove so the next request retries; waiters see kFailed via their
      // own entry ref? No — they re-probe the map, find nothing, rebuild.
      auto it = shard.entries.find(key);
      if (it != shard.entries.end() && it->second == to_build) {
        shard.entries.erase(it);
      }
      result = built.status();
    } else {
      to_build->state = Entry::State::kReady;
      to_build->tree = WrapTree(std::move(built).value());
      auto it = shard.entries.find(key);
      if (it != shard.entries.end() && it->second == to_build) {
        // Still current: publish in LRU order and evict over capacity.
        shard.lru.push_front(key);
        EvictOverCapacityLocked(&shard, &doomed);
      }
      // Invalidated mid-build: the tree is still returned to this caller
      // (it is correct for the files it was built from at the time), it
      // just is not cached.
      result = to_build->tree;
    }
    shard.build_cv.notify_all();
  }
  return result;
}

bool IndexCache::Contains(const JoinInput& input, double fill_factor) const {
  const std::string key = Key(input, fill_factor);
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  return it != shard.entries.end() &&
         it->second->state == Entry::State::kReady;
}

void IndexCache::InvalidateFile(FileId file) {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::vector<EntryRef> doomed;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (auto it = shard.entries.begin(); it != shard.entries.end();) {
        if (it->second->dataset_file == file &&
            it->second->state != Entry::State::kBuilding) {
          EraseLru(&shard, it->first);
          doomed.push_back(std::move(it->second));
          it = shard.entries.erase(it);
          invalidations_->Add();
        } else {
          ++it;
        }
      }
    }
    // Trees die here, outside the shard mutex: their deleters re-enter the
    // pool (DropFile), which re-enters this listener for the *index* file —
    // a no-op, but it must not find the mutex held.
  }
}

void IndexCache::InvalidateDataset(const std::string& name) {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::vector<EntryRef> doomed;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (auto it = shard.entries.begin(); it != shard.entries.end();) {
        if (it->second->dataset_name == name &&
            it->second->state != Entry::State::kBuilding) {
          EraseLru(&shard, it->first);
          doomed.push_back(std::move(it->second));
          it = shard.entries.erase(it);
          invalidations_->Add();
        } else {
          ++it;
        }
      }
    }
  }
}

void IndexCache::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::vector<EntryRef> doomed;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (auto it = shard.entries.begin(); it != shard.entries.end();) {
        if (it->second->state != Entry::State::kBuilding) {
          EraseLru(&shard, it->first);
          doomed.push_back(std::move(it->second));
          it = shard.entries.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
}

size_t IndexCache::size() const {
  size_t n = 0;
  for (const auto& shard_ptr : shards_) {
    std::lock_guard<std::mutex> lock(shard_ptr->mutex);
    n += shard_ptr->lru.size();
  }
  return n;
}

}  // namespace pbsm
