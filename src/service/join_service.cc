#include "service/join_service.h"

#include <memory>
#include <utility>

namespace pbsm {

namespace {

JoinRouterConfig SingleShardConfig(JoinServiceConfig config) {
  JoinRouterConfig out;
  out.workers_per_shard = config.num_workers;
  out.queue_capacity = config.queue_capacity;
  out.join_defaults = std::move(config.join_defaults);
  return out;
}

}  // namespace

JoinService::JoinService(BufferPool* pool, JoinServiceConfig config)
    : JoinRouter(std::make_unique<ShardManager>(pool), nullptr,
                 SingleShardConfig(std::move(config)), "service") {}

Status JoinService::RegisterDataset(const std::string& name,
                                    const HeapFile* heap,
                                    const RelationInfo& info,
                                    bool build_stats) {
  if (stopping()) return Status::FailedPrecondition("service is shut down");
  return shards().RegisterDataset(name, heap, info, build_stats);
}

}  // namespace pbsm
