#include "compile/program_cache.h"

#include <functional>
#include <utility>

#include "query/printer.h"
#include "support/metrics.h"

namespace oocq::compile {

ProgramCache::ProgramCache(uint32_t num_shards)
    : shards_(num_shards == 0 ? 1 : num_shards) {}

ProgramCache::Shard& ProgramCache::ShardFor(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % shards_.size()];
}

const CompiledQuery* ProgramCache::GetOrCompile(const Schema& schema,
                                                const ConjunctiveQuery& query) {
  std::string key = QueryToString(schema, query);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.programs.find(key);
  if (it != shard.programs.end()) {
    OOCQ_METRIC_ADD("compile/cache_hits", 1);
    return it->second.get();
  }
  OOCQ_METRIC_ADD("compile/cache_misses", 1);
  StatusOr<CompiledQuery> compiled = CompileQuery(schema, query);
  if (!compiled.ok()) return nullptr;
  OOCQ_METRIC_ADD("compile/compiles", 1);
  return shard.programs
      .emplace(std::move(key),
               std::make_unique<CompiledQuery>(std::move(*compiled)))
      .first->second.get();
}

void ProgramCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.programs.clear();
  }
}

size_t ProgramCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.programs.size();
  }
  return total;
}

}  // namespace oocq::compile
