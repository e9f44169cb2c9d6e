#ifndef OOCQ_COMPILE_PROGRAM_CACHE_H_
#define OOCQ_COMPILE_PROGRAM_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "compile/compiler.h"
#include "compile/program.h"
#include "query/query.h"
#include "schema/schema.h"

namespace oocq::compile {

/// Session-scoped memo of compiled programs, keyed by the printed query.
/// Sharded like the ContainmentCache; programs are immutable once
/// inserted and their addresses stay stable until Clear().
///
/// Lifecycle: the service layer owns one per session next to the
/// ContainmentCache and clears/replaces both together on every epoch
/// bump (schema/state mutation), so a cached program can never outlive
/// the schema it was compiled against. Traffic lands on the
/// `compile/cache_hits` / `compile/cache_misses` counters (STATS exposes
/// them as oocq_compile_*).
class ProgramCache {
 public:
  explicit ProgramCache(uint32_t num_shards = 8);

  ProgramCache(const ProgramCache&) = delete;
  ProgramCache& operator=(const ProgramCache&) = delete;

  /// The compiled program for `query`, compiling and memoizing on first
  /// sight. Every well-formed query compiles; nullptr (not memoized)
  /// means the query has no bindable free variable, which
  /// CheckWellFormed rejects too.
  const CompiledQuery* GetOrCompile(const Schema& schema,
                                    const ConjunctiveQuery& query);

  /// Drops every entry (epoch invalidation).
  void Clear();

  /// Programs currently resident.
  size_t size() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::unique_ptr<CompiledQuery>> programs;
  };

  Shard& ShardFor(const std::string& key);

  std::vector<Shard> shards_;
};

}  // namespace oocq::compile

#endif  // OOCQ_COMPILE_PROGRAM_CACHE_H_
