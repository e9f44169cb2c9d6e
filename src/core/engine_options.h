#ifndef OOCQ_CORE_ENGINE_OPTIONS_H_
#define OOCQ_CORE_ENGINE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "core/containment.h"
#include "core/expansion.h"
#include "support/resource_budget.h"

namespace oocq {

class TraceLog;

/// Observability sinks for a pipeline run. Both default off so an
/// unconfigured run is byte-identical to the pre-observability engine
/// (and pays one relaxed atomic load per instrumentation site).
struct ObservabilityOptions {
  /// When non-null, the pipeline entry points (Optimize, IsContained,
  /// IsEquivalent) install a TraceSession around the run and spans from
  /// every layer land here. Finalized when the entry point returns.
  /// One session is active at a time process-wide (first wins).
  TraceLog* trace = nullptr;
  /// Collect named counters/histograms into OptimizeReport::metrics and
  /// render the per-phase table in Summary(). Implied by `trace`.
  bool metrics = false;
};

/// Sizing knobs for the shared containment memo table the optimizer
/// pipeline threads through its phases (core/containment_cache.h).
struct CacheOptions {
  /// Memoize Contained() decisions across the pipeline. Disabling falls
  /// back to recomputing every pair.
  bool enabled = true;
  /// Total entry cap across all shards (0 = unlimited). When a shard is
  /// full its oldest entry is evicted first.
  size_t max_entries = 1 << 20;
  /// Number of independently locked shards; contention drops roughly
  /// linearly in this. Values < 1 are treated as 1.
  uint32_t num_shards = 16;
};

/// Ignored: every request runs on the thread that called it. Kept only
/// so existing callers that set `num_threads` still build.
struct ParallelOptions {
  uint32_t num_threads = 1;
};

/// The unified option set for the engine: one struct configures the whole
/// §3/§4 pipeline — containment limits, Prop 2.1 expansion caps and the
/// shared containment cache. `MinimizationOptions` (core/minimization.h)
/// is an alias, so existing call sites compile unchanged; new code should
/// say EngineOptions.
struct EngineOptions {
  ContainmentOptions containment;
  ExpansionOptions expansion;
  /// Ignored, like ParallelOptions itself.
  ParallelOptions parallel;
  CacheOptions cache;
  ObservabilityOptions observability;
  /// Master switch for the query-compilation subsystem (src/compile/):
  /// the bytecode VM fast path in Evaluate/EvaluateUnion and the
  /// compiled Thm 3.1 subset scan. Propagated into
  /// containment.enable_compilation by WithPropagatedParallelism, and
  /// into EvalOptions by the service layer. `--no-compile` on the CLIs
  /// maps here for A/B runs; results are identical either way.
  bool enable_compilation = true;
  /// Per-run resource ceilings (support/resource_budget.h). When any limit
  /// is set, each pipeline entry point (Optimize, IsContained,
  /// IsEquivalent) installs a run-scoped ResourceBudget into
  /// containment.budget / expansion.budget, chained under any budget the
  /// caller already placed there (e.g. a service-wide one) — so both the
  /// per-run cap and the aggregate cap are enforced, and overruns surface
  /// as retryable kResourceExhausted.
  ResourceLimits limits;
};

/// Returns `options` with `enable_compilation` propagated into the
/// containment sub-struct — what the pipeline entry points apply on entry.
/// The name is historical; it is kept so existing callers still build.
inline EngineOptions WithPropagatedParallelism(EngineOptions options) {
  options.containment.enable_compilation = options.enable_compilation;
  return options;
}

}  // namespace oocq

#endif  // OOCQ_CORE_ENGINE_OPTIONS_H_
