#ifndef OOCQ_COMPILE_VM_H_
#define OOCQ_COMPILE_VM_H_

#include <cstdint>
#include <vector>

#include "compile/program.h"
#include "state/state.h"
#include "support/cancellation.h"
#include "support/status.h"

namespace oocq::compile {

/// Guards for one execution. The defaults match EvalOptions so the
/// compiled path trips the same limits as the tree walker.
struct ExecOptions {
  /// Bindings tried before ResourceExhausted — the same unit the tree
  /// walker charges (one per candidate assigned at any depth), and the
  /// same error message, so callers see identical statuses.
  uint64_t max_bindings = 100'000'000;
  /// Polled at entry and every 4096 bindings; a tripped token surfaces
  /// the retryable kDeadlineExceeded/kUnavailable of CancellationToken.
  const CancellationToken* cancel = nullptr;
};

/// Work counters, unit-compatible with EvalStats.
struct ExecStats {
  uint64_t bindings = 0;
  uint64_t candidate_pool = 0;
};

/// Runs a compiled program against a state, producing exactly the sorted
/// deduplicated answer set — and the same status codes — as the tree
/// walker Evaluate() on the source query. Extents and owner postings come
/// from the state's own access paths (State::index()), built by the first
/// execution on that state and shared by every later one.
///
/// The program must have been compiled against the same schema the state
/// borrows (programs are state-independent but schema-specific).
StatusOr<std::vector<Oid>> ExecuteCompiled(const CompiledQuery& program,
                                           const State& state,
                                           const ExecOptions& options = {},
                                           ExecStats* stats = nullptr);

}  // namespace oocq::compile

#endif  // OOCQ_COMPILE_VM_H_
