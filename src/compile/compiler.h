#ifndef OOCQ_COMPILE_COMPILER_H_
#define OOCQ_COMPILE_COMPILER_H_

#include "compile/program.h"
#include "query/query.h"
#include "schema/schema.h"
#include "support/status.h"

namespace oocq::compile {

/// Compiles a conjunctive query into a CompiledQuery whose execution
/// (vm.h) produces exactly the answers and status codes of the
/// tree-walking Evaluate(). The plan depends on (schema, query) alone:
/// tests within a level are ordered by a static per-opcode priority, so
/// two compiles of one query print the same DebugString(). Every
/// well-formed query compiles, whatever its size; the one refusal,
/// kFailedPrecondition, is a query without a bindable free variable,
/// which CheckWellFormed rejects too.
StatusOr<CompiledQuery> CompileQuery(const Schema& schema,
                                     const ConjunctiveQuery& query);

}  // namespace oocq::compile

#endif  // OOCQ_COMPILE_COMPILER_H_
