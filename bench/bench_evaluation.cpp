// E7 — the paper's motivating claim (§1): the minimized query logically
// accesses a minimal set of objects. We evaluate the original
// Vehicle/Discount query (Ex 1.1) and its minimized Auto form on random
// states of growing size and report both wall time and the evaluator's
// work counters (candidate pool = static search space, assignments tried
// = dynamic search work).
//
// Series reproduced:
//  * Evaluation/Original/N vs Evaluation/Minimized/N: time and
//    search-space counters vs objects-per-class N. The shape to
//    reproduce: the minimized query's candidate pool is smaller by the
//    ratio of the pruned terminal classes (here: Vehicle's 3 terminals +
//    both client classes vs Auto + Discount), with matching answers.
//  * Evaluation/PartitionOriginal vs PartitionMinimized: the same for
//    Example 1.2's query.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "compile/program_cache.h"
#include "core/minimization.h"
#include "parser/parser.h"
#include "state/evaluation.h"
#include "state/generator.h"

namespace oocq {
namespace {

GeneratorParams MakeParams(int n) {
  GeneratorParams params;
  params.objects_per_class = static_cast<uint32_t>(n);
  params.null_probability = 0.2;
  params.max_set_size = 6;
  params.seed = 1234;
  return params;
}

void RunEvaluation(benchmark::State& state, const State& database,
                   const UnionQuery& query) {
  EvalStats stats;
  size_t answers = 0;
  for (auto _ : state) {
    stats = EvalStats();
    std::vector<Oid> result =
        bench::Must(EvaluateUnion(database, query, {}, &stats));
    answers = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["candidate_pool"] = static_cast<double>(stats.candidate_pool);
  state.counters["assignments"] =
      static_cast<double>(stats.assignments_tried);
}

void BM_EvaluationVehicleOriginal(benchmark::State& state) {
  Schema schema = bench::MakeVehicleRentalSchema();
  State database = GenerateRandomState(schema, MakeParams(state.range(0)));
  UnionQuery query;
  query.disjuncts.push_back(bench::Must(ParseQuery(
      schema,
      "{ x | exists y (x in Vehicle & y in Discount & x in y.VehRented) }")));
  RunEvaluation(state, database, query);
}
BENCHMARK(BM_EvaluationVehicleOriginal)
    ->Arg(10)->Arg(40)->Arg(160)->Arg(640);

void BM_EvaluationVehicleMinimized(benchmark::State& state) {
  Schema schema = bench::MakeVehicleRentalSchema();
  State database = GenerateRandomState(schema, MakeParams(state.range(0)));
  ConjunctiveQuery original = bench::Must(ParseQuery(
      schema,
      "{ x | exists y (x in Vehicle & y in Discount & x in y.VehRented) }"));
  MinimizationReport report =
      bench::Must(MinimizePositiveQuery(schema, original));
  RunEvaluation(state, database, report.minimized);
}
BENCHMARK(BM_EvaluationVehicleMinimized)
    ->Arg(10)->Arg(40)->Arg(160)->Arg(640);

void BM_EvaluationPartitionOriginal(benchmark::State& state) {
  Schema schema = bench::Must(ParseSchema(R"(
schema Partition {
  class G { }
  class H under G { }
  class I under G { }
  class N1 { A: {G}; }
  class T1 under N1 { }
  class T2 under N1 { B: G; }
  class T3 under N1 { B: G; A: {I}; }
})"));
  State database = GenerateRandomState(schema, MakeParams(state.range(0)));
  UnionQuery query;
  query.disjuncts.push_back(bench::Must(ParseQuery(
      schema,
      "{ x | exists y exists s (x in N1 & y in G & s in H & y = x.B & "
      "y in x.A & s in x.A) }")));
  RunEvaluation(state, database, query);
}
BENCHMARK(BM_EvaluationPartitionOriginal)->Arg(10)->Arg(40)->Arg(160);

void BM_EvaluationPartitionMinimized(benchmark::State& state) {
  Schema schema = bench::Must(ParseSchema(R"(
schema Partition {
  class G { }
  class H under G { }
  class I under G { }
  class N1 { A: {G}; }
  class T1 under N1 { }
  class T2 under N1 { B: G; }
  class T3 under N1 { B: G; A: {I}; }
})"));
  State database = GenerateRandomState(schema, MakeParams(state.range(0)));
  ConjunctiveQuery original = bench::Must(ParseQuery(
      schema,
      "{ x | exists y exists s (x in N1 & y in G & s in H & y = x.B & "
      "y in x.A & s in x.A) }"));
  MinimizationReport report =
      bench::Must(MinimizePositiveQuery(schema, original));
  RunEvaluation(state, database, report.minimized);
}
BENCHMARK(BM_EvaluationPartitionMinimized)->Arg(10)->Arg(40)->Arg(160);

// Ablation: the greedy join order (bind small extents first) vs
// declaration order, on a query whose selective variable is declared
// last. Answers identical; assignments differ sharply.
void BM_EvaluationJoinOrder(benchmark::State& state) {
  const bool reorder = state.range(1) != 0;
  Schema schema = bench::MakeVehicleRentalSchema();
  State database = GenerateRandomState(schema, MakeParams(state.range(0)));
  ConjunctiveQuery query = bench::Must(ParseQuery(
      schema,
      "{ x | exists c exists y (x in Vehicle & c in Vehicle & "
      "y in Discount & x in y.VehRented & c in y.VehRented) }"));
  EvalOptions options;
  options.reorder_variables = reorder;
  EvalStats stats;
  size_t answers = 0;
  for (auto _ : state) {
    stats = EvalStats();
    std::vector<Oid> result =
        bench::Must(Evaluate(database, query, options, &stats));
    answers = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["assignments"] =
      static_cast<double>(stats.assignments_tried);
}
BENCHMARK(BM_EvaluationJoinOrder)
    ->ArgNames({"n", "reorder"})
    ->Args({40, 0})
    ->Args({40, 1})
    ->Args({160, 0})
    ->Args({160, 1});

// Compilation ablation (docs/compilation.md): the tree walker vs the
// register bytecode VM executing a session-cached program, on the same
// three-variable join as the join-order ablation. Answers identical;
// the VM pre-resolves every attribute to a slot index and hoists the
// loads, so the per-binding cost collapses.
void BM_EvaluationCompiledVsWalker(benchmark::State& state) {
  const bool compiled = state.range(1) != 0;
  Schema schema = bench::MakeVehicleRentalSchema();
  State database = GenerateRandomState(schema, MakeParams(state.range(0)));
  ConjunctiveQuery query = bench::Must(ParseQuery(
      schema,
      "{ x | exists c exists y (x in Vehicle & c in Vehicle & "
      "y in Discount & x in y.VehRented & c in y.VehRented) }"));
  compile::ProgramCache cache;
  EvalOptions options;
  options.enable_compilation = compiled;
  if (compiled) {
    options.program = cache.GetOrCompile(schema, query);
    if (options.program == nullptr) state.SkipWithError("did not compile");
  }
  size_t answers = 0;
  for (auto _ : state) {
    std::vector<Oid> result = bench::Must(Evaluate(database, query, options));
    answers = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_EvaluationCompiledVsWalker)
    ->ArgNames({"n", "compiled"})
    ->Args({40, 0})
    ->Args({40, 1})
    ->Args({160, 0})
    ->Args({160, 1})
    ->Args({640, 0})
    ->Args({640, 1});

// Reverse access paths (docs/compilation.md): the tree walker vs the VM
// on the reverse joins of the wire benchmark's eval_join workload, where
// the free variable binds before the vehicle that owns it. The walker
// tries every (client, vehicle) pair; the VM probes the state's Owner
// postings once per client. Answers identical. The walker is left out at
// n=640, where it takes seconds per iteration.
void BM_EvaluationReverseJoin(benchmark::State& state) {
  const bool compiled = state.range(2) != 0;
  Schema schema = bench::Must(ParseSchema(R"(
schema Fleet {
  class Vehicle { VehId: String; Owner: Client; }
  class Auto    under Vehicle { Doors: Int; }
  class Truck   under Vehicle { Payload: Real; }
  class Client  { Name: String; Rented: {Vehicle}; }
  class Regular under Client { }
  class Premium under Client { Rate: Real; }
})"));
  State database = GenerateRandomState(schema, MakeParams(state.range(0)));
  const char* const shapes[] = {
      "{ c | exists v (c in Client & v in Vehicle & c = v.Owner) }",
      "{ c | exists v exists w (c in Client & v in Vehicle & "
      "w in Vehicle & c = v.Owner & w in c.Rented) }",
  };
  ConjunctiveQuery query =
      bench::Must(ParseQuery(schema, shapes[state.range(1)]));
  compile::ProgramCache cache;
  EvalOptions options;
  options.enable_compilation = compiled;
  if (compiled) {
    options.program = cache.GetOrCompile(schema, query);
    if (options.program == nullptr) state.SkipWithError("did not compile");
  }
  size_t answers = 0;
  for (auto _ : state) {
    std::vector<Oid> result = bench::Must(Evaluate(database, query, options));
    answers = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_EvaluationReverseJoin)
    ->ArgNames({"n", "shape", "compiled"})
    ->Args({40, 0, 0})
    ->Args({40, 0, 1})
    ->Args({40, 1, 0})
    ->Args({40, 1, 1})
    ->Args({160, 0, 0})
    ->Args({160, 0, 1})
    ->Args({160, 1, 0})
    ->Args({160, 1, 1})
    ->Args({640, 0, 1})
    ->Args({640, 1, 1});

}  // namespace
}  // namespace oocq

BENCHMARK_MAIN();
