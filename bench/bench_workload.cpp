// E8 — optimizer-in-the-loop throughput: batches of randomized queries
// pushed through the public pipeline, the workload shape a query
// optimizer integrating this library would see.
//
// Series reproduced:
//  * Workload/Minimize: full MinimizePositiveQuery throughput over random
//    positive queries (queries/second scale).
//  * Workload/ContainmentMatrix/k: all-pairs containment over a batch of
//    k random terminal queries (view-selection style usage).
//  * Workload/Satisfiability: satisfiability screening throughput.
//  * CanonicalKey: p50 time per key (the ContainmentCache key every
//    decision computes for each disjunct it touches) on three sets —
//    server-style positive disjuncts, the same shapes with a constant on
//    the free variable, and k interchangeable bound variables.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <set>

#include "bench_util.h"
#include "core/canonical.h"
#include "core/containment.h"
#include "core/containment_cache.h"
#include "core/expansion.h"
#include "core/minimization.h"
#include "core/satisfiability.h"
#include "query/well_formed.h"
#include "support/cancellation.h"
#include "../tests/random_query.h"

namespace oocq {
namespace {

const char* const kWorkloadSchema = R"(
schema Workload {
  class D { }
  class E under D { }
  class F under D { }
  class G under D { }
  class C { A: D; B: E; S: {D}; T: {E}; }
  class C1 under C { }
  class C2 under C { }
})";

std::vector<ConjunctiveQuery> MakeBatch(const Schema& schema, size_t count,
                                        bool terminal_only, bool negative,
                                        uint64_t seed) {
  std::mt19937_64 rng(seed);
  testing::RandomQueryParams params;
  params.terminal_only = terminal_only;
  params.allow_negative = negative;
  params.max_vars = 4;
  params.max_extra_atoms = 4;
  std::vector<ConjunctiveQuery> batch;
  while (batch.size() < count) {
    ConjunctiveQuery query = testing::GenerateRandomQuery(schema, rng, params);
    if (!CheckWellFormed(schema, query).ok()) continue;
    batch.push_back(std::move(query));
  }
  return batch;
}

void BM_WorkloadMinimize(benchmark::State& state) {
  Schema schema = bench::Must(ParseSchema(kWorkloadSchema));
  std::vector<ConjunctiveQuery> batch =
      MakeBatch(schema, 32, /*terminal_only=*/false, /*negative=*/false, 7);
  size_t disjuncts = 0;
  for (auto _ : state) {
    disjuncts = 0;
    for (const ConjunctiveQuery& query : batch) {
      StatusOr<MinimizationReport> report =
          MinimizePositiveQuery(schema, query);
      if (report.ok()) disjuncts += report->minimized.disjuncts.size();
    }
    benchmark::DoNotOptimize(disjuncts);
  }
  state.counters["queries"] = static_cast<double>(batch.size());
  state.counters["out_disjuncts"] = static_cast<double>(disjuncts);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_WorkloadMinimize);

void BM_WorkloadContainmentMatrix(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Schema schema = bench::Must(ParseSchema(kWorkloadSchema));
  std::vector<ConjunctiveQuery> batch =
      MakeBatch(schema, k, /*terminal_only=*/true, /*negative=*/true, 11);
  uint64_t contained = 0;
  uint64_t decided = 0;
  for (auto _ : state) {
    contained = decided = 0;
    for (const ConjunctiveQuery& a : batch) {
      for (const ConjunctiveQuery& b : batch) {
        StatusOr<bool> result = Contained(schema, a, b);
        if (result.ok()) {
          ++decided;
          if (*result) ++contained;
        }
      }
    }
    benchmark::DoNotOptimize(contained);
  }
  state.counters["decided"] = static_cast<double>(decided);
  state.counters["contained"] = static_cast<double>(contained);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(k * k));
}
BENCHMARK(BM_WorkloadContainmentMatrix)->Arg(8)->Arg(16)->Arg(32);

// The canonical-key cache on a matrix with renamed duplicates (each query
// appears under three different variable namings — the view-catalog
// shape). Negative atoms make the underlying decisions expensive enough
// to amortize canonicalization; on cheap positive batches the cache
// overhead dominates (measured by flipping MakeBatch's `negative`).
void BM_WorkloadContainmentMatrixCached(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  Schema schema = bench::Must(ParseSchema(kWorkloadSchema));
  std::vector<ConjunctiveQuery> base =
      MakeBatch(schema, 8, /*terminal_only=*/true, /*negative=*/true, 17);
  std::vector<ConjunctiveQuery> batch;
  for (const ConjunctiveQuery& q : base) {
    batch.push_back(q);
    for (int copy = 0; copy < 2; ++copy) {
      ConjunctiveQuery renamed;
      for (VarId v = 0; v < q.num_vars(); ++v) {
        renamed.AddVariable("r" + std::to_string(copy) + "_" +
                            std::to_string(v));
      }
      renamed.set_free_var(q.free_var());
      for (const Atom& atom : q.atoms()) renamed.AddAtom(atom);
      batch.push_back(std::move(renamed));
    }
  }
  uint64_t contained = 0;
  uint64_t hits = 0;
  for (auto _ : state) {
    contained = 0;
    ContainmentCache cache(&schema);
    for (const ConjunctiveQuery& a : batch) {
      for (const ConjunctiveQuery& b : batch) {
        StatusOr<bool> result = cached ? cache.Contained(a, b)
                                       : Contained(schema, a, b);
        if (result.ok() && *result) ++contained;
      }
    }
    hits = cache.hits();
    benchmark::DoNotOptimize(contained);
  }
  state.counters["contained"] = static_cast<double>(contained);
  state.counters["cache_hits"] = static_cast<double>(hits);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size() * batch.size()));
}
BENCHMARK(BM_WorkloadContainmentMatrixCached)
    ->ArgNames({"cached"})
    ->Arg(0)
    ->Arg(1);

// Cancellation overhead and teardown: every minimization carries a live
// (never-tripped) deadline token, the request-with-deadline shape the
// server puts on this exact pipeline. Verdict parity with the token-free
// BM_WorkloadMinimize run is asserted every iteration — a token that is
// polled but never trips must not change results or leak state.
void BM_WorkloadMinimizeCancelled(benchmark::State& state) {
  Schema schema = bench::Must(ParseSchema(kWorkloadSchema));
  std::vector<ConjunctiveQuery> batch =
      MakeBatch(schema, 32, /*terminal_only=*/false, /*negative=*/false, 7);
  size_t baseline_disjuncts = 0;
  for (const ConjunctiveQuery& query : batch) {
    StatusOr<MinimizationReport> report = MinimizePositiveQuery(schema, query);
    if (report.ok()) baseline_disjuncts += report->minimized.disjuncts.size();
  }
  size_t disjuncts = 0;
  for (auto _ : state) {
    disjuncts = 0;
    CancellationToken token = CancellationToken::AfterMillis(60'000);
    MinimizationOptions options;
    options.containment.cancel = &token;
    for (const ConjunctiveQuery& query : batch) {
      StatusOr<MinimizationReport> report =
          MinimizePositiveQuery(schema, query, options);
      if (report.ok()) disjuncts += report->minimized.disjuncts.size();
    }
    if (disjuncts != baseline_disjuncts) {
      state.SkipWithError("cancelled-token run diverged from baseline");
      break;
    }
    benchmark::DoNotOptimize(disjuncts);
  }
  state.counters["queries"] = static_cast<double>(batch.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_WorkloadMinimizeCancelled);

void BM_WorkloadSatisfiability(benchmark::State& state) {
  Schema schema = bench::Must(ParseSchema(kWorkloadSchema));
  std::vector<ConjunctiveQuery> batch =
      MakeBatch(schema, 64, /*terminal_only=*/true, /*negative=*/true, 13);
  uint64_t satisfiable = 0;
  for (auto _ : state) {
    satisfiable = 0;
    for (const ConjunctiveQuery& query : batch) {
      if (CheckSatisfiable(schema, query).satisfiable) ++satisfiable;
    }
    benchmark::DoNotOptimize(satisfiable);
  }
  state.counters["satisfiable"] = static_cast<double>(satisfiable);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_WorkloadSatisfiability);

const char* const kFleetSchema = R"(
schema Fleet {
  class Vehicle { VehId: String; Owner: Client; }
  class Auto    under Vehicle { Doors: Int; }
  class Truck   under Vehicle { Payload: Real; }
  class Van     under Vehicle { Seats: Int; }
  class Client  { Name: String; Rented: {Vehicle}; Fav: Vehicle; }
  class Regular under Client { }
  class Premium under Client { Rate: Real; }
  class Depot   { Manager: Client; Stock: {Vehicle}; }
})";

/// The positive query shapes a catalog server decides pairs of (free
/// variable x over vehicles, or y over clients), over every class choice;
/// `tagged` adds a distinct constant on the free variable's string
/// attribute, as inline queries that each miss the cache carry.
std::vector<std::string> FleetQueryTexts(bool tagged) {
  const std::vector<std::string> vehicles = {"Vehicle", "Auto", "Truck", "Van"};
  const std::vector<std::string> clients = {"Client", "Regular", "Premium"};
  std::vector<std::string> texts;
  for (int shape = 0; shape < 6; ++shape) {
    for (const std::string& v : vehicles) {
      for (const std::string& c : clients) {
        const std::string vx = "x in " + v;
        const std::string cy = "y in " + c;
        std::string body;
        switch (shape) {
          case 0:
            body = "{ x | exists y (" + vx + " & " + cy + " & x in y.Rented";
            break;
          case 1:
            body = "{ x | exists y (" + vx + " & " + cy + " & x.Owner = y";
            break;
          case 2:
            body = "{ x | exists y (" + vx + " & " + cy + " & y.Fav = x";
            break;
          case 3:
            body = "{ x | exists y exists d (" + vx + " & " + cy +
                   " & d in Depot & x in y.Rented & x in d.Stock";
            break;
          case 4:
            body = "{ x | exists y exists w (" + vx + " & " + cy +
                   " & w in Vehicle & x in y.Rented & w in y.Rented & "
                   "w.Owner = y";
            break;
          default:
            body = "{ y | exists x (" + cy + " & " + vx +
                   " & x in y.Rented & y.Fav = x";
            break;
        }
        if (tagged) {
          const std::string tag = "t" + std::to_string(texts.size());
          body += shape == 5 ? " & y.Name = \"" + tag + "\""
                             : " & x.VehId = \"" + tag + "\"";
        }
        texts.push_back(body + ") }");
      }
    }
  }
  return texts;
}

/// The distinct terminal disjuncts (Prop 2.1) of `texts`.
std::vector<ConjunctiveQuery> ExpandedDisjuncts(
    const Schema& schema, const std::vector<std::string>& texts) {
  std::vector<ConjunctiveQuery> disjuncts;
  std::set<std::string> seen;
  for (const std::string& text : texts) {
    ConjunctiveQuery query = bench::Must(ParseQuery(schema, text));
    for (const PrunedDisjunct& disjunct :
         bench::Must(NormalizeAndExpand(schema, query)).pruned) {
      if (seen.insert(CanonicalKey(disjunct.query())).second) {
        disjuncts.push_back(disjunct.query());
      }
    }
  }
  return disjuncts;
}

/// { x | exists y0 ... (x in C & y0 in D & y0 in x.S & ...) }: k bound
/// variables nothing tells apart.
ConjunctiveQuery SymmetricQuery(const Schema& schema, int k) {
  std::string text = "{ x |";
  for (int i = 0; i < k; ++i) text += " exists y" + std::to_string(i);
  text += " (x in C";
  for (int i = 0; i < k; ++i) {
    const std::string y = "y" + std::to_string(i);
    text += " & " + y + " in D & " + y + " in x.S";
  }
  return bench::Must(ParseQuery(schema, text + ") }"));
}

/// Times CanonicalKey on each query of `set` once per iteration and
/// reports that pass's median as the iteration time, so real_time reads
/// as p50 per key.
void RunCanonicalKeys(benchmark::State& state,
                      const std::vector<ConjunctiveQuery>& set) {
  std::vector<double> seconds(set.size());
  for (auto _ : state) {
    for (size_t i = 0; i < set.size(); ++i) {
      const auto start = std::chrono::steady_clock::now();
      std::string key = CanonicalKey(set[i]);
      const auto stop = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(key);
      seconds[i] = std::chrono::duration<double>(stop - start).count();
    }
    std::nth_element(seconds.begin(), seconds.begin() + seconds.size() / 2,
                     seconds.end());
    state.SetIterationTime(seconds[seconds.size() / 2]);
  }
  state.counters["keys"] = static_cast<double>(set.size());
}

void BM_CanonicalKey(benchmark::State& state, bool tagged) {
  Schema schema = bench::Must(ParseSchema(kFleetSchema));
  RunCanonicalKeys(state, ExpandedDisjuncts(schema, FleetQueryTexts(tagged)));
}
// Iterations are fixed: with manual time, google-benchmark would size the
// run by the p50 alone, not by the whole pass.
BENCHMARK_CAPTURE(BM_CanonicalKey, positive, false)
    ->UseManualTime()
    ->Iterations(300);
BENCHMARK_CAPTURE(BM_CanonicalKey, constant_on_free, true)
    ->UseManualTime()
    ->Iterations(300);

void BM_CanonicalKeySymmetric(benchmark::State& state) {
  Schema schema = bench::Must(ParseSchema(kWorkloadSchema));
  RunCanonicalKeys(state, {SymmetricQuery(schema, static_cast<int>(state.range(0)))});
}
BENCHMARK(BM_CanonicalKeySymmetric)
    ->ArgNames({"k"})
    ->DenseRange(3, 7)
    ->UseManualTime()
    ->Iterations(300);

}  // namespace
}  // namespace oocq

BENCHMARK_MAIN();
