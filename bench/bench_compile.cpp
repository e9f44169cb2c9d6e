// E18 — what query compilation buys (docs/compilation.md): the same
// workload runs with the src/compile/ fast paths on and off, and the
// p50 speedups are the headline numbers.
//
//  * eval: a three-variable join (the E7 ablation query) on a random
//    vehicle-rental state, tree walker vs the register VM executing a
//    session-cached program. Answers must be identical; the compiled
//    p50 must beat the interpreted p50 by at least --min-speedup
//    (default 5x, the ISSUE acceptance bar).
//  * subset_scan: a Thm 3.1 membership-subset scan with |T| = 16
//    (2^15 masks after the forced-atom split), interpreted per-mask
//    mapping searches vs the compiled scan (one mapping enumeration plus
//    a cofactor coverage check). Verdicts must be identical.
//  * pool_series: the same Cor 3.2 shape at |T| = 8, 16, 20, 24, each
//    Contained() call timed whole and, through a ThreadSpanCapture, the
//    part spent building the pool T (MembershipCandidatePool; reads 0
//    when tracing is compiled out, OOCQ_DISABLE_TRACING). The first
//    mapping covers every mask, so the scan itself is one mapping search.
//  * signature_series: m chains of D.Next over m set attributes, where
//    Q2 asks for a switch out of every set — 3^m mapping signatures over
//    |T| = 2m pool atoms, and coverage that is real work (the shape is
//    tests/chain_queries.h, which compile_test decides too). m = 4, 8
//    (6,561 signatures) and 10 (59,049, near the scan's 65,536 cap), each
//    contained and refuted (the last chain left open). Verdicts are
//    checked, at m = 4 against the interpreted scan.
//
// Standalone binary (no google-benchmark): writes BENCH_compile.json
// with every leg's p50s (and p99s where given) and the speedups, stamped
// via BeginBenchJson.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "chain_queries.h"
#include "compile/program_cache.h"
#include "core/containment.h"
#include "parser/parser.h"
#include "state/evaluation.h"
#include "state/generator.h"
#include "support/trace.h"

namespace oocq::bench {
namespace {

// Keeps the measured calls observable without google-benchmark's
// DoNotOptimize.
volatile uint64_t benchmark_dummy_sink = 0;

uint64_t Percentile(std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(p * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

struct Sample {
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
};

/// Times `fn` (already warmed) `iters` times; returns sorted-percentile
/// latencies in microseconds.
template <typename Fn>
Sample Measure(int iters, Fn&& fn) {
  std::vector<uint64_t> us;
  us.reserve(static_cast<size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto stop = std::chrono::steady_clock::now();
    us.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(stop - start)
            .count()));
  }
  std::sort(us.begin(), us.end());
  Sample sample;
  sample.p50_us = Percentile(us, 0.50);
  sample.p99_us = Percentile(us, 0.99);
  return sample;
}

// ---- Leg 1: evaluation, tree walker vs register VM -------------------

constexpr const char* kEvalQuery =
    "{ x | exists c exists y (x in Vehicle & c in Vehicle & "
    "y in Discount & x in y.VehRented & c in y.VehRented) }";

struct EvalLeg {
  Sample interpreted;
  Sample compiled;
};

EvalLeg RunEvalLeg(int iters) {
  Schema schema = MakeVehicleRentalSchema();
  GeneratorParams params;
  params.objects_per_class = 160;
  params.null_probability = 0.2;
  params.max_set_size = 6;
  params.seed = 1234;
  State database = GenerateRandomState(schema, params);
  ConjunctiveQuery query = Must(ParseQuery(schema, kEvalQuery));

  EvalOptions interpreted;
  interpreted.enable_compilation = false;
  EvalOptions compiled;
  compiled.enable_compilation = true;
  // Steady-state shape: the server compiles once per (session, query)
  // into the session ProgramCache and executes many times.
  compile::ProgramCache cache;
  compiled.program = cache.GetOrCompile(schema, query);
  if (compiled.program == nullptr) {
    std::fprintf(stderr, "FAIL: eval query did not compile\n");
    std::exit(1);
  }

  std::vector<Oid> walker_answers = Must(Evaluate(database, query, interpreted));
  std::vector<Oid> vm_answers = Must(Evaluate(database, query, compiled));
  if (walker_answers != vm_answers) {
    std::fprintf(stderr, "FAIL: compiled answers differ (%zu vs %zu)\n",
                 vm_answers.size(), walker_answers.size());
    std::exit(1);
  }

  EvalLeg leg;
  leg.interpreted = Measure(iters, [&] {
    benchmark_dummy_sink =
        benchmark_dummy_sink +
        Must(Evaluate(database, query, interpreted)).size();
  });
  leg.compiled = Measure(iters, [&] {
    benchmark_dummy_sink =
        benchmark_dummy_sink +
        Must(Evaluate(database, query, compiled)).size();
  });
  return leg;
}

// ---- Leg 2: the Thm 3.1 subset scan, per-mask vs compiled -----------

/// Schema with k set attributes on one class, and a Q1 whose existential
/// witness u lies in all k sets while Q2 keeps a non-membership atom —
/// the shape that defeats every Cor 3.2–3.4 fast path and forces the
/// full 2^|T| membership-subset enumeration (tests/compile_test.cc).
std::string HeavySchemaText(int k) {
  std::string text = "schema Heavy {\n  class D { }\n  class C { ";
  for (int i = 0; i < k; ++i) text += "S" + std::to_string(i) + ": {D}; ";
  text += "}\n}";
  return text;
}

std::string HeavyQ1(int k) {
  std::string q1 = "{ x | exists y exists u (x in D & y in C & u in D";
  for (int i = 0; i < k; ++i) q1 += " & u in y.S" + std::to_string(i);
  q1 += " & x notin y.S0) }";
  return q1;
}

constexpr const char* kHeavyQ2 =
    "{ x | exists y (x in D & y in C & x notin y.S0) }";

struct ScanLeg {
  Sample interpreted;
  Sample compiled;
};

ScanLeg RunSubsetScanLeg(int k, int iters) {
  Schema schema = Must(ParseSchema(HeavySchemaText(k)));
  ConjunctiveQuery q1 = Must(ParseQuery(schema, HeavyQ1(k)));
  ConjunctiveQuery q2 = Must(ParseQuery(schema, kHeavyQ2));

  ContainmentOptions interpreted;
  interpreted.enable_compilation = false;
  ContainmentOptions compiled;
  compiled.enable_compilation = true;

  bool slow = Must(Contained(schema, q1, q2, interpreted));
  bool fast = Must(Contained(schema, q1, q2, compiled));
  if (slow != fast) {
    std::fprintf(stderr, "FAIL: subset-scan verdicts differ\n");
    std::exit(1);
  }

  ScanLeg leg;
  leg.interpreted = Measure(iters, [&] {
    benchmark_dummy_sink =
        benchmark_dummy_sink +
        (Must(Contained(schema, q1, q2, interpreted)) ? 1u : 0u);
  });
  leg.compiled = Measure(iters, [&] {
    benchmark_dummy_sink =
        benchmark_dummy_sink +
        (Must(Contained(schema, q1, q2, compiled)) ? 1u : 0u);
  });
  return leg;
}

// ---- Leg 3: Thm 3.1's pool, per |T| ----------------------------------

constexpr int kPoolSeries[] = {8, 16, 20, 24};

/// p50 of nanosecond samples, in microseconds.
double P50Us(std::vector<uint64_t>& ns) {
  std::sort(ns.begin(), ns.end());
  return static_cast<double>(Percentile(ns, 0.50)) / 1000.0;
}

struct PoolPoint {
  int t = 0;
  double contained_p50_us = 0;
  double pool_p50_us = 0;
};

PoolPoint RunPoolPoint(int t, int iters) {
  const int k = t + 1;  // x notin y.S0 keeps y.S0 out of the pool
  Schema schema = Must(ParseSchema(HeavySchemaText(k)));
  ConjunctiveQuery q1 = Must(ParseQuery(schema, HeavyQ1(k)));
  ConjunctiveQuery q2 = Must(ParseQuery(schema, kHeavyQ2));

  // The compiled scan must decide: one mapping enumeration covering all
  // 2^|T| masks, not a per-mask search.
  ContainmentStats stats;
  if (!Must(Contained(schema, q1, q2, {}, &stats)) ||
      stats.mapping_searches != 1 ||
      stats.membership_subsets != (uint64_t{1} << t)) {
    std::fprintf(stderr, "FAIL: |T| = %d did not run the compiled scan\n", t);
    std::exit(1);
  }

  std::vector<uint64_t> contained_ns, pool_ns;
  for (int i = 0; i < iters; ++i) {
    ThreadSpanCapture capture;
    auto start = std::chrono::steady_clock::now();
    const bool contained = Must(Contained(schema, q1, q2));
    auto stop = std::chrono::steady_clock::now();
    benchmark_dummy_sink = benchmark_dummy_sink + (contained ? 1u : 0u);
    contained_ns.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count()));
    uint64_t pool = 0;
    for (const CapturedSpan& span : capture.spans()) {
      if (span.name == "MembershipCandidatePool") pool += span.dur_ns;
    }
    pool_ns.push_back(pool);
  }
  PoolPoint point;
  point.t = t;
  point.contained_p50_us = P50Us(contained_ns);
  point.pool_p50_us = P50Us(pool_ns);
  return point;
}

// ---- Leg 4: many signatures, coverage as real work -------------------

using ::oocq::testing::ChainQ1;
using ::oocq::testing::ChainQ2;
using ::oocq::testing::ChainSchemaText;

// m = 10 keeps 59,049 signatures, near compile::kMaxMaskSignatures.
constexpr int kSignatureSeries[] = {4, 8, 10};

struct SignaturePoint {
  int m = 0;
  uint64_t signatures = 0;
  double contained_p50_us = 0;
  double refuted_p50_us = 0;
};

SignaturePoint RunSignaturePoint(int m, int iters) {
  Schema schema = Must(ParseSchema(ChainSchemaText(m)));
  ConjunctiveQuery q2 = Must(ParseQuery(schema, ChainQ2(m)));
  SignaturePoint point;
  point.m = m;
  for (bool open_last : {false, true}) {
    ConjunctiveQuery q1 = Must(ParseQuery(schema, ChainQ1(m, open_last)));
    ThreadSpanCapture capture;
    const bool contained = Must(Contained(schema, q1, q2));
    for (const CapturedSpan& span : capture.spans()) {
      for (const auto& [key, value] : span.args) {
        if (span.name == "CompiledMaskScan" && key == "signatures") {
          point.signatures = std::stoull(value);
        }
      }
    }
    bool expected = !open_last;
    if (m <= 4) {
      ContainmentOptions interpreted;
      interpreted.enable_compilation = false;
      expected = Must(Contained(schema, q1, q2, interpreted));
    }
    if (contained != expected || contained == open_last) {
      std::fprintf(stderr, "FAIL: chains m = %d (%s) decided %d\n", m,
                   open_last ? "open" : "closed", contained);
      std::exit(1);
    }
    std::vector<uint64_t> ns;
    for (int i = 0; i < iters; ++i) {
      auto start = std::chrono::steady_clock::now();
      benchmark_dummy_sink =
          benchmark_dummy_sink + (Must(Contained(schema, q1, q2)) ? 1u : 0u);
      auto stop = std::chrono::steady_clock::now();
      ns.push_back(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
              .count()));
    }
    (open_last ? point.refuted_p50_us : point.contained_p50_us) = P50Us(ns);
  }
  return point;
}

double Speedup(const Sample& interpreted, const Sample& compiled) {
  if (compiled.p50_us == 0) {
    // Sub-microsecond compiled leg: report against 1us so the ratio
    // stays finite (and conservative).
    return static_cast<double>(interpreted.p50_us);
  }
  return static_cast<double>(interpreted.p50_us) /
         static_cast<double>(compiled.p50_us);
}

}  // namespace
}  // namespace oocq::bench

int main(int argc, char** argv) {
  using namespace oocq::bench;
  double min_speedup = 5.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--min-speedup=", 14) == 0) {
      min_speedup = std::atof(argv[i] + 14);
    }
  }

  EvalLeg eval = RunEvalLeg(/*iters=*/300);
  ScanLeg scan = RunSubsetScanLeg(/*k=*/16, /*iters=*/30);

  std::vector<PoolPoint> pool_series;
  for (int t : kPoolSeries) {
    pool_series.push_back(RunPoolPoint(t, /*iters=*/30));
  }
  std::vector<SignaturePoint> signature_series;
  for (int m : kSignatureSeries) {
    // A call at m = 10 takes about half a second.
    signature_series.push_back(RunSignaturePoint(m, m < 10 ? 30 : 5));
  }

  double eval_speedup = Speedup(eval.interpreted, eval.compiled);
  double scan_speedup = Speedup(scan.interpreted, scan.compiled);

  std::FILE* out = std::fopen("BENCH_compile.json", "w");
  if (out == nullptr) {
    std::perror("BENCH_compile.json");
    return 1;
  }
  BeginBenchJson(out);
  std::fprintf(out,
               "  \"eval\": {\n"
               "    \"interpreted\": {\"p50_us\": %llu, \"p99_us\": %llu},\n"
               "    \"compiled\": {\"p50_us\": %llu, \"p99_us\": %llu},\n"
               "    \"speedup_p50\": %.2f\n  },\n",
               static_cast<unsigned long long>(eval.interpreted.p50_us),
               static_cast<unsigned long long>(eval.interpreted.p99_us),
               static_cast<unsigned long long>(eval.compiled.p50_us),
               static_cast<unsigned long long>(eval.compiled.p99_us),
               eval_speedup);
  std::fprintf(out,
               "  \"subset_scan\": {\n"
               "    \"interpreted\": {\"p50_us\": %llu, \"p99_us\": %llu},\n"
               "    \"compiled\": {\"p50_us\": %llu, \"p99_us\": %llu},\n"
               "    \"speedup_p50\": %.2f\n  },\n",
               static_cast<unsigned long long>(scan.interpreted.p50_us),
               static_cast<unsigned long long>(scan.interpreted.p99_us),
               static_cast<unsigned long long>(scan.compiled.p50_us),
               static_cast<unsigned long long>(scan.compiled.p99_us),
               scan_speedup);
  std::fprintf(out, "  \"pool_series\": {\n");
  for (size_t i = 0; i < pool_series.size(); ++i) {
    const PoolPoint& p = pool_series[i];
    std::fprintf(out,
                 "    \"T=%d\": {\"contained\": {\"p50_us\": %.1f}, "
                 "\"pool\": {\"p50_us\": %.1f}}%s\n",
                 p.t, p.contained_p50_us, p.pool_p50_us,
                 i + 1 < pool_series.size() ? "," : "");
  }
  std::fprintf(out, "  },\n  \"signature_series\": {\n");
  for (size_t i = 0; i < signature_series.size(); ++i) {
    const SignaturePoint& p = signature_series[i];
    std::fprintf(out,
                 "    \"m=%d\": {\"signatures\": %llu, "
                 "\"contained\": {\"p50_us\": %.1f}, "
                 "\"refuted\": {\"p50_us\": %.1f}}%s\n",
                 p.m, static_cast<unsigned long long>(p.signatures),
                 p.contained_p50_us, p.refuted_p50_us,
                 i + 1 < signature_series.size() ? "," : "");
  }
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);

  std::printf("eval:        interpreted p50 %llu us, compiled p50 %llu us "
              "(%.1fx)\n",
              static_cast<unsigned long long>(eval.interpreted.p50_us),
              static_cast<unsigned long long>(eval.compiled.p50_us),
              eval_speedup);
  std::printf("subset_scan: interpreted p50 %llu us, compiled p50 %llu us "
              "(%.1fx)\n",
              static_cast<unsigned long long>(scan.interpreted.p50_us),
              static_cast<unsigned long long>(scan.compiled.p50_us),
              scan_speedup);
  for (const PoolPoint& p : pool_series) {
    std::printf("pool_series: |T| = %2d  Contained p50 %8.1f us  "
                "(pool %7.1f us)\n",
                p.t, p.contained_p50_us, p.pool_p50_us);
  }
  for (const SignaturePoint& p : signature_series) {
    std::printf("signature_series: m = %d  %5llu signatures  contained "
                "p50 %8.1f us  refuted p50 %8.1f us\n",
                p.m, static_cast<unsigned long long>(p.signatures),
                p.contained_p50_us, p.refuted_p50_us);
  }
  std::printf("wrote BENCH_compile.json\n");

  if (eval_speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: eval speedup %.2fx below the %.1fx acceptance bar\n",
                 eval_speedup, min_speedup);
    return 1;
  }
  return 0;
}
