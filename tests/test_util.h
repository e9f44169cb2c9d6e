#ifndef OOCQ_TESTS_TEST_UTIL_H_
#define OOCQ_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>

#include "parser/parser.h"
#include "query/query.h"
#include "schema/schema.h"
#include "schema/schema_builder.h"
#include "server/service.h"
#include "support/status.h"

namespace oocq::testing {

/// gtest helpers for Status / StatusOr.
#define OOCQ_ASSERT_OK(expr)                                \
  do {                                                      \
    const auto& oocq_assert_status_ = (expr);               \
    ASSERT_TRUE(oocq_assert_status_.ok())                   \
        << oocq_assert_status_.ToString();                  \
  } while (false)

#define OOCQ_EXPECT_OK(expr)                                \
  do {                                                      \
    const auto& oocq_expect_status_ = (expr);               \
    EXPECT_TRUE(oocq_expect_status_.ok())                   \
        << oocq_expect_status_.ToString();                  \
  } while (false)

/// Parses a schema, aborting the test on error.
inline Schema MustParseSchema(std::string_view text) {
  StatusOr<Schema> schema = ParseSchema(text);
  if (!schema.ok()) {
    ADD_FAILURE() << "schema parse failed: " << schema.status().ToString();
    return Schema(SchemaBuilder().Build().value());
  }
  return *std::move(schema);
}

/// Parses a query, aborting the test on error.
inline ConjunctiveQuery MustParseQuery(const Schema& schema,
                                       std::string_view text) {
  StatusOr<ConjunctiveQuery> query = ParseQuery(schema, text);
  EXPECT_TRUE(query.ok()) << "query parse failed: "
                          << query.status().ToString() << "\n  " << text;
  return query.ok() ? *std::move(query) : ConjunctiveQuery();
}

/// The vehicle rental schema of Example 1.1 / 2.1. Discount clients may
/// only rent automobiles: Discount refines VehRented to {Auto}.
inline const char* kVehicleRentalSchema = R"(
schema VehicleRental {
  class Vehicle { VehId: String; Weight: Real; }
  class Auto under Vehicle { Doors: Int; }
  class Trailer under Vehicle { Axles: Int; }
  class Truck under Vehicle { Payload: Real; }
  class Client { Name: String; VehRented: {Vehicle}; Deposit: Real; }
  class Regular under Client { }
  class Discount under Client { Rate: Real; VehRented: {Auto}; }
}
)";

/// The partitioned schema of Example 1.2 / 4.1: T1 lacks attribute B; T3
/// refines A to {I}, which makes 's in x.A' with s in H unsatisfiable.
inline const char* kPartitionSchema = R"(
schema Partition {
  class G { }
  class H under G { }
  class I under G { }
  class N1 { A: {G}; }
  class T1 under N1 { }
  class T2 under N1 { B: G; }
  class T3 under N1 { B: G; A: {I}; }
}
)";

/// The schema of Example 1.3: C.A has type D; T1 and T2 are unrelated
/// terminal subclasses of D.
inline const char* kImpliedInequalitySchema = R"(
schema ImpliedInequality {
  class D { }
  class T1 under D { }
  class T2 under D { }
  class C { A: D; }
}
)";

/// The schema of Example 3.1: C.A of type D (object), C.B of type {D}.
inline const char* kExample31Schema = R"(
schema Example31 {
  class D { }
  class C { A: D; B: {D}; }
}
)";

/// The schema of Example 3.2: a single terminal class C.
inline const char* kExample32Schema = R"(
schema Example32 {
  class C { }
}
)";

/// The schema of Example 3.3: T2.A is a set of T1.
inline const char* kExample33Schema = R"(
schema Example33 {
  class T1 { }
  class T2 { A: {T1}; }
}
)";

/// A containment whose Thm 3.1 subset scan is 2^(k-1) masks (the Cor 3.2
/// axis), every one covered by the first mapping, so the compiled scan
/// decides it in one mapping search at any k; the candidate cap
/// (ContainmentOptions::max_membership_candidates, default 24) must admit
/// the k - 1 candidates for the scan to run at all. The budget tests use
/// it: a subset-work budget is charged 2^(k-1) units.
inline std::string HeavySchemaText(int k) {
  std::string text = "schema Heavy {\n  class D { }\n  class C { ";
  for (int i = 0; i < k; ++i) text += "S" + std::to_string(i) + ": {D}; ";
  return text + "}\n}";
}

/// One element witness u in every set y.S_i plus the pin x notin y.S0:
/// the candidate pool is {x in y.S_j : j >= 1}, and HeavyQ1(k) is
/// contained in HeavyQ2().
inline std::string HeavyQ1(int k) {
  std::string text = "{ x | exists y exists u (x in D & y in C & u in D";
  for (int i = 0; i < k; ++i) text += " & u in y.S" + std::to_string(i);
  return text + " & x notin y.S0) }";
}

inline const char* HeavyQ2() {
  return "{ x | exists y (x in D & y in C & x notin y.S0) }";
}

/// A slow request that is real work (the Cor 3.3 axis; bench_containment_
/// general's BM_ContainmentAugmentations times the same shape): SlowQ1(n)
/// holds n + 1 variables of one class with one pin y(n-1) != yn, so Thm
/// 3.1 checks SlowQ2 against every consistent augmentation — the
/// partitions that keep the pinned pair apart, Bell(n + 1) - Bell(n) of
/// them — and the containment holds. Cancellation is polled before every
/// augmentation. SlowQ1(kSlowN) has 562,595 consistent augmentations and
/// runs 5.5-8 s unconstrained in a Release build (4-vCPU host), over 20
/// times the longest deadline the tests give it (250 ms); SlowQ1(3)
/// decides in well under a millisecond.
inline constexpr int kSlowN = 10;

inline const char* SlowSchemaText() { return "schema Slow { class D { } }"; }

inline std::string SlowQ1(int n) {
  std::string text = "{ x | ";
  for (int i = 1; i <= n; ++i) text += "exists y" + std::to_string(i) + " ";
  text += "(x in D";
  for (int i = 1; i <= n; ++i) text += " & y" + std::to_string(i) + " in D";
  return text + " & y" + std::to_string(n - 1) + " != y" +
         std::to_string(n) + ") }";
}

inline const char* SlowQ2() {
  return "{ x | exists u exists v (x in D & u in D & v in D & u != v) }";
}

/// Service options for the slow request: the augmentation cap admits
/// SlowQ1(kSlowN)'s 562,595 consistent augmentations (the default cap of
/// 100,000 would refuse the request after ~1 s).
inline server::ServiceOptions SlowServiceOptions() {
  server::ServiceOptions options;
  options.engine.containment.max_augmentations = 1'000'000;
  return options;
}

/// Deadline for a slow request that must expire mid-containment: long
/// enough for the work before the augmentation loop (parse,
/// normalization; ~10 ms under ThreadSanitizer) to finish first.
inline constexpr uint64_t kSlowDeadlineMs = 50;

/// The request's subset decisions ran on the compiled scan, the
/// production path.
inline void ExpectCompiledScan(const server::OocqService& service) {
  EXPECT_GE(service.metrics().CounterValue("compile/mask_scans"), 1u);
}

}  // namespace oocq::testing

#endif  // OOCQ_TESTS_TEST_UTIL_H_
