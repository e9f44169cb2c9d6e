// Prepared vs unprepared operands on the decision verbs: every request
// population of the decide_cold mix (Cor 3.4 CONTAIN and EQUIV, Cor 3.3,
// Cor 3.2 with |T| <= 6, UCONTAIN and MINIMIZE), seeded and random over a
// Fleet-like schema, answered through OocqService with @name operands and
// with the same texts inline; before and after each name's expansion slot
// is filled; with the containment cache on and off; with the compiled
// subset scan on and off; and at one and four engine threads. Every
// variant must answer every request with the same status code, verdict
// and body.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "server/service.h"
#include "test_util.h"

namespace oocq::server {
namespace {

const std::vector<std::string> kVehicles = {"Vehicle", "Auto", "Truck", "Van"};
const std::vector<std::string> kVehicleLeaves = {"Auto", "Truck", "Van"};
const std::vector<std::string> kClients = {"Client", "Regular", "Premium"};
const std::vector<std::string> kClientLeaves = {"Regular", "Premium"};
constexpr int kDepotSets = 6;

std::string FleetSchema() {
  std::string text =
      "schema Fleet {\n"
      "  class Vehicle { VehId: String; Owner: Client; }\n"
      "  class Auto    under Vehicle { Doors: Int; }\n"
      "  class Truck   under Vehicle { Payload: Real; }\n"
      "  class Van     under Vehicle { Seats: Int; }\n"
      "  class Client  { Name: String; Rented: {Vehicle}; Fav: Vehicle; }\n"
      "  class Regular under Client { }\n"
      "  class Premium under Client { Rate: Real; }\n"
      "  class Depot   { Manager: Client; Stock: {Vehicle};";
  for (int i = 0; i < kDepotSets; ++i) {
    text += " P" + std::to_string(i) + ": {Auto};";
  }
  return text + " }\n}\n";
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}
  size_t Below(size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(engine_);
  }
  bool Chance(int percent) { return Below(100) < static_cast<size_t>(percent); }
  const std::string& Pick(const std::vector<std::string>& options) {
    return options[Below(options.size())];
  }

 private:
  std::mt19937_64 engine_;
};

// A positive query: shapes 0-4 answer vehicles, shape 5 clients.
struct Positive {
  int shape = 0;
  std::string v1, v2, c1;
};

Positive RandomPositive(Rng& rng) {
  return {static_cast<int>(rng.Below(6)), rng.Pick(kVehicles),
          rng.Pick(kVehicles), rng.Pick(kClients)};
}

// Narrows some ranges to a leaf, so the query often specializes `p`.
Positive Specialize(Rng& rng, Positive p) {
  for (std::string* cls : {&p.v1, &p.v2}) {
    if (*cls == "Vehicle" && rng.Chance(50)) *cls = rng.Pick(kVehicleLeaves);
  }
  if (p.c1 == "Client" && rng.Chance(50)) p.c1 = rng.Pick(kClientLeaves);
  return p;
}

std::string PositiveText(const Positive& p, const std::string& tag) {
  const std::string vx = "x in " + p.v1;
  const std::string cy = "y in " + p.c1;
  std::string text;
  switch (p.shape) {
    case 0:
      text = "{ x | exists y (" + vx + " & " + cy + " & x in y.Rented";
      break;
    case 1:
      text = "{ x | exists y (" + vx + " & " + cy + " & x.Owner = y";
      break;
    case 2:
      text = "{ x | exists y (" + vx + " & " + cy + " & y.Fav = x";
      break;
    case 3:
      text = "{ x | exists y exists d (" + vx + " & " + cy +
             " & d in Depot & x in y.Rented & x in d.Stock";
      break;
    case 4:
      text = "{ x | exists y exists w (" + vx + " & " + cy + " & w in " +
             p.v2 + " & x in y.Rented & w in y.Rented & w.Owner = y";
      break;
    default:
      text = "{ y | exists x (" + cy + " & " + vx +
             " & x in y.Rented & y.Fav = x";
      break;
  }
  if (!tag.empty()) {
    text += p.shape == 5 ? " & y.Name = \"" + tag + "\""
                         : " & x.VehId = \"" + tag + "\"";
  }
  return text + ") }";
}

// A Cor 3.3 target or probe: two same-class variables kept apart by an
// inequality (or not, for a probe).
std::string IneqText(int shape, const std::string& a, const std::string& r,
                     bool keep_inequality, const std::string& tag) {
  std::string text =
      shape == 0
          ? "{ x | exists y exists z (x in " + a + " & y in " + r +
                " & z in " + r + " & x in y.Rented & x in z.Rented" +
                (keep_inequality ? " & y != z" : "")
          : "{ x | exists y exists z (x in " + a + " & y in " + r +
                " & z in " + r + " & x.Owner = y & x in z.Rented" +
                (keep_inequality ? " & y != z" : "");
  if (!tag.empty()) text += " & x.VehId = \"" + tag + "\"";
  return text + ") }";
}

// The Cor 3.2 target family: x notin d.Pj.
std::string ScanViewText(int j) {
  return "{ x | exists d (x in Auto & d in Depot & x notin d.P" +
         std::to_string(j) + ") }";
}

// A Cor 3.2 probe: u in every set of `sets` (|T| = |sets| - 1).
std::string ScanQueryText(const std::vector<int>& sets, int notin,
                          const std::string& tag) {
  std::string text =
      "{ x | exists d exists u (x in Auto & d in Depot & u in Auto";
  for (int s : sets) text += " & u in d.P" + std::to_string(s);
  return text + " & x notin d.P" + std::to_string(notin) +
         " & x.VehId = \"" + tag + "\") }";
}

struct Workload {
  std::map<std::string, std::string> views;  // name -> text
  std::vector<Request> requests;             // operands name views as @name
};

Workload MakeWorkload(uint64_t seed) {
  Rng rng(seed);
  Workload w;
  std::vector<Positive> positive;
  for (int i = 0; i < 12; ++i) {
    positive.push_back(RandomPositive(rng));
    w.views["p" + std::to_string(i)] = PositiveText(positive.back(), "");
  }
  for (int shape = 0; shape < 2; ++shape) {
    for (const std::string& a : kVehicleLeaves) {
      w.views["i" + std::to_string(shape) + a] =
          IneqText(shape, a, rng.Pick(kClientLeaves), true, "");
    }
  }
  for (int j = 0; j < kDepotSets; ++j) {
    w.views["n" + std::to_string(j)] = ScanViewText(j);
  }

  auto binary = [&](RequestKind kind, std::string q1, std::string q2) {
    Request request;
    request.kind = kind;
    request.query = std::move(q1);
    request.query2 = std::move(q2);
    w.requests.push_back(std::move(request));
  };
  for (int n = 0; n < 36; ++n) {
    const std::string tag = "q" + std::to_string(n);
    const size_t i = rng.Below(positive.size());
    const std::string view = "@p" + std::to_string(i);
    const Positive probe =
        rng.Chance(65) ? Specialize(rng, positive[i]) : RandomPositive(rng);
    switch (n % 6) {
      case 0:  // Cor 3.4: CONTAIN, either direction
        binary(RequestKind::kContained, PositiveText(probe, tag), view);
        break;
      case 1:
        binary(RequestKind::kEquivalent, PositiveText(probe, tag), view);
        break;
      case 2: {  // Cor 3.3
        const int shape = static_cast<int>(rng.Below(2));
        const std::string a = rng.Pick(kVehicleLeaves);
        const std::string probe_a = rng.Chance(40) ? "Vehicle" : a;
        const std::string probe_r =
            rng.Chance(40) ? "Client" : rng.Pick(kClientLeaves);
        const bool keep_inequality = rng.Chance(60);
        binary(RequestKind::kContained,
               IneqText(shape, probe_a, probe_r, keep_inequality, tag),
               "@i" + std::to_string(shape) + a);
        break;
      }
      case 3: {  // Cor 3.2, |T| in 1..5
        const int j = static_cast<int>(rng.Below(kDepotSets));
        std::vector<int> sets = {j};
        std::set<int> used = {j};
        const size_t pool = 1 + rng.Below(5);
        while (sets.size() < pool + 1) {
          const int s = static_cast<int>(rng.Below(kDepotSets));
          if (used.insert(s).second) sets.push_back(s);
        }
        const int notin = rng.Chance(70) ? j : sets[1 + rng.Below(pool)];
        binary(RequestKind::kContained, ScanQueryText(sets, notin, tag),
               "@n" + std::to_string(j));
        break;
      }
      case 4: {  // Thm 4.1 over inline and named disjuncts
        Request request;
        request.kind = RequestKind::kUnionContained;
        const size_t k = rng.Below(positive.size());
        const Positive second = Specialize(rng, positive[k]);
        request.union_m = {PositiveText(probe, tag + "a"),
                           PositiveText(second, tag + "b")};
        request.union_n = {view, "@p" + std::to_string(k)};
        w.requests.push_back(std::move(request));
        break;
      }
      default: {  // Prop 2.1, the Thm 4.2 matrix, Thm 4.3
        Request request;
        request.kind = RequestKind::kMinimize;
        const std::string c1 = rng.Pick(kClients);
        request.query = "{ x | exists y exists z (x in " + rng.Pick(kVehicles) +
                        " & y in " + c1 + " & z in " + c1 +
                        " & x in y.Rented & x in z.Rented & x.VehId = \"" +
                        tag + "\") }";
        w.requests.push_back(std::move(request));
        break;
      }
    }
    // Every third request also asks the reverse direction on the views.
    if (n % 3 == 0) {
      binary(RequestKind::kContained, view, PositiveText(probe, ""));
    }
  }
  return w;
}

// `@name` -> the registered text, for the inline variant.
std::string Inline(const Workload& w, const std::string& field) {
  if (field.empty() || field[0] != '@') return field;
  return w.views.at(field.substr(1));
}

struct Answer {
  StatusCode code = StatusCode::kOk;
  bool verdict = false;
  std::string body;
  bool operator==(const Answer&) const = default;
};

std::string Describe(const Answer& a) {
  return std::string(StatusCodeToString(a.code)) + " verdict=" +
         (a.verdict ? "1" : "0") + " body=" + a.body;
}

struct Variant {
  bool cache = true;
  bool compile = true;
  uint32_t threads = 1;
};

// Answers every request three times on one fresh service: with @name
// operands before any expansion slot exists, again once they all exist,
// and with every operand inline.
std::vector<std::vector<Answer>> AnswerAll(const Workload& w,
                                           const Variant& v) {
  ServiceOptions options;
  options.engine.cache.enabled = v.cache;
  options.engine.enable_compilation = v.compile;
  options.engine.parallel.num_threads = v.threads;
  OocqService service(options);
  StatusOr<std::string> sid = service.CreateSession(FleetSchema());
  EXPECT_TRUE(sid.ok()) << sid.status().ToString();
  if (!sid.ok()) return {};
  for (const auto& [name, text] : w.views) {
    Status defined = service.DefineQuery(*sid, name, text);
    EXPECT_TRUE(defined.ok()) << name << ": " << defined.ToString();
  }
  std::vector<std::vector<Answer>> passes;
  for (bool inline_operands : {false, false, true}) {
    std::vector<Answer> answers;
    for (Request request : w.requests) {
      request.session_id = *sid;
      if (inline_operands) {
        request.query = Inline(w, request.query);
        request.query2 = Inline(w, request.query2);
        for (std::string& text : request.union_m) text = Inline(w, text);
        for (std::string& text : request.union_n) text = Inline(w, text);
      }
      Response response = service.Execute(request);
      answers.push_back(
          {response.status.code(), response.verdict, response.body});
    }
    passes.push_back(std::move(answers));
  }
  return passes;
}

TEST(PreparedContainmentTest, EveryVariantAnswersEveryPopulationAlike) {
  for (uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Workload w = MakeWorkload(seed);
    const std::vector<std::vector<Answer>> reference = AnswerAll(w, {});
    ASSERT_EQ(reference.size(), 3u);

    // The reference itself: every request decides, CONTAIN both ways,
    // and named, prepared-named and inline operands agree.
    std::map<std::pair<RequestKind, bool>, int> seen;
    for (size_t r = 0; r < w.requests.size(); ++r) {
      EXPECT_EQ(reference[0][r].code, StatusCode::kOk)
          << r << ": " << Describe(reference[0][r]);
      ++seen[{w.requests[r].kind, reference[0][r].verdict}];
      for (size_t pass = 1; pass < reference.size(); ++pass) {
        EXPECT_EQ(reference[pass][r], reference[0][r])
            << "pass " << pass << " request " << r << ": "
            << Describe(reference[pass][r]) << " vs "
            << Describe(reference[0][r]);
      }
    }
    EXPECT_GT((seen[{RequestKind::kContained, true}]), 0);
    EXPECT_GT((seen[{RequestKind::kContained, false}]), 0);

    for (bool cache : {true, false}) {
      for (bool compile : {true, false}) {
        for (uint32_t threads : {1u, 4u}) {
          const Variant variant{cache, compile, threads};
          SCOPED_TRACE("cache=" + std::to_string(cache) + " compile=" +
                       std::to_string(compile) +
                       " threads=" + std::to_string(threads));
          const std::vector<std::vector<Answer>> passes = AnswerAll(w, variant);
          ASSERT_EQ(passes.size(), reference.size());
          for (size_t pass = 0; pass < passes.size(); ++pass) {
            for (size_t r = 0; r < w.requests.size(); ++r) {
              EXPECT_EQ(passes[pass][r], reference[0][r])
                  << "pass " << pass << " request " << r << ": "
                  << Describe(passes[pass][r]) << " vs "
                  << Describe(reference[0][r]);
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace oocq::server
