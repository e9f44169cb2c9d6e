#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <set>
#include <utility>

#include "core/satisfiability.h"
#include "parser/parser.h"
#include "parser/state_parser.h"
#include "query/well_formed.h"
#include "state/generator.h"

namespace wirebench {
namespace {

using oocq::ConjunctiveQuery;
using oocq::Schema;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "wirebench: %s\n", what.c_str());
  std::exit(1);
}

/// mt19937_64's output sequence is fixed by the C++ standard, so streams
/// are byte-identical across standard libraries (the distributions are
/// not, hence the plain modulo).
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}
  uint64_t Below(uint64_t n) { return engine_() % n; }
  bool Chance(uint32_t percent) { return Below(100) < percent; }
  const std::string& Pick(const std::vector<std::string>& pool) {
    return pool[Below(pool.size())];
  }

 private:
  std::mt19937_64 engine_;
};

const std::vector<std::string> kVehicles = {"Vehicle", "Auto", "Truck", "Van"};
const std::vector<std::string> kVehicleLeaves = {"Auto", "Truck", "Van"};
const std::vector<std::string> kClients = {"Client", "Regular", "Premium"};
const std::vector<std::string> kClientLeaves = {"Regular", "Premium"};

/// Depot carries `depot_sets` set attributes P0.. of type {Auto}: the
/// set terms a Cor 3.2 target scans over (|T| grows with how many a
/// query mentions).
std::string SchemaText(int depot_sets) {
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
  for (int i = 0; i < depot_sets; ++i) {
    text += " P" + std::to_string(i) + ": {Auto};";
  }
  text += " }\n}\n";
  return text;
}

std::string Narrow(Rng& rng, const std::string& cls) {
  if (cls == "Vehicle" && rng.Chance(50)) return rng.Pick(kVehicleLeaves);
  if (cls == "Client" && rng.Chance(50)) return rng.Pick(kClientLeaves);
  return cls;
}

/// A positive query shape over Fleet. Shapes 0–4 answer vehicles (free
/// variable x), shape 5 answers clients (free variable y).
struct Positive {
  int shape = 0;
  std::string v1 = "Vehicle";
  std::string v2 = "Vehicle";
  std::string c1 = "Client";
};

constexpr int kPositiveShapes = 6;

Positive RandomPositive(Rng& rng, bool terminal) {
  Positive p;
  p.shape = static_cast<int>(rng.Below(kPositiveShapes));
  p.v1 = rng.Pick(terminal ? kVehicleLeaves : kVehicles);
  p.v2 = rng.Pick(terminal ? kVehicleLeaves : kVehicles);
  p.c1 = rng.Pick(terminal ? kClientLeaves : kClients);
  return p;
}

Positive Specialize(Rng& rng, Positive p) {
  p.v1 = Narrow(rng, p.v1);
  p.v2 = Narrow(rng, p.v2);
  p.c1 = Narrow(rng, p.c1);
  return p;
}

/// `tag` (may be empty) becomes a constant on the free variable's string
/// attribute, which makes every tagged query a distinct decision.
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

/// The generator's admission filter: every query it emits parses, is
/// well-formed after the paper's §2.3 normalization, and is satisfiable
/// (Thm 2.2, or Prop 2.1 + Thm 2.2 for non-terminal ranges).
bool Admissible(const Schema& schema, const std::string& text) {
  oocq::StatusOr<ConjunctiveQuery> parsed = oocq::ParseQuery(schema, text);
  if (!parsed.ok()) return false;
  oocq::StatusOr<ConjunctiveQuery> well_formed =
      oocq::NormalizeToWellFormed(schema, *parsed);
  if (!well_formed.ok()) return false;
  if (!oocq::CheckWellFormed(schema, *well_formed).ok()) return false;
  if (well_formed->IsTerminal(schema)) {
    return oocq::CheckSatisfiable(schema, *well_formed).satisfiable;
  }
  oocq::StatusOr<bool> satisfiable =
      oocq::CheckSatisfiableGeneral(schema, *well_formed);
  return satisfiable.ok() && *satisfiable;
}

void Require(const Schema& schema, const std::string& text) {
  if (!Admissible(schema, text)) {
    Die("generator emitted an inadmissible query: " + text);
  }
}

/// Draws from `n` choices in shuffled passes: every choice comes up once
/// per pass. Schedules built from decks hold their shares exactly, so
/// seeds differ in the order and content of requests, not in the mix.
class Deck {
 public:
  Deck(size_t n, Rng* rng) : rng_(rng), order_(n), next_(n) {
    for (size_t i = 0; i < n; ++i) order_[i] = i;
  }
  size_t Next() {
    if (next_ == order_.size()) {
      for (size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_->Below(i)]);
      }
      next_ = 0;
    }
    return order_[next_++];
  }

 private:
  Rng* rng_;
  std::vector<size_t> order_;
  size_t next_;
};

/// The registered catalogs (views, named queries, query pools, eval_join's
/// state) come from this fixed seed: they are the deployment, and every
/// workload seed meets the same one. The workload seed draws the traffic.
constexpr uint64_t kCatalogSeed = 1992;

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  return seed * 0x9E3779B97F4A7C15ULL + salt;
}

std::shared_ptr<const std::string> Reply(const char* text) {
  return std::make_shared<const std::string>(text);
}

Op MakeOp(Verb verb, std::string population, std::string command,
          std::vector<std::string> payload) {
  Op op;
  op.verb = verb;
  op.population = std::move(population);
  op.command = std::move(command);
  op.payload = std::move(payload);
  op.frame = Frame(op.command, op.payload);
  return op;
}

Op SessionOp(const std::string& schema_text) {
  Op op =
      MakeOp(Verb::kSession, "setup", "SESSION NEW", SplitLines(schema_text));
  op.expected = Reply("OK session=s1\n.\n");
  return op;
}

Op DefineOp(const std::string& population, const std::string& name,
            const std::string& text) {
  static const std::shared_ptr<const std::string> ok = Reply("OK\n.\n");
  Op op = MakeOp(Verb::kDefine, population, "DEFINE s1 " + name, {text});
  op.name = name;
  op.expected = ok;
  return op;
}

Op BinaryOp(Verb verb, const std::string& population, const std::string& q1,
            const std::string& q2) {
  return MakeOp(verb, population,
                verb == Verb::kEquiv ? "EQUIV s1" : "CONTAIN s1", {q1, q2});
}

// ---- decide_cold --------------------------------------------------------

constexpr int kDepotSets = 25;  // enough sets for |T| up to the 24-atom cap
/// Largest |T| the stream asks for. Scans above 2^20 masks outgrow the
/// L2 cache and turn memory-bound: with |T| up to 24, three same-seed
/// runs spread 21% in throughput and 16% in p99; capped at 20, 3% and 7%.
constexpr uint32_t kMaxPool = 20;

/// A Cor 3.3 target: two same-class variables kept apart by an inequality
/// (shapes 0 and 2: clients y != z; shape 1: vehicles x != w).
struct Ineq {
  int shape;
  std::string a, a2, r;
};

std::string IneqText(const Ineq& v, bool keep_inequality,
                     const std::string& tag) {
  std::string text;
  switch (v.shape) {
    case 0:
      text = "{ x | exists y exists z (x in " + v.a + " & y in " + v.r +
             " & z in " + v.r + " & x in y.Rented & x in z.Rented" +
             (keep_inequality ? " & y != z" : "");
      break;
    case 1:
      text = "{ x | exists y exists w (x in " + v.a + " & y in " + v.r +
             " & w in " + v.a2 + " & x in y.Rented & w in y.Rented" +
             (keep_inequality ? " & x != w" : "");
      break;
    default:
      text = "{ x | exists y exists z (x in " + v.a + " & y in " + v.r +
             " & z in " + v.r + " & x.Owner = y & x in z.Rented" +
             (keep_inequality ? " & y != z" : "");
      break;
  }
  if (!tag.empty()) text += " & x.VehId = \"" + tag + "\"";
  return text + ") }";
}

/// The Cor 3.2 target family: { x | exists d (x in Auto & d in Depot &
/// x notin d.Pj) }, one view per j.
std::string ScanViewText(int j) {
  return "{ x | exists d (x in Auto & d in Depot & x notin d.P" +
         std::to_string(j) + ") }";
}

/// Q1 for a Cor 3.2 request against view j: u is in k depot sets P_s
/// (s in `sets`, which holds j), so T = { x in d.P_s : s in sets } minus
/// the atom the non-membership on `notin` rules out: |T| = k − 1.
/// With notin == j the view's atoms are a subset of Q1's — contained by
/// construction. With notin != j, the subset W = { x in d.Pj } gives a
/// completion no mapping of the view survives — not contained.
std::string ScanQueryText(const std::vector<int>& sets, int notin,
                          const std::string& tag) {
  std::string text =
      "{ x | exists d exists u (x in Auto & d in Depot & u in Auto";
  for (int s : sets) text += " & u in d.P" + std::to_string(s);
  text += " & x notin d.P" + std::to_string(notin);
  text += " & x.VehId = \"" + tag + "\") }";
  return text;
}

/// One pass of the decide_cold schedule: 50 slots holding each request
/// population in its share.
enum class ColdSlot { kCor34Contain, kCor34Equiv, kCor33, kCor32, kMinimize,
                      kUContain };
const std::vector<std::pair<ColdSlot, int>>& ColdMix() {
  static const std::vector<std::pair<ColdSlot, int>> mix = {
      {ColdSlot::kCor34Contain, 23}, {ColdSlot::kCor34Equiv, 9},
      {ColdSlot::kCor33, 5},         {ColdSlot::kCor32, 7},
      {ColdSlot::kMinimize, 4},      {ColdSlot::kUContain, 2}};
  return mix;
}

class DecideColdGenerator {
 public:
  DecideColdGenerator(uint64_t seed, Workload* out)
      : rng_(MixSeed(seed, 0xD1CE)), out_(out) {
    out_->schema_text = SchemaText(kDepotSets);
    schema_ = oocq::ParseSchema(out_->schema_text);
    if (!schema_.ok()) {
      Die("decide_cold schema: " + schema_.status().ToString());
    }
    for (const auto& [slot, count] : ColdMix()) {
      for (int i = 0; i < count; ++i) slots_.push_back(slot);
    }
  }

  void Build(size_t stream_ops) {
    out_->setup.push_back(SessionOp(out_->schema_text));
    // Views: positive targets (Cor 3.4), inequality targets (Cor 3.3) and
    // non-membership targets on terminal ranges (Cor 3.2).
    Rng catalog(MixSeed(kCatalogSeed, 0xD1CE));
    for (int i = 0; i < kPositiveViews; ++i) {
      Positive p = RandomPositive(catalog, false);
      std::string text = PositiveText(p, "");
      Require(*schema_, text);
      positive_.push_back(p);
      out_->setup.push_back(DefineOp("setup", "p" + std::to_string(i), text));
    }
    for (int shape = 0; shape < 3; ++shape) {
      for (const std::string& a : kVehicleLeaves) {
        for (const std::string& r : kClientLeaves) {
          const std::vector<std::string> seconds =
              shape == 1 ? kVehicleLeaves : std::vector<std::string>{a};
          for (const std::string& a2 : seconds) {
            Ineq v{shape, a, a2, r};
            std::string text = IneqText(v, true, "");
            Require(*schema_, text);
            out_->setup.push_back(
                DefineOp("setup", "i" + std::to_string(ineq_.size()), text));
            ineq_.push_back(v);
          }
        }
      }
    }
    if (ineq_.size() != kIneqViews) Die("decide_cold: inequality view count");
    for (int j = 0; j < kDepotSets; ++j) {
      std::string text = ScanViewText(j);
      Require(*schema_, text);
      out_->setup.push_back(DefineOp("setup", "n" + std::to_string(j), text));
    }
    // Warm-up: the same mix, tagged apart from the timed stream so none
    // of its decisions is one the stream repeats.
    for (int i = 0; i < kWarmupOps; ++i) {
      Op op = Next("w" + std::to_string(i));
      op.population = "setup";
      out_->setup.push_back(std::move(op));
    }
    for (size_t i = 0; i < stream_ops; ++i) {
      out_->stream.push_back(Next("q" + std::to_string(i)));
    }
    out_->sizes = {{"positive_views", positive_.size()},
                   {"inequality_views", ineq_.size()},
                   {"scan_views", kDepotSets},
                   {"views", positive_.size() + ineq_.size() + kDepotSets},
                   {"warmup_ops", kWarmupOps},
                   {"pool_min", kMinPool},
                   {"pool_max", kMaxPool}};
    for (const auto& [slot, count] : ColdMix()) {
      static const char* const kNames[] = {"cor34_contain_per_50",
                                           "cor34_equiv_per_50",
                                           "cor33_per_50", "cor32_per_50",
                                           "minimize_per_50",
                                           "ucontain_per_50"};
      out_->sizes.emplace_back(kNames[static_cast<int>(slot)], count);
    }
  }

 private:
  static constexpr int kPositiveViews = 300;
  static constexpr int kIneqViews = 30;  // shapes × leaf classes below
  static constexpr int kWarmupOps = 400;
  static constexpr uint32_t kMinPool = 2;

  std::string PView(size_t i) { return "@p" + std::to_string(i); }

  /// A Q1 that specializes positive view `i` most of the time (and is a
  /// random positive query otherwise), tagged with a unique constant.
  std::string PositiveQ1(size_t i, const std::string& tag) {
    Positive p = rng_.Chance(65) ? Specialize(rng_, positive_[i])
                                 : RandomPositive(rng_, false);
    std::string text = PositiveText(p, tag);
    Require(*schema_, text);
    return text;
  }

  Op Next(const std::string& tag) {
    const ColdSlot slot = slots_[slot_deck_.Next()];
    switch (slot) {
      case ColdSlot::kCor34Contain:
      case ColdSlot::kCor34Equiv: {  // Cor 3.4: positive target
        const bool equiv = slot == ColdSlot::kCor34Equiv;
        size_t i = positive_deck_.Next();
        return BinaryOp(equiv ? Verb::kEquiv : Verb::kContain, "cor34",
                        PositiveQ1(i, tag), PView(i));
      }
      case ColdSlot::kCor33: {  // Cor 3.3: inequality target
        size_t i = ineq_deck_.Next();
        Ineq q = ineq_[i];
        if (rng_.Chance(40)) q.a = "Vehicle";
        if (rng_.Chance(40)) q.r = "Client";
        if (q.shape == 1 && rng_.Chance(40)) q.a2 = "Vehicle";
        std::string text = IneqText(q, rng_.Chance(60), tag);
        Require(*schema_, text);
        return BinaryOp(Verb::kContain, "cor33", text,
                        "@i" + std::to_string(i));
      }
      case ColdSlot::kCor32: {  // Cor 3.2: non-membership target
        const uint32_t pool =
            kMinPool + static_cast<uint32_t>(pool_deck_.Next());
        const int j = static_cast<int>(rng_.Below(kDepotSets));
        std::vector<int> sets = {j};
        std::set<int> used = {j};
        while (sets.size() < pool + 1) {
          int s = static_cast<int>(rng_.Below(kDepotSets));
          if (used.insert(s).second) sets.push_back(s);
        }
        const bool contained = rng_.Chance(85);
        const int notin =
            contained ? j : sets[1 + rng_.Below(sets.size() - 1)];
        std::string text = ScanQueryText(sets, notin, tag);
        Require(*schema_, text);
        Op op = BinaryOp(Verb::kContain, "cor32", text,
                         "@n" + std::to_string(j));
        op.constructed = contained ? 1 : 0;
        op.reference = pool <= kReferenceMaxPool;
        return op;
      }
      case ColdSlot::kMinimize: {  // Prop 2.1, Thm 4.1 matrix, Thm 4.3
        std::string text;
        if (rng_.Chance(50)) {
          const std::string c1 = rng_.Pick(kClients);
          text = "{ x | exists y exists z (x in " + rng_.Pick(kVehicles) +
                 " & y in " + c1 + " & z in " + Narrow(rng_, c1) +
                 " & x in y.Rented & x in z.Rented & x.VehId = \"" + tag +
                 "\") }";
        } else {
          const std::string v2 = rng_.Pick(kVehicleLeaves);
          text = "{ x | exists y exists w exists u (x in " +
                 rng_.Pick(kVehicles) + " & y in " + rng_.Pick(kClients) +
                 " & w in " + v2 + " & u in " + v2 +
                 " & x in y.Rented & w in y.Rented & u in y.Rented" +
                 " & x.VehId = \"" + tag + "\") }";
        }
        Require(*schema_, text);
        return MakeOp(Verb::kMinimize, "minimize", "MINIMIZE s1", {text});
      }
      case ColdSlot::kUContain: {  // Thm 4.1 over inline and named disjuncts
        size_t a = positive_deck_.Next();
        size_t b = positive_deck_.Next();
        return MakeOp(Verb::kUContain, "ucontain", "UCONTAIN s1",
                      {PositiveQ1(a, tag + "a"), PositiveQ1(b, tag + "b"),
                       "--", PView(a), PView(b)});
      }
    }
    Die("unreachable decide_cold slot");
  }

  Rng rng_;
  Workload* out_;
  oocq::StatusOr<Schema> schema_ = oocq::Status::Internal("unset");
  std::vector<Positive> positive_;  // @p<i>
  std::vector<Ineq> ineq_;          // @i<i>
  std::vector<ColdSlot> slots_;
  Deck slot_deck_{50, &rng_};
  Deck positive_deck_{kPositiveViews, &rng_};
  Deck ineq_deck_{kIneqViews, &rng_};
  Deck pool_deck_{kMaxPool - kMinPool + 1, &rng_};
};

// ---- serve_hot ----------------------------------------------------------

void BuildServeHot(uint64_t seed, size_t stream_ops, Workload* out) {
  constexpr int kNames = 36;
  constexpr int kTerminalNames = 12;
  Rng rng(MixSeed(seed, 0x5E7E));
  Rng catalog(MixSeed(kCatalogSeed, 0x5E7E));
  out->schema_text = SchemaText(0);
  oocq::StatusOr<Schema> schema = oocq::ParseSchema(out->schema_text);
  if (!schema.ok()) Die("serve_hot schema: " + schema.status().ToString());
  out->setup.push_back(SessionOp(out->schema_text));
  std::set<std::string> seen;
  std::vector<std::string> names;
  // SAT goes inline: a unary verb's payload reaches the service with its
  // trailing newline, so `SAT s1` + `@h0` looks up "h0\n" and fails.
  std::vector<std::string> terminal_texts;
  while (static_cast<int>(names.size()) < kNames) {
    const bool terminal = static_cast<int>(names.size()) < kTerminalNames;
    std::string text = PositiveText(RandomPositive(catalog, terminal), "");
    if (!seen.insert(text).second) continue;
    Require(*schema, text);
    std::string name = "h" + std::to_string(names.size());
    out->setup.push_back(DefineOp("setup", name, text));
    names.push_back("@" + name);
    if (terminal) terminal_texts.push_back(text);
  }
  // Warm-up decides every ordered pair once, so the loop only hits.
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < kNames; ++i) {
    for (int j = 0; j < kNames; ++j) {
      if (i == j) continue;
      pairs.emplace_back(i, j);
      out->setup.push_back(
          BinaryOp(Verb::kContain, "setup", names[i], names[j]));
    }
  }
  for (const std::string& text : terminal_texts) {
    out->setup.push_back(MakeOp(Verb::kSat, "setup", "SAT s1", {text}));
  }
  // 20-slot schedule: 10 CONTAIN, 7 EQUIV, 3 SAT.
  Deck kinds(20, &rng);
  Deck pair_deck(pairs.size(), &rng);
  Deck sat_deck(kTerminalNames, &rng);
  for (size_t n = 0; n < stream_ops; ++n) {
    const size_t slot = kinds.Next();
    if (slot >= 17) {
      out->stream.push_back(MakeOp(Verb::kSat, "hot_sat", "SAT s1",
                                   {terminal_texts[sat_deck.Next()]}));
      continue;
    }
    const auto& [i, j] = pairs[pair_deck.Next()];
    out->stream.push_back(
        slot < 10
            ? BinaryOp(Verb::kContain, "hot_contain", names[i], names[j])
            : BinaryOp(Verb::kEquiv, "hot_equiv", names[i], names[j]));
  }
  out->cyclic = true;
  out->sizes = {{"names", kNames},
                {"terminal_names", kTerminalNames},
                {"warmup_pairs", pairs.size()},
                {"contain_per_20", 10},
                {"equiv_per_20", 7},
                {"sat_per_20", 3}};
}

// ---- eval_join ----------------------------------------------------------

/// Forward joins bind the free variable first and reach the others
/// through its attributes (the VM's access paths). Reverse joins bind the
/// free variable before its owner: the VM has no RefOwners/SetOwners
/// path, so it scans.
std::string ForwardJoin(Rng& rng) {
  const std::string c = rng.Pick(kClients);
  const std::string v = rng.Pick(kVehicles);
  switch (rng.Below(4)) {
    case 0:
      return "{ c | exists v (c in " + c + " & v in " + v +
             " & v in c.Rented) }";
    case 1:
      return "{ c | exists v (c in " + c + " & v in " + v +
             " & c.Fav = v & v in c.Rented) }";
    case 2:
      return "{ c | exists v exists w (c in " + c + " & v in " + v +
             " & w in " + rng.Pick(kVehicles) +
             " & v in c.Rented & w in c.Rented & c.Fav = v) }";
    default:
      return "{ d | exists m exists v (d in Depot & m in " + c + " & v in " +
             v + " & d.Manager = m & v in d.Stock & v in m.Rented) }";
  }
}

std::string ReverseJoin(Rng& rng) {
  const std::string c = rng.Pick(kClients);
  const std::string v = rng.Pick(kVehicles);
  switch (rng.Below(2)) {
    case 0:
      return "{ c | exists v (c in " + c + " & v in " + v +
             " & c = v.Owner) }";
    default:
      return "{ c | exists v exists w (c in " + c + " & v in " + v +
             " & w in " + rng.Pick(kVehicles) +
             " & c = v.Owner & w in c.Rented) }";
  }
}

void BuildEvalJoin(uint64_t seed, size_t stream_ops, Workload* out) {
  constexpr uint32_t kObjectsPerClass = 400;
  constexpr int kForward = 40;
  constexpr int kReverse = 12;
  Rng rng(MixSeed(seed, 0xE7A1));
  Rng catalog(MixSeed(kCatalogSeed, 0xE7A1));
  out->schema_text = SchemaText(0);
  oocq::StatusOr<Schema> schema = oocq::ParseSchema(out->schema_text);
  if (!schema.ok()) Die("eval_join schema: " + schema.status().ToString());
  out->setup.push_back(SessionOp(out->schema_text));

  // The state is part of the deployment too: its join costs vary with
  // the generator seed by up to a third (measured at 400 objects per
  // class), which would swamp any change a claim measures.
  oocq::GeneratorParams params;
  params.objects_per_class = kObjectsPerClass;
  params.seed = kCatalogSeed;
  const std::string state_text =
      oocq::StateToString(oocq::GenerateRandomState(*schema, params));
  Op state = MakeOp(Verb::kState, "setup", "STATE s1", SplitLines(state_text));
  state.expected = Reply("OK\n.\n");
  out->setup.push_back(std::move(state));

  std::set<std::string> seen;
  std::vector<std::string> forward, reverse;
  while (static_cast<int>(forward.size()) < kForward) {
    std::string text = ForwardJoin(catalog);
    if (seen.insert(text).second && Admissible(*schema, text)) {
      forward.push_back(text);
    }
  }
  while (static_cast<int>(reverse.size()) < kReverse) {
    std::string text = ReverseJoin(catalog);
    if (seen.insert(text).second && Admissible(*schema, text)) {
      reverse.push_back(text);
    }
  }
  // Warm-up runs each distinct query once, filling the ProgramCache.
  for (const auto* pool : {&forward, &reverse}) {
    for (const std::string& text : *pool) {
      out->setup.push_back(MakeOp(Verb::kEval, "setup", "EVAL s1", {text}));
    }
  }
  // Every 4 requests: 3 forward joins and 1 reverse join.
  Deck kinds(4, &rng);
  Deck forward_deck(forward.size(), &rng);
  Deck reverse_deck(reverse.size(), &rng);
  for (size_t n = 0; n < stream_ops; ++n) {
    const bool is_reverse = kinds.Next() == 0;
    const std::string& text = is_reverse ? reverse[reverse_deck.Next()]
                                         : forward[forward_deck.Next()];
    out->stream.push_back(MakeOp(Verb::kEval,
                                 is_reverse ? "reverse" : "forward",
                                 "EVAL s1", {text}));
  }
  out->cyclic = true;
  out->sizes = {{"objects_per_class", kObjectsPerClass},
                {"forward_queries", kForward},
                {"reverse_queries", kReverse},
                {"reverse_per_4", 1},
                {"state_bytes", state_text.size()}};
}

// ---- catalog_write ------------------------------------------------------

void BuildCatalogWrite(uint64_t seed, size_t stream_ops, Workload* out) {
  constexpr int kSnapshotNames = 12000;
  constexpr int kWalNames = 2400;
  constexpr int kHotNames = 40;
  constexpr int kWarmupReads = 300;
  constexpr size_t kWritesPer = 250;  // one DEFINE per this many requests
  Rng rng(MixSeed(seed, 0xCA7A));
  Rng catalog(MixSeed(kCatalogSeed, 0xCA7A));
  out->schema_text = SchemaText(0);
  out->durable = true;
  oocq::StatusOr<Schema> schema = oocq::ParseSchema(out->schema_text);
  if (!schema.ok()) Die("catalog_write schema: " + schema.status().ToString());

  auto random_query = [&](Rng& source) {
    std::string text = PositiveText(RandomPositive(source, false), "");
    Require(*schema, text);
    return text;
  };
  for (int i = 0; i < kSnapshotNames; ++i) {
    out->snapshot_defines.emplace_back("n" + std::to_string(i),
                                       random_query(catalog));
  }
  for (int i = 0; i < kWalNames; ++i) {
    out->wal_defines.emplace_back("n" + std::to_string(kSnapshotNames + i),
                                  random_query(catalog));
  }
  for (int i = 0; i < kHotNames; ++i) {
    for (int j = 0; j < kHotNames; ++j) {
      if (i != j) {
        out->decided_pairs.emplace_back("@n" + std::to_string(i),
                                        "@n" + std::to_string(j));
      }
    }
  }
  Deck pair_deck(out->decided_pairs.size(), &rng);
  auto hot_read = [&](const std::string& population) {
    const auto& [a, b] = out->decided_pairs[pair_deck.Next()];
    return BinaryOp(Verb::kContain, population, a, b);
  };
  for (int i = 0; i < kWarmupReads; ++i) {
    out->setup.push_back(hot_read("setup"));
  }
  // One DEFINE of a fresh name per kWritesPer requests, the rest
  // cache-hot reads. p99 falls in the reads' tail: where writes were one
  // request in 4 or 10, p99 landed in the fsync tail and moved 570–3050 µs
  // with the neighbours' disk traffic (five-second windows of one run).
  Deck kinds(kWritesPer, &rng);
  size_t writes = 0;
  for (size_t n = 0; n < stream_ops; ++n) {
    if (kinds.Next() == 0) {
      out->stream.push_back(DefineOp("define", "w" + std::to_string(writes++),
                                     random_query(rng)));
    } else {
      out->stream.push_back(hot_read("read"));
    }
  }
  // Cyclic: past the end the loop wraps, and each DEFINE name is defined
  // again (same parse, WAL append and fsync as a new one).
  out->cyclic = true;
  out->sizes = {{"snapshot_names", kSnapshotNames},
                {"wal_names", kWalNames},
                {"hot_names", kHotNames},
                {"cache_pairs", out->decided_pairs.size()},
                {"writes_per", kWritesPer},
                {"warmup_reads", kWarmupReads}};
}

void Fnv(uint64_t* hash, const std::string& bytes) {
  for (unsigned char c : bytes) {
    *hash ^= c;
    *hash *= 0x100000001B3ULL;
  }
  *hash ^= 0xFF;  // field separator
  *hash *= 0x100000001B3ULL;
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, size_t stream_ops,
                  Workload* out) {
  out->name = name;
  out->seed = seed;
  if (name == "decide_cold") {
    DecideColdGenerator(seed, out).Build(stream_ops);
  } else if (name == "serve_hot") {
    BuildServeHot(seed, stream_ops, out);
  } else if (name == "eval_join") {
    BuildEvalJoin(seed, stream_ops, out);
  } else if (name == "catalog_write") {
    BuildCatalogWrite(seed, stream_ops, out);
  } else {
    return false;
  }
  return true;
}

size_t StreamOps(const std::string& name, double seconds) {
  size_t ops = static_cast<size_t>(4000 * seconds);  // decide_cold
  if (name == "serve_hot") ops = 60000;
  if (name == "eval_join") ops = 12000;
  if (name == "catalog_write") ops = 60000;
  return std::max(ops, TracedOps(name, seconds));
}

size_t TracedOps(const std::string& name, double seconds) {
  double rate = 150;
  if (name == "serve_hot") rate = 600;
  if (name == "eval_join") rate = 20;
  if (name == "catalog_write") rate = 500;
  const size_t ops = static_cast<size_t>(rate * seconds);
  return ops < 20 ? 20 : ops;
}

uint64_t StreamHash(const Workload& workload) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  Fnv(&hash, workload.schema_text);
  for (const auto& [name, text] : workload.snapshot_defines) {
    Fnv(&hash, name);
    Fnv(&hash, text);
  }
  for (const auto& [name, text] : workload.wal_defines) {
    Fnv(&hash, name);
    Fnv(&hash, text);
  }
  for (const auto& [a, b] : workload.decided_pairs) {
    Fnv(&hash, a);
    Fnv(&hash, b);
  }
  for (const Op& op : workload.setup) Fnv(&hash, op.frame);
  for (const Op& op : workload.stream) Fnv(&hash, op.frame);
  return hash;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  for (size_t start = 0; start < text.size();) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

std::string Frame(const std::string& command,
                  const std::vector<std::string>& payload) {
  std::string frame = command + "\n";
  for (const std::string& line : payload) {
    if (!line.empty() && line[0] == '.') frame += '.';
    frame += line;
    frame += '\n';
  }
  frame += ".\n";
  return frame;
}

}  // namespace wirebench
