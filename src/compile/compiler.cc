#include "compile/compiler.h"

#include <algorithm>
#include <map>
#include <utility>

#include "support/metrics.h"

namespace oocq::compile {

namespace {

/// Static cost/selectivity priority per test opcode (lower runs earlier).
/// Used when no recorded pass rates are available, so plans are
/// deterministic with metrics off. Equality against an interned constant
/// is the cheapest and most selective; set probes the least.
uint32_t StaticTestPriority(OpCode code) {
  switch (code) {
    case OpCode::kTestConst: return 50;
    case OpCode::kTestEqVarVar: return 100;
    case OpCode::kTestClass: return 200;
    case OpCode::kTestNotClass: return 300;
    case OpCode::kTestMember: return 350;
    case OpCode::kTestEqVarSlot: return 400;
    case OpCode::kTestEqSlotSlot: return 450;
    case OpCode::kTestNeVarVar: return 500;
    case OpCode::kTestNeVarSlot: return 550;
    case OpCode::kTestNeSlotSlot: return 580;
    case OpCode::kTestNotMember: return 600;
    default: return 1000;
  }
}

/// The ordering key of a test: the opcode's observed pass rate (per
/// mille) when the metrics registry has accumulated enough samples from
/// prior VM runs (`compile/sel/<op>/{pass,total}`), else the static
/// priority. A lower pass rate prunes more per test, so it runs earlier.
uint32_t TestPriority(const Op& test, bool use_stats) {
  if (use_stats) {
    if (MetricsRegistry* metrics = ActiveMetrics()) {
      const std::string base =
          std::string("compile/sel/") + OpCodeName(test.code);
      const uint64_t total = metrics->CounterValue(base + "/total");
      // Below this many samples the observed rate is noise; stick to the
      // static plan so two compiles of one query agree.
      if (total >= 256) {
        const uint64_t pass = metrics->CounterValue(base + "/pass");
        return static_cast<uint32_t>(pass * 1000 / total);
      }
    }
  }
  return StaticTestPriority(test.code);
}

struct AtomPlan {
  const Atom* atom = nullptr;
  bool consumed = false;  // realized by a generator, not a test
};

/// Variables an atom mentions (including set-term owners).
void AtomVars(const Atom& atom, VarId out[2], int* count) {
  *count = 0;
  switch (atom.kind()) {
    case AtomKind::kRange:
    case AtomKind::kNonRange:
    case AtomKind::kConstant:
      out[(*count)++] = atom.var();
      break;
    default:
      out[(*count)++] = atom.lhs().var;
      if (atom.rhs().var != atom.lhs().var) out[(*count)++] = atom.rhs().var;
      break;
  }
}

}  // namespace

StatusOr<CompiledQuery> CompileQuery(const Schema& schema,
                                     const ConjunctiveQuery& query,
                                     const CompileOptions& options) {
  const size_t n = query.num_vars();
  if (n == 0 || query.free_var() == kInvalidVarId || query.free_var() >= n) {
    return Status::FailedPrecondition(
        "compile: query without a bindable free variable");
  }
  if (n > 4096) {
    return Status::FailedPrecondition("compile: too many variables");
  }

  CompiledQuery program;
  program.free_var = query.free_var();
  program.num_vars = static_cast<uint32_t>(n);
  program.range_classes.resize(n);
  for (VarId v = 0; v < n; ++v) {
    if (const Atom* range = query.RangeAtomOf(v)) {
      program.range_classes[v] = range->classes();
    }
  }

  std::vector<AtomPlan> plans;
  plans.reserve(query.atoms().size());
  for (const Atom& atom : query.atoms()) plans.push_back({&atom, false});

  // ---- Binding order + generator selection ------------------------------
  // Greedy: seed with the most-constrained variable, then repeatedly bind
  // the variable reachable from the bound set through the cheapest
  // generator — a unit binding (x = y / x = y.A) beats enumerating a
  // bound set's members or a bound value's owners (x in y.A, x.A = u,
  // u in x.A), which beats scanning an extent; a variable sharing any
  // atom with a bound one beats a disconnected scan (its joins prune at
  // this depth instead of the innermost loop). All ties break on the
  // lowest VarId, so plans are deterministic.
  std::vector<char> placed(n, 0);
  std::vector<VarId> order;
  std::vector<Op> generators(n);
  std::vector<int> consumed_by_gen(n, -1);  // plan index the generator eats

  auto connected = [&](VarId v) {
    for (const AtomPlan& plan : plans) {
      VarId vars[2];
      int count = 0;
      AtomVars(*plan.atom, vars, &count);
      if (count != 2) continue;
      VarId other = vars[0] == v ? vars[1] : (vars[1] == v ? vars[0] : kInvalidVarId);
      if (other != kInvalidVarId && placed[other]) return true;
    }
    return false;
  };

  // Best generator reachable for `v` from the placed set. Returns the
  // rank (0 bind-var, 1 bind-slot-ref, 2 set-member or owner scan,
  // 3 connected scan, 4 disconnected scan) and fills gen/consumed; slots
  // and probes are resolved once the order is fixed.
  auto best_generator = [&](VarId v, Op* gen, int* consumed) {
    int best = connected(v) ? 3 : 4;
    auto offer = [&](int rank, OpCode code, VarId from, size_t atom_index) {
      if (rank >= best) return;
      best = rank;
      gen->code = code;
      gen->var_a = v;
      gen->var_b = from;
      gen->classes.clear();
      *consumed = static_cast<int>(atom_index);
    };
    for (size_t i = 0; i < plans.size(); ++i) {
      const Atom& atom = *plans[i].atom;
      if (atom.kind() == AtomKind::kEquality) {
        // One side a term of v, the other side fully bound.
        for (const auto& [mine, other] :
             {std::pair(atom.lhs(), atom.rhs()), std::pair(atom.rhs(), atom.lhs())}) {
          if (mine.var != v || other.var == v || !placed[other.var]) continue;
          if (!mine.is_attribute()) {
            offer(other.is_attribute() ? 1 : 0,
                  other.is_attribute() ? OpCode::kBindFromSlotRef
                                       : OpCode::kBindFromVar,
                  other.var, i);
          } else {
            // v.A = u or v.A = y.B: the owners of the bound value.
            offer(2, OpCode::kScanRefOwners,
                  other.is_attribute() ? kInvalidVarId : other.var, i);
          }
        }
      } else if (atom.kind() == AtomKind::kMembership) {
        const VarId element = atom.var();
        const VarId owner = atom.set_term().var;
        if (element == owner) continue;
        if (element == v && placed[owner]) {
          offer(2, OpCode::kScanSetMembers, owner, i);
        } else if (owner == v && placed[element]) {
          offer(2, OpCode::kScanSetOwners, element, i);
        }
      }
    }
    if (best >= 3) {
      *consumed = -1;
      gen->var_a = v;
      gen->var_b = kInvalidVarId;
      if (program.range_classes[v].empty()) {
        gen->code = OpCode::kScanAll;
        gen->classes.clear();
      } else {
        gen->code = OpCode::kScanExtent;
        gen->classes = program.range_classes[v];
      }
    }
    return best;
  };

  // Seed preference: most incident atoms, then lowest id.
  std::vector<size_t> incidence(n, 0);
  for (const AtomPlan& plan : plans) {
    VarId vars[2];
    int count = 0;
    AtomVars(*plan.atom, vars, &count);
    for (int i = 0; i < count; ++i) ++incidence[vars[i]];
  }

  while (order.size() < n) {
    VarId pick = kInvalidVarId;
    int pick_rank = 0;
    Op pick_gen;
    int pick_consumed = -1;
    for (VarId v = 0; v < n; ++v) {
      if (placed[v]) continue;
      Op gen;
      int consumed = -1;
      int rank = best_generator(v, &gen, &consumed);
      bool better;
      if (pick == kInvalidVarId) {
        better = true;
      } else if (rank != pick_rank) {
        better = rank < pick_rank;
      } else if (order.empty()) {
        better = incidence[v] > incidence[pick];
      } else {
        better = false;  // same rank, higher id: keep the earlier pick
      }
      if (better) {
        pick = v;
        pick_rank = rank;
        pick_gen = std::move(gen);
        pick_consumed = consumed;
      }
    }
    placed[pick] = 1;
    generators[pick] = std::move(pick_gen);
    consumed_by_gen[pick] = pick_consumed;
    if (pick_consumed >= 0) plans[pick_consumed].consumed = true;
    order.push_back(pick);
  }

  std::vector<size_t> position(n);
  for (size_t i = 0; i < n; ++i) position[order[i]] = i;

  // ---- Slots: one register per distinct attribute term ------------------
  program.levels.resize(n);
  std::map<std::pair<VarId, std::string>, uint16_t> slot_ids;
  auto slot_for = [&](VarId owner, const std::string& attr) -> uint16_t {
    auto it = slot_ids.find({owner, attr});
    if (it != slot_ids.end()) return it->second;
    uint16_t id = static_cast<uint16_t>(program.slots.size());
    program.slots.push_back({owner, attr});
    slot_ids.emplace(std::make_pair(owner, attr), id);
    program.levels[position[owner]].loads.push_back(id);
    return id;
  };

  // Generators resolve their slots and probes now (a source slot's owner
  // is placed strictly earlier, so the slot loads before this level
  // opens).
  for (size_t d = 0; d < n; ++d) {
    VarId v = order[d];
    Op& gen = generators[v];
    if (consumed_by_gen[v] >= 0) {
      // The consumed atom's side that is a term of v, and the bound side
      // (exactly one side mentions v: generators skip self-joins).
      const Atom& atom = *plans[consumed_by_gen[v]].atom;
      const bool lhs_mine = atom.lhs().var == v;
      const Term& mine = lhs_mine ? atom.lhs() : atom.rhs();
      const Term& other = lhs_mine ? atom.rhs() : atom.lhs();
      switch (gen.code) {
        case OpCode::kBindFromSlotRef:
        case OpCode::kScanSetMembers:
          gen.slot_a = slot_for(other.var, other.attr);
          break;
        case OpCode::kScanRefOwners:
        case OpCode::kScanSetOwners:
          gen.probe = static_cast<uint16_t>(program.probes.size());
          program.probes.push_back(mine.attr);
          if (other.is_attribute()) {
            gen.slot_b = slot_for(other.var, other.attr);
          }
          break;
        default:
          break;
      }
    }
    program.levels[d].gen = gen;
    // A variable bound by something other than its extent scan still
    // carries its range atom as a class test (and its extra range atoms,
    // if not well-formed-unique, are scheduled below like any atom).
    if (gen.code != OpCode::kScanExtent && !program.range_classes[v].empty()) {
      Op test;
      test.code = OpCode::kTestClass;
      test.var_a = v;
      test.classes = program.range_classes[v];
      program.levels[d].tests.push_back(std::move(test));
    }
  }

  // ---- Schedule every unconsumed atom as a test -------------------------
  auto operand_is_slot = [](const Term& t) { return t.is_attribute(); };
  bool first_range_seen[4096] = {};
  for (const AtomPlan& plan : plans) {
    const Atom& atom = *plan.atom;
    if (plan.consumed) continue;
    VarId vars[2];
    int count = 0;
    AtomVars(atom, vars, &count);
    size_t level = position[vars[0]];
    if (count == 2) level = std::max(level, position[vars[1]]);

    Op test;
    switch (atom.kind()) {
      case AtomKind::kRange: {
        // The first range atom of an extent-scanned variable is realized
        // by its generator; every other range atom is a plain class test.
        VarId v = atom.var();
        if (!first_range_seen[v]) {
          first_range_seen[v] = true;
          if (generators[v].code == OpCode::kScanExtent) continue;
          continue;  // non-scan generators added the class test above
        }
        test.code = OpCode::kTestClass;
        test.var_a = v;
        test.classes = atom.classes();
        break;
      }
      case AtomKind::kNonRange:
        test.code = OpCode::kTestNotClass;
        test.var_a = atom.var();
        test.classes = atom.classes();
        break;
      case AtomKind::kConstant:
        test.code = OpCode::kTestConst;
        test.var_a = atom.var();
        test.const_index = static_cast<uint32_t>(program.constants.size());
        program.constants.push_back(atom.constant());
        break;
      case AtomKind::kEquality:
      case AtomKind::kInequality: {
        const bool eq = atom.kind() == AtomKind::kEquality;
        const Term& lhs = atom.lhs();
        const Term& rhs = atom.rhs();
        if (!operand_is_slot(lhs) && !operand_is_slot(rhs)) {
          test.code = eq ? OpCode::kTestEqVarVar : OpCode::kTestNeVarVar;
          test.var_a = lhs.var;
          test.var_b = rhs.var;
        } else if (operand_is_slot(lhs) && operand_is_slot(rhs)) {
          test.code = eq ? OpCode::kTestEqSlotSlot : OpCode::kTestNeSlotSlot;
          test.slot_a = slot_for(lhs.var, lhs.attr);
          test.slot_b = slot_for(rhs.var, rhs.attr);
        } else {
          const Term& var_side = operand_is_slot(lhs) ? rhs : lhs;
          const Term& slot_side = operand_is_slot(lhs) ? lhs : rhs;
          test.code = eq ? OpCode::kTestEqVarSlot : OpCode::kTestNeVarSlot;
          test.var_a = var_side.var;
          test.slot_b = slot_for(slot_side.var, slot_side.attr);
        }
        break;
      }
      case AtomKind::kMembership:
      case AtomKind::kNonMembership:
        test.code = atom.kind() == AtomKind::kMembership
                        ? OpCode::kTestMember
                        : OpCode::kTestNotMember;
        test.var_a = atom.var();
        test.slot_b = slot_for(atom.set_term().var, atom.set_term().attr);
        break;
    }
    program.levels[level].tests.push_back(std::move(test));
  }

  if (program.slots.size() > 65535) {
    return Status::FailedPrecondition("compile: too many attribute terms");
  }
  (void)schema;

  // ---- Selectivity ordering within each level ---------------------------
  for (Level& level : program.levels) {
    std::stable_sort(level.tests.begin(), level.tests.end(),
                     [&](const Op& a, const Op& b) {
                       return TestPriority(a, options.use_selectivity_stats) <
                              TestPriority(b, options.use_selectivity_stats);
                     });
  }
  return program;
}

}  // namespace oocq::compile
