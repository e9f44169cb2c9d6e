#include "compile/vm.h"

#include <algorithm>
#include <optional>
#include <span>
#include <string>

#include "state/index.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace oocq::compile {

namespace {

/// Candidate source of one open loop level.
struct LevelRt {
  const Oid* data = nullptr;
  size_t size = 0;
  size_t cursor = 0;
  Oid single = kInvalidOid;  // storage for single-candidate generators
  const OwnerPostings* postings = nullptr;  // owner-scan generators
};

}  // namespace

StatusOr<std::vector<Oid>> ExecuteCompiled(const CompiledQuery& program,
                                           const State& state,
                                           const ExecOptions& options,
                                           ExecStats* stats) {
  OOCQ_TRACE_SPAN(span, "ExecuteCompiled");
  OOCQ_METRIC_ADD("compile/execs", 1);
  const Schema& schema = state.schema();
  const size_t n = program.num_vars;
  span.Arg("vars", static_cast<uint64_t>(n));

  if (options.cancel != nullptr) {
    Status live = options.cancel->Check();
    if (!live.ok()) return live;
  }

  // ---- Per-execution state specialization -------------------------------
  // Terminal extents and owner postings come from the state's access
  // paths, built once per state instead of once per call.
  const StateIndex& index = state.index();

  // The terminal classes of a class disjunction, deduplicated (two classes
  // of one disjunction may share descendants; terminal classes partition
  // the objects, so after dedup the extents are disjoint).
  std::vector<char> seen(schema.num_classes(), 0);
  std::vector<ClassId> terminals_scratch;
  auto terminals_of = [&](const std::vector<ClassId>& classes) {
    terminals_scratch.clear();
    for (ClassId c : classes) {
      for (ClassId t : schema.TerminalDescendants(c)) {
        if (!seen[t]) {
          seen[t] = 1;
          terminals_scratch.push_back(t);
        }
      }
    }
    for (ClassId t : terminals_scratch) seen[t] = 0;
    return terminals_scratch;
  };

  // Tree-walker parity: every variable's candidate pool is sized before
  // any binding is charged, and an empty pool anywhere answers {} — even
  // under max_bindings == 0.
  for (VarId v = 0; v < n; ++v) {
    uint64_t pool = 0;
    if (program.range_classes[v].empty()) {
      pool = state.num_objects();
    } else {
      for (ClassId t : terminals_of(program.range_classes[v])) {
        pool += index.TerminalExtent(t).size();
      }
    }
    if (stats != nullptr) stats->candidate_pool += pool;
    if (pool == 0) return std::vector<Oid>{};
  }

  // Static candidate lists for the scan generators; the posting table of
  // each owner scan, looked up by attribute name once here.
  std::vector<Oid> all_oids;
  std::vector<LevelRt> levels(n);
  std::vector<std::vector<Oid>> owned(n);
  for (size_t d = 0; d < n; ++d) {
    const Op& gen = program.levels[d].gen;
    if (gen.code == OpCode::kScanAll) {
      if (all_oids.empty()) {
        all_oids.resize(state.num_objects());
        for (Oid oid = 0; oid < state.num_objects(); ++oid) all_oids[oid] = oid;
      }
      levels[d].data = all_oids.data();
      levels[d].size = all_oids.size();
    } else if (gen.code == OpCode::kScanExtent) {
      const std::vector<ClassId>& terminals = terminals_of(gen.classes);
      if (terminals.size() == 1) {
        const std::vector<Oid>& extent = index.TerminalExtent(terminals[0]);
        levels[d].data = extent.data();
        levels[d].size = extent.size();
      } else {
        for (ClassId t : terminals) {
          const std::vector<Oid>& extent = index.TerminalExtent(t);
          owned[d].insert(owned[d].end(), extent.begin(), extent.end());
        }
        levels[d].data = owned[d].data();
        levels[d].size = owned[d].size();
      }
    } else if (gen.code == OpCode::kScanRefOwners) {
      levels[d].postings = &index.RefPostings(program.probes[gen.probe]);
    } else if (gen.code == OpCode::kScanSetOwners) {
      levels[d].postings = &index.SetPostings(program.probes[gen.probe]);
    }
  }

  // Interned object of each constant, resolved once: payload equality in
  // the tree walker is oid equality here, because payloads exist only on
  // interned primitives. kInvalidOid = not interned = matches nothing.
  std::vector<Oid> const_oids(program.constants.size(), kInvalidOid);
  for (size_t i = 0; i < program.constants.size(); ++i) {
    const ConstantValue& value = program.constants[i];
    if (const int64_t* as_int = std::get_if<int64_t>(&value)) {
      const_oids[i] = state.FindInternedInt(*as_int);
    } else if (const double* as_real = std::get_if<double>(&value)) {
      const_oids[i] = state.FindInternedReal(*as_real);
    } else {
      const_oids[i] = state.FindInternedString(std::get<std::string>(value));
    }
  }

  // ---- Registers --------------------------------------------------------
  std::vector<Oid> reg(n, kInvalidOid);
  std::vector<const Value*> slot(program.slots.size(), nullptr);

  auto class_test = [&](Oid oid, const std::vector<ClassId>& classes) {
    const ClassId cls = state.class_of(oid);
    for (ClassId c : classes) {
      if (schema.IsSubclassOf(cls, c)) return true;
    }
    return false;
  };

  // One test op under 3-valued logic: unknown (Λ slot, wrong slot kind)
  // fails, exactly as only-kTrue-passes does in the tree walker.
  auto run_test = [&](const Op& test) {
    switch (test.code) {
      case OpCode::kTestClass:
        return class_test(reg[test.var_a], test.classes);
      case OpCode::kTestNotClass:
        return !class_test(reg[test.var_a], test.classes);
      case OpCode::kTestEqVarVar:
        return reg[test.var_a] == reg[test.var_b];
      case OpCode::kTestNeVarVar:
        return reg[test.var_a] != reg[test.var_b];
      case OpCode::kTestEqVarSlot: {
        const Value* value = slot[test.slot_b];
        return value != nullptr && value->kind() == Value::Kind::kRef &&
               value->ref() == reg[test.var_a];
      }
      case OpCode::kTestNeVarSlot: {
        const Value* value = slot[test.slot_b];
        return value != nullptr && value->kind() == Value::Kind::kRef &&
               value->ref() != reg[test.var_a];
      }
      case OpCode::kTestEqSlotSlot: {
        const Value* a = slot[test.slot_a];
        const Value* b = slot[test.slot_b];
        return a != nullptr && b != nullptr &&
               a->kind() == Value::Kind::kRef &&
               b->kind() == Value::Kind::kRef && a->ref() == b->ref();
      }
      case OpCode::kTestNeSlotSlot: {
        const Value* a = slot[test.slot_a];
        const Value* b = slot[test.slot_b];
        return a != nullptr && b != nullptr &&
               a->kind() == Value::Kind::kRef &&
               b->kind() == Value::Kind::kRef && a->ref() != b->ref();
      }
      case OpCode::kTestMember: {
        const Value* value = slot[test.slot_b];
        return value != nullptr && value->Contains(reg[test.var_a]);
      }
      case OpCode::kTestNotMember: {
        const Value* value = slot[test.slot_b];
        return value != nullptr && value->kind() == Value::Kind::kSet &&
               !value->Contains(reg[test.var_a]);
      }
      case OpCode::kTestConst:
        return reg[test.var_a] == const_oids[test.const_index] &&
               const_oids[test.const_index] != kInvalidOid;
      default:
        return false;
    }
  };

  auto open_level = [&](size_t d) {
    LevelRt& rt = levels[d];
    rt.cursor = 0;
    const Op& gen = program.levels[d].gen;
    switch (gen.code) {
      case OpCode::kScanExtent:
      case OpCode::kScanAll:
        break;  // static candidates installed above
      case OpCode::kBindFromVar:
        rt.single = reg[gen.var_b];
        rt.data = &rt.single;
        rt.size = 1;
        break;
      case OpCode::kBindFromSlotRef: {
        const Value* value = slot[gen.slot_a];
        if (value != nullptr && value->kind() == Value::Kind::kRef) {
          rt.single = value->ref();
          rt.data = &rt.single;
          rt.size = 1;
        } else {
          rt.size = 0;
        }
        break;
      }
      case OpCode::kScanSetMembers: {
        const Value* value = slot[gen.slot_a];
        if (value != nullptr && value->kind() == Value::Kind::kSet) {
          rt.data = value->set().data();
          rt.size = value->set().size();
        } else {
          rt.size = 0;
        }
        break;
      }
      case OpCode::kScanRefOwners:
      case OpCode::kScanSetOwners: {
        // The probe key: a register, or (ref owners only) a ref slot.
        std::optional<Oid> key;
        if (gen.var_b != kInvalidVarId) {
          key = reg[gen.var_b];
        } else if (const Value* value = slot[gen.slot_b];
                   value != nullptr && value->kind() == Value::Kind::kRef) {
          key = value->ref();
        }
        if (key.has_value()) {
          const std::span<const Oid> owners = rt.postings->Owners(*key);
          rt.data = owners.data();
          rt.size = owners.size();
        } else {
          rt.size = 0;  // Λ or non-ref key slot: the atom is unknown
        }
        break;
      }
      default:
        rt.size = 0;
        break;
    }
  };

  // ---- The one-pass loop ------------------------------------------------
  std::vector<Oid> answers;
  uint64_t bindings = 0;
  size_t depth = 0;
  open_level(0);
  Status failure = Status::Ok();
  while (true) {
    LevelRt& rt = levels[depth];
    if (rt.cursor >= rt.size) {
      if (depth == 0) break;
      --depth;
      ++levels[depth].cursor;
      continue;
    }
    if (++bindings > options.max_bindings) {
      failure = Status::ResourceExhausted(
          "evaluation exceeded EvalOptions::max_assignments");
      break;
    }
    if (options.cancel != nullptr && (bindings & 4095) == 0) {
      failure = options.cancel->Check();
      if (!failure.ok()) break;
    }
    const Level& level = program.levels[depth];
    const Oid candidate = rt.data[rt.cursor];
    reg[level.gen.var_a] = candidate;
    for (uint32_t s : level.loads) {
      slot[s] = state.GetAttribute(candidate, program.slots[s].attr);
    }
    if (!std::all_of(level.tests.begin(), level.tests.end(), run_test)) {
      ++rt.cursor;
      continue;
    }
    if (depth + 1 == n) {
      answers.push_back(reg[program.free_var]);
      ++rt.cursor;
      continue;
    }
    ++depth;
    open_level(depth);
  }

  if (stats != nullptr) stats->bindings += bindings;
  span.Arg("bindings", bindings)
      .Arg("answers", static_cast<uint64_t>(answers.size()));
  OOCQ_METRIC_ADD("eval/assignments", bindings);
  if (!failure.ok()) return failure;

  std::sort(answers.begin(), answers.end());
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
  return answers;
}

}  // namespace oocq::compile
