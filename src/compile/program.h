#ifndef OOCQ_COMPILE_PROGRAM_H_
#define OOCQ_COMPILE_PROGRAM_H_

/// The flat register bytecode a terminal conjunctive query compiles into
/// (docs/compilation.md). A program is a list of *levels*, one per query
/// variable in binding order. Each level opens a loop with a *generator*
/// opcode, hoists the attribute dereferences owned by the bound variable
/// into *slot registers* (kLoadSlot), and then runs a list of *test*
/// opcodes — the atoms whose variables are all bound at this depth,
/// ordered by selectivity. The innermost level emits the free variable's
/// register into the answer set.
///
/// Registers:
///   - one Oid register per query variable (the current binding);
///   - one `const Value*` slot register per distinct attribute term
///     `v.attr` the query dereferences — loaded once per binding of `v`
///     instead of once per inner-loop iteration (the loop-invariant code
///     motion that gives the VM most of its speedup over the tree walker).
///
/// The 3-valued semantics of state/eval_internal.h map onto the tests
/// directly: an *unknown* operand (Λ slot, inapplicable attribute,
/// object-valued slot where a set is needed) makes the test fail, exactly
/// as only-kTrue-passes does in the tree walker.

#include <cstdint>
#include <string>
#include <vector>

#include "query/atom.h"
#include "query/term.h"
#include "schema/type.h"

namespace oocq::compile {

enum class OpCode : uint8_t {
  // ---- Generators (one per level; gen.var_a is the variable bound) ----
  /// Enumerate the extent of the level's class disjunction (`classes`).
  kScanExtent,
  /// Enumerate every object of the state (variable without a range atom).
  kScanAll,
  /// Enumerate the members of set slot `slot_a` (atom `x in y.A` with y
  /// bound earlier); a Λ or non-set slot yields zero candidates.
  kScanSetMembers,
  /// Bind to the single candidate in register `var_b` (atom `x = y`).
  kBindFromVar,
  /// Bind to the single object referenced by slot `slot_a` (atom
  /// `x = y.A`); a Λ or non-ref slot yields zero candidates.
  kBindFromSlotRef,
  /// Enumerate the owners whose ref slot `probes[probe]` references the
  /// key (atom `x.A = u` with u bound earlier): the key is register
  /// `var_b`, or, when var_b is invalid, the ref in slot `slot_b` (atom
  /// `x.A = y.B`); a Λ or non-ref key slot yields zero candidates.
  kScanRefOwners,
  /// Enumerate the owners whose set slot `probes[probe]` contains
  /// register `var_b` (atom `u in x.A` with u bound earlier).
  kScanSetOwners,

  // ---- Slot loads ----
  /// slot[slot_a] = GetAttribute(reg[var_a], attr of the slot).
  kLoadSlot,

  // ---- Tests (within a level, after the loads) ----
  /// reg[var_a] is a member of some class in `classes`.
  kTestClass,
  /// reg[var_a] is a member of no class in `classes`.
  kTestNotClass,
  /// reg[var_a] == reg[var_b].
  kTestEqVarVar,
  /// reg[var_a] == ref(slot[slot_b]); fails when the slot is not a ref.
  kTestEqVarSlot,
  /// ref(slot[slot_a]) == ref(slot[slot_b]); fails unless both are refs.
  kTestEqSlotSlot,
  /// Inequality counterparts; an unknown operand fails (3-valued logic).
  kTestNeVarVar,
  kTestNeVarSlot,
  kTestNeSlotSlot,
  /// reg[var_a] ∈ set(slot[slot_b]); fails when the slot is not a set.
  kTestMember,
  /// reg[var_a] ∉ set(slot[slot_b]); fails when the slot is not a set.
  kTestNotMember,
  /// reg[var_a] is the interned primitive of constants[const_index].
  kTestConst,
};

/// Mnemonic for the opcode ("scan_extent", "test_member", ...).
const char* OpCodeName(OpCode code);

/// A slot register definition: the hoisted attribute term `owner.attr`.
struct SlotDef {
  VarId owner = kInvalidVarId;
  std::string attr;
};

/// One instruction. Which fields are meaningful depends on the opcode
/// (see the enum); unused fields keep their defaults.
struct Op {
  OpCode code = OpCode::kScanAll;
  VarId var_a = kInvalidVarId;
  VarId var_b = kInvalidVarId;
  uint16_t slot_a = 0;
  uint16_t slot_b = 0;
  uint16_t probe = 0;
  uint32_t const_index = 0;
  std::vector<ClassId> classes;
};

/// One loop level of the program.
struct Level {
  Op gen;
  /// Slot registers to load right after binding (owner == gen.var_a).
  std::vector<uint16_t> loads;
  /// Tests scheduled at this depth, selectivity-ordered.
  std::vector<Op> tests;
};

/// A compiled terminal conjunctive query. State-independent: the program
/// depends only on (schema, query), so it is cacheable per session and
/// reusable across states; the VM specializes extents, owner postings
/// and interned constants per execution.
struct CompiledQuery {
  VarId free_var = kInvalidVarId;
  uint32_t num_vars = 0;
  std::vector<SlotDef> slots;
  std::vector<ConstantValue> constants;
  /// Attribute names the owner-scan generators probe (Op::probe).
  std::vector<std::string> probes;
  std::vector<Level> levels;
  /// Per-variable range-atom class disjunction (empty = no range atom,
  /// the variable ranges over the whole active domain). The VM uses this
  /// for the tree-walker-parity empty-pool early exit: if any variable's
  /// candidate pool is empty the answer is empty before any binding is
  /// tried or charged against the assignment budget.
  std::vector<std::vector<ClassId>> range_classes;

  /// Human-readable opcode listing (docs and golden tests).
  std::string DebugString() const;
};

}  // namespace oocq::compile

#endif  // OOCQ_COMPILE_PROGRAM_H_
