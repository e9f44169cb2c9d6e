#include "compile/program.h"

namespace oocq::compile {

const char* OpCodeName(OpCode code) {
  switch (code) {
    case OpCode::kScanExtent: return "scan_extent";
    case OpCode::kScanAll: return "scan_all";
    case OpCode::kScanSetMembers: return "scan_set_members";
    case OpCode::kBindFromVar: return "bind_from_var";
    case OpCode::kBindFromSlotRef: return "bind_from_slot_ref";
    case OpCode::kScanRefOwners: return "scan_ref_owners";
    case OpCode::kScanSetOwners: return "scan_set_owners";
    case OpCode::kLoadSlot: return "load_slot";
    case OpCode::kTestClass: return "test_class";
    case OpCode::kTestNotClass: return "test_not_class";
    case OpCode::kTestEqVarVar: return "test_eq_var_var";
    case OpCode::kTestEqVarSlot: return "test_eq_var_slot";
    case OpCode::kTestEqSlotSlot: return "test_eq_slot_slot";
    case OpCode::kTestNeVarVar: return "test_ne_var_var";
    case OpCode::kTestNeVarSlot: return "test_ne_var_slot";
    case OpCode::kTestNeSlotSlot: return "test_ne_slot_slot";
    case OpCode::kTestMember: return "test_member";
    case OpCode::kTestNotMember: return "test_not_member";
    case OpCode::kTestConst: return "test_const";
  }
  return "unknown";
}

namespace {

void AppendOp(const CompiledQuery& program, const Op& op, std::string* out) {
  *out += OpCodeName(op.code);
  if (op.var_a != kInvalidVarId) *out += " v" + std::to_string(op.var_a);
  if (op.var_b != kInvalidVarId) *out += " v" + std::to_string(op.var_b);
  switch (op.code) {
    case OpCode::kScanSetMembers:
    case OpCode::kBindFromSlotRef:
    case OpCode::kTestEqSlotSlot:
    case OpCode::kTestNeSlotSlot:
      *out += " s" + std::to_string(op.slot_a);
      break;
    default:
      break;
  }
  switch (op.code) {
    case OpCode::kTestEqVarSlot:
    case OpCode::kTestNeVarSlot:
    case OpCode::kTestEqSlotSlot:
    case OpCode::kTestNeSlotSlot:
    case OpCode::kTestMember:
    case OpCode::kTestNotMember:
      *out += " s" + std::to_string(op.slot_b);
      break;
    case OpCode::kScanRefOwners:
      if (op.var_b == kInvalidVarId) *out += " s" + std::to_string(op.slot_b);
      [[fallthrough]];
    case OpCode::kScanSetOwners:
      *out += " ." + program.probes[op.probe];
      break;
    default:
      break;
  }
  if (op.code == OpCode::kTestConst) {
    out->append(" ").append(
        ConstantToString(program.constants[op.const_index]));
  }
  for (ClassId c : op.classes) *out += " c" + std::to_string(c);
  *out += "\n";
}

}  // namespace

std::string CompiledQuery::DebugString() const {
  std::string out;
  out += "program vars=" + std::to_string(num_vars) +
         " free=v" + std::to_string(free_var) +
         " slots=" + std::to_string(slots.size()) + "\n";
  for (size_t i = 0; i < slots.size(); ++i) {
    out += "  slot s" + std::to_string(i) + " = v" +
           std::to_string(slots[i].owner) + "." + slots[i].attr + "\n";
  }
  for (size_t d = 0; d < levels.size(); ++d) {
    const Level& level = levels[d];
    out.append("L").append(std::to_string(d)).append(": ");
    AppendOp(*this, level.gen, &out);
    for (uint32_t s : level.loads) {
      out += "    load_slot s" + std::to_string(s) + "\n";
    }
    for (const Op& test : level.tests) {
      out += "    ";
      AppendOp(*this, test, &out);
    }
  }
  out += "    emit v" + std::to_string(free_var) + "\n";
  return out;
}

}  // namespace oocq::compile
