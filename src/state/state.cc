#include "state/state.h"

namespace oocq {

Oid State::AddRaw(ClassId cls) {
  DropIndex();
  Oid oid = static_cast<Oid>(objects_.size());
  objects_.push_back(ObjectData{cls, {}, std::monostate{}});
  return oid;
}

StatusOr<Oid> State::AddObject(ClassId terminal_class) {
  if (terminal_class >= schema_->num_classes()) {
    return Status::InvalidArgument("unknown class id " +
                                   std::to_string(terminal_class));
  }
  const ClassInfo& info = schema_->class_info(terminal_class);
  if (info.is_builtin) {
    return Status::InvalidArgument(
        "primitive objects are created with InternInt/InternReal/"
        "InternString, not AddObject");
  }
  if (!info.is_terminal) {
    return Status::InvalidArgument(
        "objects belong to terminal classes; '" + info.name +
        "' is non-terminal (Terminal Class Partitioning Assumption)");
  }
  Oid oid = AddRaw(terminal_class);
  for (const AttributeDef& attr : info.all_attributes) {
    objects_[oid].attributes.emplace(attr.name, Value::Null());
  }
  return oid;
}

Status State::SetAttribute(Oid oid, std::string_view attr, Value value) {
  if (oid >= objects_.size()) {
    return Status::InvalidArgument("unknown oid " + std::to_string(oid));
  }
  auto it = objects_[oid].attributes.find(attr);
  if (it == objects_[oid].attributes.end()) {
    return Status::NotFound(
        "class '" + schema_->class_name(objects_[oid].cls) +
        "' has no attribute '" + std::string(attr) + "'");
  }
  DropIndex();
  it->second = std::move(value);
  return Status::Ok();
}

Oid State::InternInt(int64_t value) {
  auto [it, inserted] = int_pool_.emplace(value, kInvalidOid);
  if (inserted) {
    it->second = AddRaw(kIntClassId);
    objects_[it->second].payload = value;
  }
  return it->second;
}

Oid State::InternReal(double value) {
  auto [it, inserted] = real_pool_.emplace(value, kInvalidOid);
  if (inserted) {
    it->second = AddRaw(kRealClassId);
    objects_[it->second].payload = value;
  }
  return it->second;
}

Oid State::InternString(std::string value) {
  auto [it, inserted] = string_pool_.emplace(std::move(value), kInvalidOid);
  if (inserted) {
    it->second = AddRaw(kStringClassId);
    objects_[it->second].payload = it->first;
  }
  return it->second;
}

Oid State::FindInternedInt(int64_t value) const {
  auto it = int_pool_.find(value);
  return it == int_pool_.end() ? kInvalidOid : it->second;
}

Oid State::FindInternedReal(double value) const {
  auto it = real_pool_.find(value);
  return it == real_pool_.end() ? kInvalidOid : it->second;
}

Oid State::FindInternedString(std::string_view value) const {
  auto it = string_pool_.find(value);
  return it == string_pool_.end() ? kInvalidOid : it->second;
}

const Value* State::GetAttribute(Oid oid, std::string_view attr) const {
  if (oid >= objects_.size()) return nullptr;
  auto it = objects_[oid].attributes.find(attr);
  return it == objects_[oid].attributes.end() ? nullptr : &it->second;
}

const StateIndex& State::index() const {
  LazyIndex::Holder& holder = *index_.holder;
  std::call_once(holder.once, [&] {
    holder.index = std::make_unique<const StateIndex>(*this);
  });
  return *holder.index;
}

void State::DropIndex() {
  // An unbuilt holder is kept, so bulk loading allocates nothing.
  if (index_.holder == nullptr || index_.holder->index != nullptr) {
    index_.holder = std::make_unique<LazyIndex::Holder>();
  }
}

std::vector<Oid> State::Extent(ClassId c) const {
  std::vector<Oid> result;
  for (Oid oid = 0; oid < objects_.size(); ++oid) {
    if (schema_->IsSubclassOf(objects_[oid].cls, c)) result.push_back(oid);
  }
  return result;
}

Status State::Validate() const {
  for (Oid oid = 0; oid < objects_.size(); ++oid) {
    const ObjectData& object = objects_[oid];
    for (const auto& [name, value] : object.attributes) {
      const TypeExpr* type = schema_->FindAttribute(object.cls, name);
      if (type == nullptr) {
        return Status::Internal("object " + DebugString(oid) +
                                " stores undeclared attribute '" + name + "'");
      }
      switch (value.kind()) {
        case Value::Kind::kNull:
          break;
        case Value::Kind::kRef:
          if (type->is_set()) {
            return Status::InvalidArgument(
                "attribute '" + name + "' of " + DebugString(oid) +
                " is set-typed but holds a single reference");
          }
          if (value.ref() >= objects_.size() ||
              !schema_->IsSubclassOf(objects_[value.ref()].cls, type->cls())) {
            return Status::InvalidArgument(
                "attribute '" + name + "' of " + DebugString(oid) +
                " references an object outside class '" +
                schema_->class_name(type->cls()) + "'");
          }
          break;
        case Value::Kind::kSet:
          if (!type->is_set()) {
            return Status::InvalidArgument(
                "attribute '" + name + "' of " + DebugString(oid) +
                " is object-typed but holds a set");
          }
          for (Oid member : value.set()) {
            if (member >= objects_.size() ||
                !schema_->IsSubclassOf(objects_[member].cls, type->cls())) {
              return Status::InvalidArgument(
                  "attribute '" + name + "' of " + DebugString(oid) +
                  " contains a member outside class '" +
                  schema_->class_name(type->cls()) + "'");
            }
          }
          break;
      }
    }
  }
  return Status::Ok();
}

std::string State::DebugString(Oid oid) const {
  if (oid >= objects_.size()) return "<invalid oid>";
  const ObjectData& object = objects_[oid];
  const std::string& cls = schema_->class_name(object.cls);
  if (std::holds_alternative<int64_t>(object.payload)) {
    return cls + "(" + std::to_string(std::get<int64_t>(object.payload)) + ")";
  }
  if (std::holds_alternative<double>(object.payload)) {
    return cls + "(" + std::to_string(std::get<double>(object.payload)) + ")";
  }
  if (std::holds_alternative<std::string>(object.payload)) {
    return cls + "(\"" + std::get<std::string>(object.payload) + "\")";
  }
  return cls + "#" + std::to_string(oid);
}

}  // namespace oocq
