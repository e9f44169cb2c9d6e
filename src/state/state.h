#ifndef OOCQ_STATE_STATE_H_
#define OOCQ_STATE_STATE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "schema/schema.h"
#include "state/index.h"
#include "state/value.h"
#include "support/status.h"

namespace oocq {

/// A database state: a finite collection of objects, each belonging to
/// exactly one *terminal* class (which realizes the Terminal Class
/// Partitioning Assumption — the extent of a non-terminal class is the
/// disjoint union of its terminal descendants' extents). Attribute slots
/// hold Values (Λ, reference, or set of references).
///
/// Primitive values are objects too: InternInt/InternReal/InternString
/// return a canonical Oid per value, in the corresponding built-in class.
///
/// The State borrows the Schema; the schema must outlive the state.
class State {
 public:
  explicit State(const Schema* schema) : schema_(schema) {}

  const Schema& schema() const { return *schema_; }

  /// Creates an object of a *terminal, non-builtin* class with all
  /// attributes initialized to Λ.
  StatusOr<Oid> AddObject(ClassId terminal_class);

  /// Sets an attribute of an object. The attribute must exist on the
  /// object's class; the value is type-checked on Validate(), not here.
  Status SetAttribute(Oid oid, std::string_view attr, Value value);

  /// Canonical primitive objects (created on first use).
  Oid InternInt(int64_t value);
  Oid InternReal(double value);
  Oid InternString(std::string value);

  /// The already-interned primitive with this value, or kInvalidOid
  /// (const lookup; never creates).
  Oid FindInternedInt(int64_t value) const;
  Oid FindInternedReal(double value) const;
  Oid FindInternedString(std::string_view value) const;

  /// Payload of a primitive object; monostate for user objects.
  using Payload = std::variant<std::monostate, int64_t, double, std::string>;

  size_t num_objects() const { return objects_.size(); }
  ClassId class_of(Oid oid) const { return objects_[oid].cls; }
  const Payload& payload(Oid oid) const { return objects_[oid].payload; }

  /// The attribute slot of an object, or nullptr if the object's class
  /// has no such attribute.
  const Value* GetAttribute(Oid oid, std::string_view attr) const;

  /// Every attribute slot of an object, by name (none for primitives).
  const std::map<std::string, Value, std::less<>>& attributes(Oid oid) const {
    return objects_[oid].attributes;
  }

  /// The extent of class `c`: all objects whose terminal class is a
  /// descendant-or-self of `c`. Primitive extents contain the interned
  /// values only (active-domain semantics; the conceptual extent is
  /// unbounded).
  std::vector<Oid> Extent(ClassId c) const;

  /// Whether `oid` is a member of class `c`.
  bool IsMember(Oid oid, ClassId c) const {
    return schema_->IsSubclassOf(objects_[oid].cls, c);
  }

  /// Checks that this is a legal state: every attribute value type-checks
  /// against the schema (references land in the attribute's class, set
  /// members in the element class; set-typed slots hold sets, object-typed
  /// slots hold references).
  Status Validate() const;

  /// "Auto#3", "Int(42)", ... for diagnostics.
  std::string DebugString(Oid oid) const;

  /// The access paths of this state (state/index.h), built on the first
  /// call and reused until a mutation (AddObject, SetAttribute, Intern*)
  /// drops them. Thread-safe: concurrent first calls build one index.
  const StateIndex& index() const;

 private:
  struct ObjectData {
    ClassId cls;
    std::map<std::string, Value, std::less<>> attributes;
    Payload payload;
  };

  /// The lazily built index. Heap-held so State stays movable; a copy
  /// starts unbuilt, since it may diverge from the original.
  struct LazyIndex {
    struct Holder {
      std::once_flag once;
      std::unique_ptr<const StateIndex> index;
    };
    LazyIndex() = default;
    LazyIndex(const LazyIndex&) {}
    LazyIndex& operator=(const LazyIndex&) {
      holder = std::make_unique<Holder>();
      return *this;
    }
    LazyIndex(LazyIndex&&) = default;
    LazyIndex& operator=(LazyIndex&&) = default;

    std::unique_ptr<Holder> holder = std::make_unique<Holder>();
  };

  Oid AddRaw(ClassId cls);
  /// Called by every mutation before it changes the state.
  void DropIndex();

  const Schema* schema_;
  std::vector<ObjectData> objects_;
  std::map<int64_t, Oid> int_pool_;
  std::map<double, Oid> real_pool_;
  std::map<std::string, Oid, std::less<>> string_pool_;
  LazyIndex index_;
};

}  // namespace oocq

#endif  // OOCQ_STATE_STATE_H_
