#ifndef OOCQ_STATE_INDEX_H_
#define OOCQ_STATE_INDEX_H_

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "schema/type.h"
#include "state/value.h"

namespace oocq {

class State;

/// The owners of one attribute's values: for each value oid, the objects
/// whose slot holds it, ascending. Sorted parallel arrays, so a probe is
/// one binary search and the owners come back contiguous.
class OwnerPostings {
 public:
  /// Owners whose slot holds `value` (ascending; empty if none).
  std::span<const Oid> Owners(Oid value) const;

 private:
  friend class StateIndex;
  std::vector<Oid> values_;  // ascending, one entry per posting
  std::vector<Oid> owners_;  // owners_[i] holds values_[i]
};

/// The access paths of one State, built in one pass over its objects and
/// slots. The State owns and builds it (State::index()); the compiled
/// evaluator (compile/vm.h) reads:
///
///  - terminal extents: terminal class id -> its objects, ascending;
///  - ref postings: attribute -> value oid -> owners whose slot
///    references that value (`u = x.A` with u bound);
///  - set postings: attribute -> element oid -> owners whose set slot
///    contains the element (`u in x.A` with u bound).
///
/// Λ slots appear in neither posting family.
class StateIndex {
 public:
  explicit StateIndex(const State& state);

  /// The objects of terminal class `terminal`, ascending. Empty for
  /// non-terminal classes: every object belongs to exactly one terminal.
  const std::vector<Oid>& TerminalExtent(ClassId terminal) const {
    return extents_[terminal];
  }

  /// The postings of ref-valued slots named `attr` (empty if none).
  const OwnerPostings& RefPostings(std::string_view attr) const;

  /// The postings of set-valued slots named `attr` (empty if none).
  const OwnerPostings& SetPostings(std::string_view attr) const;

 private:
  std::vector<std::vector<Oid>> extents_;
  std::map<std::string, OwnerPostings, std::less<>> ref_postings_;
  std::map<std::string, OwnerPostings, std::less<>> set_postings_;
  OwnerPostings empty_;
};

}  // namespace oocq

#endif  // OOCQ_STATE_INDEX_H_
