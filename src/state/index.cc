#include "state/index.h"

#include <algorithm>
#include <utility>

#include "state/state.h"
#include "support/metrics.h"

namespace oocq {

std::span<const Oid> OwnerPostings::Owners(Oid value) const {
  auto [lo, hi] = std::equal_range(values_.begin(), values_.end(), value);
  return {owners_.data() + (lo - values_.begin()),
          static_cast<size_t>(hi - lo)};
}

StateIndex::StateIndex(const State& state) {
  OOCQ_METRIC_ADD("state/index_builds", 1);
  using Pairs = std::map<std::string, std::vector<std::pair<Oid, Oid>>,
                         std::less<>>;
  // (value, owner) per slot, in one pass over objects and slots.
  Pairs refs;
  Pairs sets;
  extents_.resize(state.schema().num_classes());
  for (Oid oid = 0; oid < state.num_objects(); ++oid) {
    extents_[state.class_of(oid)].push_back(oid);
    for (const auto& [attr, value] : state.attributes(oid)) {
      if (value.kind() == Value::Kind::kRef) {
        refs[attr].emplace_back(value.ref(), oid);
      } else if (value.kind() == Value::Kind::kSet) {
        std::vector<std::pair<Oid, Oid>>& list = sets[attr];
        for (Oid member : value.set()) list.emplace_back(member, oid);
      }
    }
  }
  auto finish = [](Pairs& pairs,
                   std::map<std::string, OwnerPostings, std::less<>>* out) {
    for (auto& [attr, list] : pairs) {
      // By value, then owner: each value's owners come out ascending.
      std::sort(list.begin(), list.end());
      OwnerPostings& postings = (*out)[attr];
      postings.values_.reserve(list.size());
      postings.owners_.reserve(list.size());
      for (const auto& [value, owner] : list) {
        postings.values_.push_back(value);
        postings.owners_.push_back(owner);
      }
    }
  };
  finish(refs, &ref_postings_);
  finish(sets, &set_postings_);
}

const OwnerPostings& StateIndex::RefPostings(std::string_view attr) const {
  auto it = ref_postings_.find(attr);
  return it == ref_postings_.end() ? empty_ : it->second;
}

const OwnerPostings& StateIndex::SetPostings(std::string_view attr) const {
  auto it = set_postings_.find(attr);
  return it == set_postings_.end() ? empty_ : it->second;
}

}  // namespace oocq
