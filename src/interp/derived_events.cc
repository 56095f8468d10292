#include "interp/derived_events.h"

#include <algorithm>
#include <vector>

#include "util/strings.h"

namespace deddb {

std::string DerivedEvents::ToString(const SymbolTable& symbols) const {
  std::vector<std::string> parts;
  inserts.ForEach([&](SymbolId pred, const Tuple& t) {
    parts.push_back(StrCat("ins ", AtomFromTuple(pred, t).ToString(symbols)));
  });
  deletes.ForEach([&](SymbolId pred, const Tuple& t) {
    parts.push_back(StrCat("del ", AtomFromTuple(pred, t).ToString(symbols)));
  });
  std::sort(parts.begin(), parts.end());
  return StrCat("{", Join(parts, ", "), "}");
}

const Relation* DerivedEventsProvider::RelationFor(SymbolId predicate) const {
  const PredicateInfo* info = predicates_->Find(predicate);
  if (info == nullptr || info->kind != PredicateKind::kDerived) return nullptr;
  switch (info->variant) {
    case PredicateVariant::kInsertEvent:
      return events_->inserts.Find(info->base_symbol);
    case PredicateVariant::kDeleteEvent:
      return events_->deletes.Find(info->base_symbol);
    default:
      return nullptr;
  }
}

void DerivedEventsProvider::ForEachMatch(
    SymbolId predicate, const TuplePattern& pattern,
    const std::function<void(const Tuple&)>& fn) const {
  const Relation* rel = RelationFor(predicate);
  if (rel != nullptr) rel->ForEachMatch(pattern, fn);
}

bool DerivedEventsProvider::Contains(SymbolId predicate,
                                     const Tuple& tuple) const {
  const Relation* rel = RelationFor(predicate);
  return rel != nullptr && rel->Contains(tuple);
}

size_t DerivedEventsProvider::EstimateCount(SymbolId predicate) const {
  const Relation* rel = RelationFor(predicate);
  return rel == nullptr ? 0 : rel->size();
}

size_t DerivedEventsProvider::EstimateMatches(
    SymbolId predicate, Relation::Mask bound_mask) const {
  const Relation* rel = RelationFor(predicate);
  return rel == nullptr ? 0 : rel->EstimateMatches(bound_mask);
}

Relation::AccessPath DerivedEventsProvider::DescribeAccess(
    SymbolId predicate, Relation::Mask bound_mask) const {
  return RelationAccess(RelationFor(predicate), bound_mask);
}

}  // namespace deddb
