#include "events/transaction_provider.h"

namespace deddb {

const Relation* TransactionProvider::RelationFor(SymbolId predicate) const {
  const PredicateInfo* info = predicates_->Find(predicate);
  if (info == nullptr || info->kind != PredicateKind::kBase) return nullptr;
  switch (info->variant) {
    case PredicateVariant::kInsertEvent:
      return transaction_->inserts().Find(info->base_symbol);
    case PredicateVariant::kDeleteEvent:
      return transaction_->deletes().Find(info->base_symbol);
    default:
      return nullptr;
  }
}

void TransactionProvider::ForEachMatch(
    SymbolId predicate, const TuplePattern& pattern,
    const std::function<void(const Tuple&)>& fn) const {
  const Relation* rel = RelationFor(predicate);
  if (rel != nullptr) rel->ForEachMatch(pattern, fn);
}

bool TransactionProvider::Contains(SymbolId predicate,
                                   const Tuple& tuple) const {
  const Relation* rel = RelationFor(predicate);
  return rel != nullptr && rel->Contains(tuple);
}

size_t TransactionProvider::EstimateCount(SymbolId predicate) const {
  const Relation* rel = RelationFor(predicate);
  return rel == nullptr ? 0 : rel->size();
}

size_t TransactionProvider::EstimateMatches(SymbolId predicate,
                                            Relation::Mask bound_mask) const {
  const Relation* rel = RelationFor(predicate);
  return rel == nullptr ? 0 : rel->EstimateMatches(bound_mask);
}

Relation::AccessPath TransactionProvider::DescribeAccess(
    SymbolId predicate, Relation::Mask bound_mask) const {
  return RelationAccess(RelationFor(predicate), bound_mask);
}

}  // namespace deddb
