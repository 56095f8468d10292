#include "eval/fact_provider.h"

namespace deddb {

void FactStoreProvider::ForEachMatch(
    SymbolId predicate, const TuplePattern& pattern,
    const std::function<void(const Tuple&)>& fn) const {
  const Relation* rel = store_->Find(predicate);
  if (rel == nullptr) return;
  rel->ForEachMatch(pattern, fn);
}

bool FactStoreProvider::Contains(SymbolId predicate,
                                 const Tuple& tuple) const {
  return store_->Contains(predicate, tuple);
}

void LayeredProvider::ForEachMatch(
    SymbolId predicate, const TuplePattern& pattern,
    const std::function<void(const Tuple&)>& fn) const {
  for (const FactProvider* layer : layers_) {
    layer->ForEachMatch(predicate, pattern, fn);
  }
}

bool LayeredProvider::ForEachMatchUntil(
    SymbolId predicate, const TuplePattern& pattern,
    const std::function<bool(const Tuple&)>& fn) const {
  for (const FactProvider* layer : layers_) {
    if (layer->ForEachMatchUntil(predicate, pattern, fn)) return true;
  }
  return false;
}

bool LayeredProvider::Contains(SymbolId predicate, const Tuple& tuple) const {
  for (const FactProvider* layer : layers_) {
    if (layer->Contains(predicate, tuple)) return true;
  }
  return false;
}

size_t FactStoreProvider::EstimateCount(SymbolId predicate) const {
  const Relation* rel = store_->Find(predicate);
  return rel == nullptr ? 0 : rel->size();
}

size_t LayeredProvider::EstimateCount(SymbolId predicate) const {
  size_t total = 0;
  for (const FactProvider* layer : layers_) {
    size_t n = layer->EstimateCount(predicate);
    if (n == kUnknownCount) return kUnknownCount;
    total += n;
  }
  return total;
}

size_t FactStoreProvider::EstimateMatches(SymbolId predicate,
                                          Relation::Mask bound_mask) const {
  const Relation* rel = store_->Find(predicate);
  return rel == nullptr ? 0 : rel->EstimateMatches(bound_mask);
}

Relation::AccessPath RelationAccess(const Relation* rel,
                                    Relation::Mask bound_mask) {
  if (rel == nullptr) {
    Relation::AccessPath path;
    path.kind = Relation::AccessPath::Kind::kEmpty;
    path.estimated_rows = 0;
    return path;
  }
  return rel->PlanAccess(bound_mask);
}

Relation::AccessPath FactStoreProvider::DescribeAccess(
    SymbolId predicate, Relation::Mask bound_mask) const {
  return RelationAccess(store_->Find(predicate), bound_mask);
}

size_t LayeredProvider::EstimateMatches(SymbolId predicate,
                                        Relation::Mask bound_mask) const {
  size_t total = 0;
  for (const FactProvider* layer : layers_) {
    size_t n = layer->EstimateMatches(predicate, bound_mask);
    if (n == kUnknownCount) return kUnknownCount;
    total += n;
  }
  return total;
}

Relation::AccessPath LayeredProvider::DescribeAccess(
    SymbolId predicate, Relation::Mask bound_mask) const {
  Relation::AccessPath path;
  path.kind = Relation::AccessPath::Kind::kEmpty;
  path.estimated_rows = EstimateMatches(predicate, bound_mask);
  for (const FactProvider* layer : layers_) {
    if (layer->EstimateCount(predicate) > 0) {
      Relation::AccessPath inner = layer->DescribeAccess(predicate, bound_mask);
      inner.estimated_rows = path.estimated_rows;
      return inner;
    }
  }
  return path;
}

}  // namespace deddb
