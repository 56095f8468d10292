#ifndef DEDDB_INTERP_DERIVED_EVENTS_H_
#define DEDDB_INTERP_DERIVED_EVENTS_H_

#include <string>

#include "datalog/predicate.h"
#include "eval/fact_provider.h"
#include "storage/fact_store.h"

namespace deddb {

/// The result of the upward interpretation: the set of derived event facts
/// (induced insertions ιP and deletions δP) of a transition, keyed by the
/// derived predicate's kOld symbol.
struct DerivedEvents {
  FactStore inserts;
  FactStore deletes;

  bool ContainsInsert(SymbolId predicate, const Tuple& tuple) const {
    return inserts.Contains(predicate, tuple);
  }
  bool ContainsDelete(SymbolId predicate, const Tuple& tuple) const {
    return deletes.Contains(predicate, tuple);
  }
  size_t size() const { return inserts.TotalFacts() + deletes.TotalFacts(); }
  bool empty() const { return size() == 0; }

  /// `{del Unemp(Dolors), ins Ic1}` — sorted for deterministic output.
  std::string ToString(const SymbolTable& symbols) const;
};

/// Exposes computed derived events as the relations of the decorated event
/// predicates (`ins$P` / `del$P` for derived P), mirroring what
/// TransactionProvider does for base events.
class DerivedEventsProvider : public FactProvider {
 public:
  DerivedEventsProvider(const DerivedEvents* events,
                        const PredicateTable* predicates)
      : events_(events), predicates_(predicates) {}

  void ForEachMatch(SymbolId predicate, const TuplePattern& pattern,
                    const std::function<void(const Tuple&)>& fn) const override;
  bool Contains(SymbolId predicate, const Tuple& tuple) const override;
  size_t EstimateCount(SymbolId predicate) const override;
  /// Mask-aware (the event relation's own estimate), like
  /// TransactionProvider.
  size_t EstimateMatches(SymbolId predicate,
                         Relation::Mask bound_mask) const override;
  Relation::AccessPath DescribeAccess(
      SymbolId predicate, Relation::Mask bound_mask) const override;

 private:
  // The computed insertion or deletion events of the derived predicate
  // `predicate` decorates, or nullptr.
  const Relation* RelationFor(SymbolId predicate) const;

  const DerivedEvents* events_;
  const PredicateTable* predicates_;
};

}  // namespace deddb

#endif  // DEDDB_INTERP_DERIVED_EVENTS_H_
