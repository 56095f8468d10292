#ifndef DEDDB_EVENTS_TRANSACTION_PROVIDER_H_
#define DEDDB_EVENTS_TRANSACTION_PROVIDER_H_

#include "datalog/predicate.h"
#include "eval/fact_provider.h"
#include "storage/transaction.h"

namespace deddb {

/// Exposes a Transaction's base event facts as the extensional relations of
/// the decorated event predicates: `ins$Q` resolves to the transaction's
/// insertion events for base predicate Q, `del$Q` to its deletion events.
/// Event predicates of derived predicates (and all other symbols) are empty
/// here — they are computed, not stored.
class TransactionProvider : public FactProvider {
 public:
  TransactionProvider(const Transaction* transaction,
                      const PredicateTable* predicates)
      : transaction_(transaction), predicates_(predicates) {}

  void ForEachMatch(SymbolId predicate, const TuplePattern& pattern,
                    const std::function<void(const Tuple&)>& fn) const override;
  bool Contains(SymbolId predicate, const Tuple& tuple) const override;
  size_t EstimateCount(SymbolId predicate) const override;
  /// Mask-aware (the event relation's own estimate), so a bound event
  /// probe costs below a scan of the transaction.
  size_t EstimateMatches(SymbolId predicate,
                         Relation::Mask bound_mask) const override;
  Relation::AccessPath DescribeAccess(
      SymbolId predicate, Relation::Mask bound_mask) const override;

 private:
  // The transaction's insertion or deletion events of the base predicate
  // `predicate` decorates, or nullptr when it is no base event predicate
  // (or the transaction has no such events).
  const Relation* RelationFor(SymbolId predicate) const;

  const Transaction* transaction_;
  const PredicateTable* predicates_;
};

}  // namespace deddb

#endif  // DEDDB_EVENTS_TRANSACTION_PROVIDER_H_
