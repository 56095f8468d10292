#ifndef DEDDB_INTERP_OLD_STATE_H_
#define DEDDB_INTERP_OLD_STATE_H_

#include <memory>
#include <mutex>
#include <vector>

#include "eval/fact_provider.h"
#include "eval/query_engine.h"
#include "storage/database.h"

namespace deddb {

/// What the code building an OldStateView has proved about the state it
/// views. kConsistent means ¬Ic⁰ was established for exactly that state —
/// IcHolds answered false on it, or an integrity-checked commit produced it
/// (paper Table 4.1: integrity checking is upward ιIc *given* ¬Ic⁰). Only a
/// proof may be passed: problems specified given Ic⁰ (consistency
/// restoration, repair, maintaining inconsistency) never hold one.
enum class ConsistencyProof { kUnproven, kConsistent };

/// Answers queries about the *old* (current) database state D⁰: base
/// predicates directly from the extensional store, derived predicates
/// through a QueryEngine over the original program (goal-directed, with
/// caching). Materialized views are served from their stored extension,
/// which is by definition the old state.
///
/// Also usable as a FactProvider so rule bodies mixing old literals and
/// event literals can be joined uniformly.
///
/// Given ConsistencyProof::kConsistent, the view answers the global `Ic`,
/// and every `Ic_i` the program derives it from through the rule
/// `Ic <- Ic_i(x1,...,xk)`, as empty through every entry point without
/// running the query engine: for the 0-ary `Ic` that evaluation is an
/// exhaustive consistency proof over the whole database.
class OldStateView : public FactProvider {
 public:
  /// `db` must outlive the view. Evaluation of derived predicates uses
  /// `options`.
  explicit OldStateView(const Database* db, EvaluationOptions options = {},
                        ConsistencyProof proof = ConsistencyProof::kUnproven);

  void ForEachMatch(SymbolId predicate, const TuplePattern& pattern,
                    const std::function<void(const Tuple&)>& fn) const override;
  /// True lazy streaming for derived predicates (solutions are produced one
  /// at a time through the query engine and the scan stops as soon as `fn`
  /// returns false), so satisfiability probes do not materialize extensions.
  bool ForEachMatchUntil(
      SymbolId predicate, const TuplePattern& pattern,
      const std::function<bool(const Tuple&)>& fn) const override;
  bool Contains(SymbolId predicate, const Tuple& tuple) const override;
  size_t EstimateCount(SymbolId predicate) const override;
  /// Mask-aware for base predicates and materialized views (their stored
  /// relation's estimate), 0 for a proven-empty Ic/Ic_i, kUnknownCount for
  /// other derived predicates, so the join planner costs a bound base probe
  /// below a scan.
  size_t EstimateMatches(SymbolId predicate,
                         Relation::Mask bound_mask) const override;
  /// The stored relation's access path for base predicates and
  /// materialized views, empty for a proven-empty Ic/Ic_i, an
  /// unknown-cost scan for other derived predicates (resolved top-down).
  Relation::AccessPath DescribeAccess(
      SymbolId predicate, Relation::Mask bound_mask) const override;

  /// True if the ground atom holds in the old state (base lookup or derived
  /// query). Errors from evaluation are reported.
  Result<bool> Holds(const Atom& ground_atom) const;

  /// All ground instances of `pattern` (an atom possibly with variables)
  /// that hold in the old state.
  Result<std::vector<Tuple>> Query(const Atom& pattern) const;

  /// Drops derived-predicate caches (call if the EDB changed).
  void Invalidate();

  /// Re-points the guard consulted by derived-predicate evaluation (nullptr
  /// removes it). Forwards to the underlying QueryEngine, which captured its
  /// options when this view was constructed — without this, a guard armed
  /// after construction would never be consulted and its typed statuses
  /// (kDeadlineExceeded / kBudgetExceeded / kCancelled) never surface.
  void set_guard(const ResourceGuard* guard);

  const Database& db() const { return *db_; }

 private:
  // True if the proof makes `predicate` empty in the viewed state.
  bool ProvenEmpty(SymbolId predicate) const;

  const Database* db_;
  // Ic and the Ic_i it is defined from, when the state is proved consistent.
  std::vector<SymbolId> proven_empty_;
  std::unique_ptr<FactStoreProvider> edb_provider_;
  // QueryEngine caches materializations; logically const access. The mutex
  // serializes engine access so the view stays a valid FactProvider under
  // the parallel evaluator's concurrent const reads (base-predicate and
  // materialized-view lookups bypass it and stay lock-free). Recursive
  // because a body join enumerating one old-state literal probes the next
  // literal through the same view on the same thread.
  mutable std::recursive_mutex engine_mu_;
  mutable std::unique_ptr<QueryEngine> engine_;
};

}  // namespace deddb

#endif  // DEDDB_INTERP_OLD_STATE_H_
