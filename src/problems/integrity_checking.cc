#include "problems/integrity_checking.h"

#include <algorithm>

#include "interp/old_state.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace deddb::problems {

Result<bool> IcHolds(const Database& db, const EvaluationOptions& eval) {
  DEDDB_RETURN_IF_ERROR(ResourceGuard::Check(eval.guard));
  OldStateView old_state(&db, eval);
  return old_state.Holds(Atom(db.global_ic(), {}));
}

Result<IntegrityCheckResult> CheckIntegrity(const Database& db,
                                            const CompiledEvents& compiled,
                                            const Transaction& transaction,
                                            const UpwardOptions& options,
                                            ConsistencyProof proof) {
  obs::ScopedSpan span(options.eval.obs.tracer, "problem.integrity_checking");
  if (span.enabled()) {
    span.AttrStr("txn", transaction.ToString(db.symbols()));
  }
  obs::MetricsRegistry::Add(options.eval.obs.metrics,
                            "problem.integrity_checking.calls");
  if (proof != ConsistencyProof::kConsistent) {
    DEDDB_ASSIGN_OR_RETURN(bool inconsistent, IcHolds(db, options.eval));
    if (inconsistent) {
      return FailedPreconditionError(
          "integrity checking requires a consistent database (¬Ic⁰); use "
          "CheckConsistencyRestored or RepairDatabase instead");
    }
  }
  UpwardInterpreter upward(&db, &compiled, options,
                           ConsistencyProof::kConsistent);
  DEDDB_ASSIGN_OR_RETURN(DerivedEvents events,
                         upward.InducedEventsFor(transaction,
                                                 {db.global_ic()}));
  IntegrityCheckResult result;
  result.violated = events.ContainsInsert(db.global_ic(), {});
  for (SymbolId ic : db.ic_predicates()) {
    const Relation* rel = events.inserts.Find(ic);
    if (rel == nullptr) continue;
    rel->ForEach([&](const Tuple& t) {
      result.violations.push_back(AtomFromTuple(ic, t));
    });
  }
  std::sort(result.violations.begin(), result.violations.end());
  if (span.enabled()) {
    span.AttrInt("violated", result.violated ? 1 : 0);
    span.AttrInt("violations", static_cast<int64_t>(result.violations.size()));
  }
  return result;
}

Result<ConsistencyRestorationResult> CheckConsistencyRestored(
    const Database& db, const CompiledEvents& compiled,
    const Transaction& transaction, const UpwardOptions& options) {
  obs::ScopedSpan span(options.eval.obs.tracer,
                       "problem.consistency_restoration");
  if (span.enabled()) {
    span.AttrStr("txn", transaction.ToString(db.symbols()));
  }
  obs::MetricsRegistry::Add(options.eval.obs.metrics,
                            "problem.consistency_restoration.calls");
  DEDDB_ASSIGN_OR_RETURN(bool inconsistent, IcHolds(db, options.eval));
  if (!inconsistent) {
    return FailedPreconditionError(
        "consistency-restoration checking requires an inconsistent database "
        "(Ic⁰); use CheckIntegrity instead");
  }
  UpwardInterpreter upward(&db, &compiled, options);
  DEDDB_ASSIGN_OR_RETURN(DerivedEvents events,
                         upward.InducedEventsFor(transaction,
                                                 {db.global_ic()}));
  ConsistencyRestorationResult result;
  result.restored = events.ContainsDelete(db.global_ic(), {});
  if (span.enabled()) span.AttrInt("restored", result.restored ? 1 : 0);
  return result;
}

}  // namespace deddb::problems
