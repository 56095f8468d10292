#ifndef DEDDB_PROBLEMS_INTEGRITY_CHECKING_H_
#define DEDDB_PROBLEMS_INTEGRITY_CHECKING_H_

#include <vector>

#include "interp/upward.h"
#include "storage/database.h"
#include "storage/transaction.h"

namespace deddb::problems {

/// True if the global inconsistency predicate Ic holds in the current state
/// (i.e. some integrity constraint is violated).
Result<bool> IcHolds(const Database& db, const EvaluationOptions& eval = {});

/// Integrity constraints checking (paper §5.1.1), specified as the upward
/// interpretation of ιIc given ¬Ic⁰.
struct IntegrityCheckResult {
  /// True if the transaction induces ιIc — it violates some constraint and
  /// must be rejected.
  bool violated = false;
  /// The induced ground Ic_i instances (which constraints, with which
  /// bindings).
  std::vector<Atom> violations;
};

/// Given a consistent database and a transaction, determines incrementally
/// whether the transaction violates the integrity constraints. Fails with
/// kFailedPrecondition if the database is already inconsistent. A caller
/// that has already proved ¬Ic⁰ for `db` passes kConsistent and skips the
/// proof; either way the upward pass runs given ¬Ic⁰.
Result<IntegrityCheckResult> CheckIntegrity(
    const Database& db, const CompiledEvents& compiled,
    const Transaction& transaction, const UpwardOptions& options = {},
    ConsistencyProof proof = ConsistencyProof::kUnproven);

/// The complementary problem of §5.1.1: given an *inconsistent* database and
/// a transaction, checks whether the transaction restores consistency
/// (upward interpretation of δIc given Ic⁰). Fails with kFailedPrecondition
/// if the database is consistent.
struct ConsistencyRestorationResult {
  /// True if the transaction induces δIc — the updated database is
  /// consistent.
  bool restored = false;
};

Result<ConsistencyRestorationResult> CheckConsistencyRestored(
    const Database& db, const CompiledEvents& compiled,
    const Transaction& transaction, const UpwardOptions& options = {});

}  // namespace deddb::problems

#endif  // DEDDB_PROBLEMS_INTEGRITY_CHECKING_H_
