#ifndef DEDDB_INTERP_UPWARD_H_
#define DEDDB_INTERP_UPWARD_H_

#include <functional>
#include <optional>
#include <vector>

#include "eval/join_plan.h"
#include "events/event_compiler.h"
#include "events/transaction_provider.h"
#include "interp/derived_events.h"
#include "interp/old_state.h"
#include "storage/transaction.h"
#include "util/status.h"

namespace deddb {

/// How the upward interpretation computes the new-state / event relations.
enum class UpwardStrategy {
  /// Interpret the event rules incrementally (paper §4.1): evaluate the
  /// event-rule bodies against the old state + the transaction, processing
  /// derived predicates bottom-up. Cost scales with the size of the
  /// transaction and the affected portion of the database (when the compiled
  /// rules are simplified).
  kEventRules,
  /// Baseline: fully compute the old and new derived states and take the
  /// set difference (eqs. 1-2 applied literally). Cost scales with the
  /// database. Used as the comparison point in the Perf-A benchmark.
  kRecompute,
};

struct UpwardOptions {
  UpwardStrategy strategy = UpwardStrategy::kEventRules;
  EvaluationOptions eval;
};

struct UpwardStats {
  size_t bodies_evaluated = 0;
  size_t candidates_checked = 0;
  size_t events_found = 0;
};

/// The upward interpretation of the event rules (paper §4.1): given a
/// transaction (a set of base event facts), computes the insertions and
/// deletions induced on derived predicates.
class UpwardInterpreter {
 public:
  /// `db` and `compiled` must outlive the interpreter. `compiled` must have
  /// been produced by an EventCompiler over `db`. `proof` is what the caller
  /// has proved about `db`; kConsistent lets the event-rule strategy answer
  /// the old-state Ic literals (the ¬Ic⁰ of ιIc) without evaluating them.
  UpwardInterpreter(const Database* db, const CompiledEvents* compiled,
                    UpwardOptions options = {},
                    ConsistencyProof proof = ConsistencyProof::kUnproven);

  /// Computes the induced events for all derived predicates. The transaction
  /// should be valid w.r.t. the current state (Transaction::Validate);
  /// invalid events are not errors here but produce no induced change
  /// (matching eqs. 1-2, under which they are simply not events).
  Result<DerivedEvents> InducedEvents(const Transaction& transaction);

  /// Computes the induced events only for `goals` (kOld derived symbols) and
  /// the derived predicates they transitively need.
  Result<DerivedEvents> InducedEventsFor(const Transaction& transaction,
                                         const std::vector<SymbolId>& goals);

  const UpwardStats& stats() const { return stats_; }

 private:
  Result<DerivedEvents> RunEventRules(const Transaction& transaction,
                                      const std::vector<SymbolId>& wanted);
  Result<DerivedEvents> RunRecompute(const Transaction& transaction,
                                     const std::vector<SymbolId>& wanted);

  using ProviderFor = std::function<const FactProvider&(size_t)>;

  // True if the ground instance new$P(tuple) holds in the transition, i.e.
  // some body of the transition rules `rules` of new$P is satisfiable with
  // the head bound to `tuple` (first-witness search). `plans` parallels
  // `rules`: each rule is planned, with its head variables bound, the first
  // time a candidate needs it.
  Result<bool> NewStateHolds(const std::vector<Rule>& rules,
                             std::vector<std::optional<JoinPlan>>* plans,
                             const Tuple& tuple,
                             const ProviderFor& provider_for);

  const Database* db_;
  const CompiledEvents* compiled_;
  UpwardOptions options_;
  ConsistencyProof proof_;
  UpwardStats stats_;
};

}  // namespace deddb

#endif  // DEDDB_INTERP_UPWARD_H_
