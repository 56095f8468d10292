#ifndef DEDDB_EVAL_JOIN_PLAN_H_
#define DEDDB_EVAL_JOIN_PLAN_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "datalog/rule.h"
#include "datalog/substitution.h"
#include "eval/fact_provider.h"
#include "util/resource_guard.h"
#include "util/status.h"

namespace deddb {

/// Which join operator a plan compiles to. Both produce the identical fact
/// set and the identical rule-firing count (a firing is a complete body
/// solution, which no join order can change); the differential plan oracle
/// (tests/join_planner_differential_test.cc) holds the engines to that.
enum class JoinStrategy {
  /// Selectivity-ordered: literals sorted by estimated matching rows under
  /// the bindings accumulated so far, index-or-scan access chosen per
  /// literal, bindings pushed into index probes.
  kPlanned,
  /// The tensorlogic-style baseline: textual literal order (negatives
  /// deferred only until ground), every positive literal a full scan with
  /// residual filtering, no bindings pushed into the probe. Kept as the
  /// oracle's second engine and for ablation benchmarks.
  kNaiveNestedLoop,
};

/// A compiled evaluation plan for one rule body: an execution order over the
/// body literals, a per-literal access path, and per-argument ops (constant
/// checks, bound-slot probes, slot bindings) over a flat row of variable
/// slots. This is deddb's one join kernel: the bottom-up evaluator, the
/// upward interpreter and the index advisor all run rule bodies through it,
/// and the query engine takes its body order from the same heuristic
/// (Order).
///
/// A plan has two executors over the same compiled steps:
///  * Execute — block-at-a-time: each step maps a block of partial rows to
///    the next block in one pass, amortizing the per-tuple overhead (no
///    substitution maps, atom rewrites or pattern allocations) across whole
///    blocks. Enumerates every body solution.
///  * Satisfiable — first-witness: depth-first over one row, streaming each
///    positive literal through ForEachMatchUntil, so a lazily-evaluated
///    provider (OldStateView over derived predicates) stops producing at the
///    first complete solution.
///
/// A plan is immutable after Build and holds no provider state, so one plan
/// built on the orchestration thread can be executed concurrently by many
/// work items (each with its own providers) — this is how the parallel
/// evaluator shares one plan across delta slices.
class JoinPlan {
 public:
  /// Slot value meaning "not bound yet" (never a valid constant).
  static constexpr SymbolId kUnboundSlot = SymbolTable::kNoSymbol;

  struct Options {
    JoinStrategy strategy = JoinStrategy::kPlanned;
    /// Placed first regardless of strategy: semi-naive evaluation leads with
    /// the delta literal.
    std::optional<size_t> forced_first;
    /// Variables bound before execution starts (a partially instantiated
    /// goal, or a rule head matched against a candidate fact); InitialRow
    /// fills their slots from a Substitution.
    std::vector<VarId> initially_bound;
  };

  /// One execution step, in order. `access` is the build-time access-path
  /// choice with its value-independent row estimate; EXPLAIN pairs it with
  /// the actual rows from ExecStats.
  struct StepInfo {
    size_t literal = 0;  // body index
    bool negative = false;
    SymbolId predicate = 0;
    /// Columns (< Relation::kMaxMaskColumns) holding a constant or an
    /// already-bound variable when this step runs.
    Relation::Mask bound_mask = 0;
    Relation::AccessPath access;
  };

  /// Per-step actual row counts, accumulated by Execute (so slices of one
  /// plan sum into a single ExecStats at the merge). rows[i] counts the rows
  /// that survived step i.
  struct ExecStats {
    std::vector<size_t> rows;
  };

  /// Compiles a plan for `rule`. `provider_for(i)` supplies estimates and
  /// access descriptions for body literal i (the same shape Execute takes, so
  /// build and execution can use different providers — plans are built
  /// against the round-start state and run against slices of it).
  static Result<JoinPlan> Build(
      const Rule& rule,
      const std::function<const FactProvider&(size_t)>& provider_for,
      const Options& options);
  static Result<JoinPlan> Build(
      const Rule& rule,
      const std::function<const FactProvider&(size_t)>& provider_for) {
    return Build(rule, provider_for, Options());
  }

  /// The execution order Build would choose, without compiling any steps:
  /// under kPlanned, the positive literal with the fewest estimated matches
  /// (provider_for(i).EstimateMatches under the bindings so far), ties
  /// broken by more bound arguments, then fewer unbound variables, then body
  /// index; but a ground negative goes first (the first in body order)
  /// unless a ground positive of known cost is available (the first such
  /// goes instead). Fails like Build on an unsafe rule.
  static Result<std::vector<size_t>> Order(
      const Rule& rule,
      const std::function<const FactProvider&(size_t)>& provider_for,
      const Options& options);

  /// Body indices in execution order.
  const std::vector<size_t>& order() const { return order_; }
  const std::vector<StepInfo>& steps() const { return steps_; }
  /// Distinct rule variables, in first-occurrence order; slot i of a row
  /// holds slot_vars()[i].
  const std::vector<VarId>& slot_vars() const { return slot_vars_; }

  /// A row with the slots of Options::initially_bound variables filled from
  /// `subst` (which must bind them to constants, possibly through chains) and
  /// every other slot kUnboundSlot. Fails with kInvalidArgument if a bound
  /// variable resolves to a non-constant term.
  Result<std::vector<SymbolId>> InitialRow(const Substitution& subst) const;

  /// Runs the plan. `emit` is invoked once per complete body solution with
  /// the full slot row; use HeadTupleInto to decode it.
  /// Returns the number of emissions (the rule-firing count). `initial` must
  /// come from InitialRow (or be empty for no pre-bindings). When `guard` is
  /// non-null it is ticked per input row and per matched tuple, so a deadline
  /// or cancellation aborts a long join mid-block.
  Result<size_t> Execute(
      const std::function<const FactProvider&(size_t)>& provider_for,
      const std::function<void(const SymbolId* row)>& emit,
      const std::vector<SymbolId>& initial = {},
      const ResourceGuard* guard = nullptr, ExecStats* stats = nullptr) const;

  /// Whether the body has at least one solution extending `initial` (same
  /// contract as Execute's). Stops at the first witness: positive literals
  /// stream through ForEachMatchUntil, never ForEachMatch, and nothing is
  /// enumerated past the witness. When `guard` is non-null it is ticked per
  /// search step, so a deadline or cancellation aborts a long search.
  Result<bool> Satisfiable(
      const std::function<const FactProvider&(size_t)>& provider_for,
      const std::vector<SymbolId>& initial = {},
      const ResourceGuard* guard = nullptr) const;

  /// Instantiates the rule head from a complete row into `out` (resized).
  void HeadTupleInto(const SymbolId* row, Tuple* out) const;
  SymbolId head_predicate() const { return head_predicate_; }

  /// Compact one-line rendering for EXPLAIN, e.g.
  ///   `Edge[scan ~12] -> Reaches[col1 ~3] -> !Blocked[key ~1]`
  /// (access in brackets: scan, col<i>, comp(<cols>), key, empty; `~N` is the
  /// estimated row count; `!` marks negated literals). Documented in
  /// DESIGN.md §6e.
  std::string ToString(const SymbolTable& symbols) const;

 private:
  friend class BlockExecutor;
  friend class WitnessSearch;

  // Rejects an initial row Execute/Satisfiable cannot start from.
  Status CheckInitialRow(const std::vector<SymbolId>& initial) const;

  // Per-argument compiled ops. Pattern ops fill the probe pattern before the
  // index lookup; check ops filter matches after bind ops ran; bind ops write
  // newly bound slots.
  struct PatternOp {
    size_t pos;
    bool from_slot;   // false: `value` is a constant
    size_t slot = 0;  // when from_slot
    SymbolId value = 0;
  };
  struct CheckOp {
    size_t pos;
    bool against_slot;  // false: compare to `value`
    size_t slot = 0;
    SymbolId value = 0;
  };
  struct BindOp {
    size_t pos;
    size_t slot;
  };

  struct Step {
    StepInfo info;
    std::vector<PatternOp> pattern_ops;
    std::vector<CheckOp> check_ops;
    std::vector<BindOp> bind_ops;
    size_t arity = 0;
  };

  // Head instantiation: constant, or copy from slot.
  struct HeadOp {
    bool from_slot;
    size_t slot = 0;
    SymbolId value = 0;
  };

  std::vector<size_t> order_;
  std::vector<Step> plan_steps_;
  std::vector<StepInfo> steps_;  // mirrors plan_steps_[i].info for observers
  std::vector<VarId> slot_vars_;
  std::vector<HeadOp> head_ops_;
  SymbolId head_predicate_ = 0;
  std::vector<size_t> initially_bound_slots_;
};

}  // namespace deddb

#endif  // DEDDB_EVAL_JOIN_PLAN_H_
