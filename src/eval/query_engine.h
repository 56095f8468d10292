#ifndef DEDDB_EVAL_QUERY_ENGINE_H_
#define DEDDB_EVAL_QUERY_ENGINE_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "datalog/program.h"
#include "datalog/substitution.h"
#include "eval/bottom_up.h"
#include "eval/dependency_graph.h"
#include "eval/fact_provider.h"

namespace deddb {

/// Goal-directed query answering over a stratified program, with caching.
///
/// Two strategies are available:
///  * `SolveTopDown` — SLDNF-style resolution with goal memoization
///    (tabling of complete answer sets per canonicalized goal), best for
///    ground or highly selective goals over non-recursive predicates (it
///    propagates goal constants into rule bodies). Fails with
///    kResourceExhausted when it re-enters a goal still being solved
///    (recursion).
///  * `SolveMaterialized` — demand-driven materialization: computes (once,
///    bottom-up, semi-naive) every predicate reachable from the goal, caches
///    the relations, then answers by lookup. Handles recursion.
///
/// `Holds`/`SolvePattern` pick top-down for ground/selective goals on
/// non-recursive reachable sets and materialization otherwise.
///
/// All caches assume the underlying EDB does not change; call
/// InvalidateCache after modifying it.
class QueryEngine {
 public:
  /// All references must outlive the engine.
  QueryEngine(const Program& program, const SymbolTable& symbols,
              const FactProvider& edb, EvaluationOptions options = {});

  /// All ground instances of `goal` (pattern with variables) that hold.
  Result<std::vector<Tuple>> SolvePattern(const Atom& goal);

  /// True if the ground atom `goal` holds. Ground goals over non-recursive
  /// predicates use lazy SLD resolution with first-solution early exit, so
  /// existence checks do not enumerate full extensions.
  Result<bool> Holds(const Atom& goal);

  /// True if `goal` (possibly open) has at least one solution; lazy,
  /// depth-first resolution with early exit. Fails with
  /// kResourceExhausted past the depth bound (recursive predicates).
  Result<bool> Exists(const Atom& goal);

  /// Streams the solutions of `goal` to `fn` until it returns false;
  /// returns whether the enumeration stopped early. Solutions may repeat
  /// (one per derivation); recursive reachable sets fall back to the strict
  /// solver (deduplicated). Lazy: producing the first k solutions does not
  /// require computing the rest.
  Result<bool> SolveLazyPattern(const Atom& goal,
                                const std::function<bool(const Tuple&)>& fn);

  /// Pure memoized top-down resolution; see class comment.
  Result<std::vector<Tuple>> SolveTopDown(const Atom& goal);

  /// Pure demand-driven materialization; see class comment.
  Result<std::vector<Tuple>> SolveMaterialized(const Atom& goal);

  /// Drops all caches (call after the EDB changes).
  void InvalidateCache();

  /// Maximum top-down resolution depth before giving up.
  void set_max_depth(size_t depth) { max_depth_ = depth; }

  /// Re-points the resource guard consulted by subsequent evaluations
  /// (nullptr removes it). The engine captures its options at construction;
  /// this is how a per-request guard reaches an engine that outlives the
  /// request. Caches are kept — a guard bounds work, it does not change
  /// results.
  void set_guard(const ResourceGuard* guard) { options_.guard = guard; }

  /// Bottom-up work done by demand-driven materialization, **accumulated**
  /// across every Solve*/Holds/Exists call since construction or the last
  /// ResetStats() — a reused engine reports cumulative totals by design
  /// (the engine is a cache; its cost is amortized over the queries it
  /// serves). For per-query numbers, snapshot before and diff after, or call
  /// ResetStats() between queries. InvalidateCache() does NOT reset stats:
  /// the work already done stays counted.
  const EvaluationStats& bottom_up_stats() const { return bu_stats_; }

  /// Zeroes bottom_up_stats(); see the accumulate contract above.
  void ResetStats() { bu_stats_ = EvaluationStats{}; }

 private:
  // Renames the goal's variables to canonical ids (in order of first
  // appearance) so equivalent goals share one memo entry.
  Atom Canonicalize(const Atom& goal) const;

  // Body evaluation order for SolveLazy/SolveMemo: JoinPlan's ordering
  // heuristic over EDB estimates, with derived literals of unknown cost.
  Result<std::vector<size_t>> BodyOrder(const Rule& rule) const;

  // Memoized solve of a canonicalized goal; returns a pointer into the memo
  // (stable: node-based map).
  Result<const std::vector<Tuple>*> SolveMemo(const Atom& canonical,
                                              size_t depth);

  // Lazy depth-first resolution: emits ground solutions of `goal` until
  // `emit` returns false (stop). Returns true if stopped early.
  Result<bool> SolveLazy(const Atom& goal, size_t depth,
                         const std::function<bool(const Atom&)>& emit);

  // Ensures every defined predicate reachable from `goal_pred` is in cache_.
  Status MaterializeFor(SymbolId goal_pred);

  // True if any predicate reachable from `pred` is in a recursive SCC.
  bool ReachesRecursion(SymbolId pred) const;

  const Program& program_;
  const SymbolTable& symbols_;
  const FactProvider& edb_;
  EvaluationOptions options_;
  size_t max_depth_ = 512;

  DependencyGraph graph_;
  std::unordered_set<SymbolId> recursive_reach_;  // preds that reach a cycle

  FactStore cache_;
  std::unordered_set<SymbolId> materialized_;
  EvaluationStats bu_stats_;

  std::unordered_map<Atom, std::vector<Tuple>, AtomHash> memo_;
  std::unordered_set<Atom, AtomHash> in_progress_;
  // Existence results for ground goals proved/refuted by lazy resolution.
  std::unordered_map<Atom, bool, AtomHash> exists_memo_;

  // Fresh-variable counter for renaming rules apart during top-down
  // resolution; ids in this range never collide with named variables.
  VarId next_fresh_var_;
};

}  // namespace deddb

#endif  // DEDDB_EVAL_QUERY_ENGINE_H_
