#include "eval/query_engine.h"

#include <algorithm>

#include "datalog/unify.h"
#include "eval/join_plan.h"
#include "eval/stratification.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace deddb {

namespace {

// Canonical variable ids used by Canonicalize; disjoint from interned
// variables and from the fresh-rename range.
constexpr VarId kCanonVarBase = 0x50000000;

// Stands in for derived literals when ordering a body: it costs them as
// kUnknownCount, where the EDB provider would report 0 (it stores no facts
// for them) and put them first.
class UnknownCostProvider : public FactProvider {
 public:
  void ForEachMatch(SymbolId, const TuplePattern&,
                    const std::function<void(const Tuple&)>&) const override {}
  bool Contains(SymbolId, const Tuple&) const override { return false; }
};

}  // namespace

Result<std::vector<size_t>> QueryEngine::BodyOrder(const Rule& rule) const {
  static const UnknownCostProvider kDerived;
  return JoinPlan::Order(
      rule,
      [&](size_t i) -> const FactProvider& {
        if (program_.Defines(rule.body()[i].atom().predicate())) {
          return kDerived;
        }
        return edb_;
      },
      JoinPlan::Options());
}

QueryEngine::QueryEngine(const Program& program, const SymbolTable& symbols,
                         const FactProvider& edb, EvaluationOptions options)
    : program_(program),
      symbols_(symbols),
      edb_(edb),
      options_(options),
      graph_(program),
      next_fresh_var_(0x40000000) {
  // Precompute which predicates reach a recursive SCC.
  std::unordered_set<SymbolId> cyclic;
  for (const auto& scc : graph_.SccsBottomUp()) {
    bool recursive = scc.size() > 1;
    if (!recursive) {
      for (const auto& edge : graph_.EdgesOf(scc[0])) {
        recursive |= edge.target == scc[0];
      }
    }
    if (recursive) cyclic.insert(scc.begin(), scc.end());
  }
  for (SymbolId pred : graph_.nodes()) {
    for (SymbolId reached : graph_.ReachableFrom({pred})) {
      if (cyclic.count(reached) > 0) {
        recursive_reach_.insert(pred);
        break;
      }
    }
  }
}

void QueryEngine::InvalidateCache() {
  cache_.Clear();
  materialized_.clear();
  memo_.clear();
  in_progress_.clear();
  exists_memo_.clear();
}

bool QueryEngine::ReachesRecursion(SymbolId pred) const {
  return recursive_reach_.count(pred) > 0;
}

Atom QueryEngine::Canonicalize(const Atom& goal) const {
  std::unordered_map<VarId, VarId> mapping;
  std::vector<Term> args;
  args.reserve(goal.arity());
  for (const Term& t : goal.args()) {
    if (t.is_constant()) {
      args.push_back(t);
      continue;
    }
    auto [it, inserted] = mapping.emplace(
        t.variable(), kCanonVarBase + static_cast<VarId>(mapping.size()));
    args.push_back(Term::MakeVariable(it->second));
  }
  return Atom(goal.predicate(), std::move(args));
}

Result<std::vector<Tuple>> QueryEngine::SolvePattern(const Atom& goal) {
  bool defined = program_.Defines(goal.predicate());
  if (!defined) {
    TuplePattern pattern(goal.arity());
    for (size_t i = 0; i < goal.arity(); ++i) {
      if (goal.args()[i].is_constant()) pattern[i] = goal.args()[i].constant();
    }
    std::vector<Tuple> out;
    edb_.ForEachMatch(goal.predicate(), pattern, [&](const Tuple& t) {
      Substitution subst;
      if (MatchAtomAgainstTuple(goal, t, &subst)) out.push_back(t);
    });
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
  if (!ReachesRecursion(goal.predicate())) {
    return SolveTopDown(goal);
  }
  return SolveMaterialized(goal);
}

Result<bool> QueryEngine::Holds(const Atom& goal) {
  if (!ReachesRecursion(goal.predicate())) return Exists(goal);
  DEDDB_ASSIGN_OR_RETURN(std::vector<Tuple> tuples, SolvePattern(goal));
  return !tuples.empty();
}

Result<bool> QueryEngine::Exists(const Atom& goal) {
  return SolveLazy(goal, 0, [](const Atom&) { return false; /* stop */ });
}

Result<bool> QueryEngine::SolveLazyPattern(
    const Atom& goal, const std::function<bool(const Tuple&)>& fn) {
  if (ReachesRecursion(goal.predicate())) {
    DEDDB_ASSIGN_OR_RETURN(std::vector<Tuple> tuples, SolvePattern(goal));
    for (const Tuple& t : tuples) {
      if (!fn(t)) return true;
    }
    return false;
  }
  return SolveLazy(goal, 0, [&](const Atom& solution) {
    return fn(TupleFromAtom(solution));
  });
}

Result<bool> QueryEngine::SolveLazy(
    const Atom& goal, size_t depth,
    const std::function<bool(const Atom&)>& emit) {
  DEDDB_RETURN_IF_ERROR(ResourceGuard::CheckTick(options_.guard));
  if (depth > max_depth_) {
    return ResourceExhaustedError(
        StrCat("lazy resolution exceeded depth ", max_depth_,
               " (recursive predicate?)"));
  }
  // Reuse strict-solver results when available.
  const bool ground = goal.IsGround();
  Atom canonical = Canonicalize(goal);
  if (auto it = memo_.find(canonical); it != memo_.end()) {
    for (const Tuple& t : it->second) {
      Substitution subst;
      if (MatchAtomAgainstTuple(goal, t, &subst)) {
        if (!emit(AtomFromTuple(goal.predicate(), t))) return true;
      }
    }
    return false;
  }
  if (ground) {
    if (auto it = exists_memo_.find(canonical); it != exists_memo_.end()) {
      if (!it->second) return false;
      return !emit(goal);
    }
  }
  if (!program_.Defines(goal.predicate())) {
    TuplePattern pattern(goal.arity());
    for (size_t i = 0; i < goal.arity(); ++i) {
      if (goal.args()[i].is_constant()) pattern[i] = goal.args()[i].constant();
    }
    bool stopped = false;
    edb_.ForEachMatch(goal.predicate(), pattern, [&](const Tuple& t) {
      if (stopped) return;
      Substitution subst;
      if (MatchAtomAgainstTuple(goal, t, &subst)) {
        if (!emit(AtomFromTuple(goal.predicate(), t))) stopped = true;
      }
    });
    return stopped;
  }

  // Track emissions so ground goals can cache their existence result.
  bool emitted_any = false;
  auto counting_emit = [&](const Atom& solution) {
    emitted_any = true;
    return emit(solution);
  };

  for (size_t idx : program_.RuleIndicesFor(goal.predicate())) {
    const Rule& original = program_.rules()[idx];
    Substitution renaming;
    for (VarId v : original.DistinctVariables()) {
      renaming.Bind(v, Term::MakeVariable(next_fresh_var_++));
    }
    Rule rule = renaming.Apply(original);
    Substitution subst;
    if (!UnifyAtoms(rule.head(), goal, &subst)) continue;
    Rule bound_rule = subst.Apply(rule);
    DEDDB_ASSIGN_OR_RETURN(std::vector<size_t> order, BodyOrder(bound_rule));

    Status status = Status::Ok();
    bool stopped = false;
    std::function<void(size_t, Substitution*)> step = [&](size_t pos,
                                                          Substitution* s) {
      if (!status.ok() || stopped) return;
      if (pos == order.size()) {
        Atom head = s->Apply(bound_rule.head());
        if (head.IsGround() && !counting_emit(head)) stopped = true;
        return;
      }
      const Literal& lit = bound_rule.body()[order[pos]];
      Atom atom = s->Apply(lit.atom());
      if (lit.negative()) {
        if (!atom.IsGround()) {
          status = InternalError("negative literal unground in lazy solve");
          return;
        }
        Result<bool> found = SolveLazy(atom, depth + 1,
                                       [](const Atom&) { return false; });
        if (!found.ok()) {
          status = found.status();
          return;
        }
        if (!*found) step(pos + 1, s);
        return;
      }
      Result<bool> sub = SolveLazy(atom, depth + 1, [&](const Atom& sol) {
        std::vector<VarId> bound_here;
        bool ok = true;
        for (size_t i = 0; i < atom.arity() && ok; ++i) {
          Term term = s->Apply(atom.args()[i]);
          if (term.is_constant()) {
            ok = term.constant() == sol.args()[i].constant();
          } else {
            s->Bind(term.variable(), sol.args()[i]);
            bound_here.push_back(term.variable());
          }
        }
        if (ok) step(pos + 1, s);
        for (VarId v : bound_here) s->Unbind(v);
        return status.ok() && !stopped;  // keep enumerating?
      });
      if (!sub.ok()) status = sub.status();
    };
    Substitution body_subst;
    step(0, &body_subst);
    DEDDB_RETURN_IF_ERROR(status);
    if (stopped) {
      if (ground) exists_memo_.emplace(canonical, true);
      return true;
    }
  }
  // All rules exhausted without an early stop: for a ground goal this is a
  // complete existence answer.
  if (ground) exists_memo_.insert_or_assign(canonical, emitted_any);
  return false;
}

Result<std::vector<Tuple>> QueryEngine::SolveMaterialized(const Atom& goal) {
  DEDDB_RETURN_IF_ERROR(MaterializeFor(goal.predicate()));
  TuplePattern pattern(goal.arity());
  for (size_t i = 0; i < goal.arity(); ++i) {
    if (goal.args()[i].is_constant()) pattern[i] = goal.args()[i].constant();
  }
  std::vector<Tuple> out;
  FactStoreProvider cache_provider(&cache_);
  LayeredProvider full({&cache_provider, &edb_});
  full.ForEachMatch(goal.predicate(), pattern, [&](const Tuple& t) {
    Substitution subst;
    if (MatchAtomAgainstTuple(goal, t, &subst)) out.push_back(t);
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Status QueryEngine::MaterializeFor(SymbolId goal_pred) {
  if (materialized_.count(goal_pred) > 0 || !program_.Defines(goal_pred)) {
    return Status::Ok();
  }
  obs::ScopedSpan span(options_.obs.tracer, "query.materialize");
  if (span.enabled()) span.AttrStr("goal", symbols_.NameOf(goal_pred));
  obs::MetricsRegistry::Add(options_.obs.metrics, "query.materializations");
  BottomUpEvaluator evaluator(program_, symbols_, edb_, options_);
  Result<FactStore> idb = evaluator.EvaluateFor({goal_pred});
  // Fold the evaluator's stats in even when it unwound early, so callers see
  // the partial progress behind a guard trip (accumulate contract: see
  // bottom_up_stats()).
  const EvaluationStats& s = evaluator.stats();
  bu_stats_.rounds += s.rounds;
  bu_stats_.strata += s.strata;
  bu_stats_.rule_firings += s.rule_firings;
  bu_stats_.derived_facts += s.derived_facts;
  bu_stats_.interrupted |= s.interrupted;
  DEDDB_RETURN_IF_ERROR(idb.status());
  idb->ForEach([&](SymbolId pred, const Tuple& t) { cache_.Add(pred, t); });
  for (SymbolId pred : graph_.ReachableFrom({goal_pred})) {
    materialized_.insert(pred);
  }
  return Status::Ok();
}

Result<std::vector<Tuple>> QueryEngine::SolveTopDown(const Atom& goal) {
  DEDDB_ASSIGN_OR_RETURN(const std::vector<Tuple>* solutions,
                         SolveMemo(Canonicalize(goal), 0));
  // Filter for repeated-variable consistency against the *original* goal
  // (canonicalization preserves repetition, so this is belt and braces).
  std::vector<Tuple> out;
  out.reserve(solutions->size());
  for (const Tuple& t : *solutions) {
    Substitution subst;
    if (MatchAtomAgainstTuple(goal, t, &subst)) out.push_back(t);
  }
  return out;
}

Result<const std::vector<Tuple>*> QueryEngine::SolveMemo(const Atom& canonical,
                                                         size_t depth) {
  DEDDB_RETURN_IF_ERROR(ResourceGuard::CheckTick(options_.guard));
  auto memo_it = memo_.find(canonical);
  if (memo_it != memo_.end()) return &memo_it->second;
  if (depth > max_depth_) {
    return ResourceExhaustedError(
        StrCat("top-down resolution exceeded depth ", max_depth_));
  }
  if (in_progress_.count(canonical) > 0) {
    return ResourceExhaustedError(
        "top-down resolution re-entered a goal (recursive predicate); use "
        "materialization");
  }

  std::vector<Tuple> solutions;

  if (!program_.Defines(canonical.predicate())) {
    TuplePattern pattern(canonical.arity());
    for (size_t i = 0; i < canonical.arity(); ++i) {
      if (canonical.args()[i].is_constant()) {
        pattern[i] = canonical.args()[i].constant();
      }
    }
    edb_.ForEachMatch(canonical.predicate(), pattern, [&](const Tuple& t) {
      Substitution subst;
      if (MatchAtomAgainstTuple(canonical, t, &subst)) solutions.push_back(t);
    });
    std::sort(solutions.begin(), solutions.end());
    solutions.erase(std::unique(solutions.begin(), solutions.end()),
                    solutions.end());
    auto [it, inserted] = memo_.emplace(canonical, std::move(solutions));
    return &it->second;
  }

  in_progress_.insert(canonical);
  // Ensure the in-progress marker is removed on every exit path.
  struct Guard {
    std::unordered_set<Atom, AtomHash>* set;
    const Atom* atom;
    ~Guard() { set->erase(*atom); }
  } guard{&in_progress_, &canonical};

  for (size_t idx : program_.RuleIndicesFor(canonical.predicate())) {
    const Rule& original = program_.rules()[idx];
    // Rename the rule apart with throwaway fresh variables.
    Substitution renaming;
    for (VarId v : original.DistinctVariables()) {
      renaming.Bind(v, Term::MakeVariable(next_fresh_var_++));
    }
    Rule rule = renaming.Apply(original);

    Substitution subst;
    if (!UnifyAtoms(rule.head(), canonical, &subst)) continue;
    Rule bound_rule = subst.Apply(rule);
    DEDDB_ASSIGN_OR_RETURN(std::vector<size_t> order, BodyOrder(bound_rule));

    Status status = Status::Ok();
    std::function<void(size_t, Substitution*)> step = [&](size_t pos,
                                                          Substitution* s) {
      if (!status.ok()) return;
      if (pos == order.size()) {
        Atom head = s->Apply(bound_rule.head());
        if (head.IsGround()) solutions.push_back(TupleFromAtom(head));
        return;
      }
      const Literal& lit = bound_rule.body()[order[pos]];
      Atom atom = s->Apply(lit.atom());
      Result<const std::vector<Tuple>*> sub =
          SolveMemo(Canonicalize(atom), depth + 1);
      if (!sub.ok()) {
        status = sub.status();
        return;
      }
      if (lit.negative()) {
        if (!atom.IsGround()) {
          status = InternalError(
              "negative literal unground in top-down resolution");
          return;
        }
        if ((*sub)->empty()) step(pos + 1, s);
        return;
      }
      for (const Tuple& t : **sub) {
        std::vector<VarId> bound_here;
        bool ok = true;
        for (size_t i = 0; i < atom.arity() && ok; ++i) {
          Term term = s->Apply(atom.args()[i]);
          if (term.is_constant()) {
            ok = term.constant() == t[i];
          } else {
            s->Bind(term.variable(), Term::MakeConstant(t[i]));
            bound_here.push_back(term.variable());
          }
        }
        if (ok) step(pos + 1, s);
        for (VarId v : bound_here) s->Unbind(v);
        if (!status.ok()) return;
      }
    };
    Substitution body_subst;
    step(0, &body_subst);
    DEDDB_RETURN_IF_ERROR(status);
  }

  std::sort(solutions.begin(), solutions.end());
  solutions.erase(std::unique(solutions.begin(), solutions.end()),
                  solutions.end());
  auto [it, inserted] = memo_.emplace(canonical, std::move(solutions));
  return &it->second;
}

}  // namespace deddb
