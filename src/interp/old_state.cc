#include "interp/old_state.h"

#include <algorithm>
#include <unordered_set>

#include "datalog/unify.h"

namespace deddb {

namespace {

// Variable ids used to build query atoms for open pattern positions. These
// are never interned and never escape a single query.
constexpr VarId kScratchVarBase = 0x60000000;

Atom PatternToAtom(SymbolId predicate, const TuplePattern& pattern) {
  std::vector<Term> args;
  args.reserve(pattern.size());
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i].has_value()) {
      args.push_back(Term::MakeConstant(*pattern[i]));
    } else {
      args.push_back(Term::MakeVariable(kScratchVarBase +VarId(i)));
    }
  }
  return Atom(predicate, std::move(args));
}

// True for a rule `Ic <- P(x1,...,xk)` over pairwise-distinct variables:
// any P fact would derive Ic, so an empty Ic makes P empty too. (This is
// the rule declaring a constraint installs; a rule update may remove it.)
bool ImpliesEmptyBody(const Rule& rule) {
  if (rule.body().size() != 1 || rule.body()[0].negative()) return false;
  std::unordered_set<VarId> seen;
  for (const Term& t : rule.body()[0].atom().args()) {
    if (!t.is_variable() || !seen.insert(t.variable()).second) return false;
  }
  return true;
}

}  // namespace

OldStateView::OldStateView(const Database* db, EvaluationOptions options,
                           ConsistencyProof proof)
    : db_(db) {
  edb_provider_ = std::make_unique<FactStoreProvider>(&db_->facts());
  engine_ = std::make_unique<QueryEngine>(db_->program(), db_->symbols(),
                                          *edb_provider_, options);
  if (proof == ConsistencyProof::kConsistent) {
    const Program& program = db_->program();
    proven_empty_.push_back(db_->global_ic());
    for (size_t idx : program.RuleIndicesFor(db_->global_ic())) {
      const Rule& rule = program.rules()[idx];
      if (ImpliesEmptyBody(rule)) {
        proven_empty_.push_back(rule.body()[0].atom().predicate());
      }
    }
  }
}

bool OldStateView::ProvenEmpty(SymbolId predicate) const {
  return std::find(proven_empty_.begin(), proven_empty_.end(), predicate) !=
         proven_empty_.end();
}

void OldStateView::Invalidate() {
  std::lock_guard<std::recursive_mutex> lock(engine_mu_);
  engine_->InvalidateCache();
}

void OldStateView::set_guard(const ResourceGuard* guard) {
  std::lock_guard<std::recursive_mutex> lock(engine_mu_);
  engine_->set_guard(guard);
}

void OldStateView::ForEachMatch(
    SymbolId predicate, const TuplePattern& pattern,
    const std::function<void(const Tuple&)>& fn) const {
  const PredicateInfo* info = db_->predicates().Find(predicate);
  if (info == nullptr || info->variant != PredicateVariant::kOld) return;
  if (info->kind == PredicateKind::kBase) {
    edb_provider_->ForEachMatch(predicate, pattern, fn);
    return;
  }
  if (ProvenEmpty(predicate)) return;
  if (db_->IsMaterialized(predicate)) {
    const Relation* rel = db_->materialized_store().Find(predicate);
    if (rel != nullptr) rel->ForEachMatch(pattern, fn);
    return;
  }
  Result<std::vector<Tuple>> result = [&] {
    std::lock_guard<std::recursive_mutex> lock(engine_mu_);
    return engine_->SolvePattern(PatternToAtom(predicate, pattern));
  }();
  if (!result.ok()) return;  // treat evaluation failure as no matches
  for (const Tuple& t : *result) fn(t);
}

bool OldStateView::ForEachMatchUntil(
    SymbolId predicate, const TuplePattern& pattern,
    const std::function<bool(const Tuple&)>& fn) const {
  const PredicateInfo* info = db_->predicates().Find(predicate);
  if (info == nullptr || info->variant != PredicateVariant::kOld) return false;
  if (ProvenEmpty(predicate)) return false;
  if (info->kind == PredicateKind::kDerived &&
      !db_->IsMaterialized(predicate)) {
    // Stream solutions lazily through the engine; recursion falls back to
    // the strict path.
    std::unique_lock<std::recursive_mutex> lock(engine_mu_);
    Result<bool> stopped = engine_->SolveLazyPattern(
        PatternToAtom(predicate, pattern), [&](const Tuple& t) {
          return fn(t);  // false = stop
        });
    lock.unlock();
    if (stopped.ok()) return *stopped;
    // Fall through to the default (materializing) behaviour on error.
  }
  return FactProvider::ForEachMatchUntil(predicate, pattern, fn);
}

bool OldStateView::Contains(SymbolId predicate, const Tuple& tuple) const {
  const PredicateInfo* info = db_->predicates().Find(predicate);
  if (info == nullptr || info->variant != PredicateVariant::kOld) return false;
  if (info->kind == PredicateKind::kBase) {
    return db_->facts().Contains(predicate, tuple);
  }
  if (ProvenEmpty(predicate)) return false;
  if (db_->IsMaterialized(predicate)) {
    return db_->materialized_store().Contains(predicate, tuple);
  }
  std::lock_guard<std::recursive_mutex> lock(engine_mu_);
  Result<bool> holds = engine_->Holds(AtomFromTuple(predicate, tuple));
  return holds.ok() && *holds;
}

size_t OldStateView::EstimateCount(SymbolId predicate) const {
  const PredicateInfo* info = db_->predicates().Find(predicate);
  if (info == nullptr || info->variant != PredicateVariant::kOld) return 0;
  if (info->kind == PredicateKind::kBase) {
    return edb_provider_->EstimateCount(predicate);
  }
  if (ProvenEmpty(predicate)) return 0;
  if (db_->IsMaterialized(predicate)) {
    const Relation* rel = db_->materialized_store().Find(predicate);
    return rel == nullptr ? 0 : rel->size();
  }
  return kUnknownCount;
}

size_t OldStateView::EstimateMatches(SymbolId predicate,
                                     Relation::Mask bound_mask) const {
  const PredicateInfo* info = db_->predicates().Find(predicate);
  if (info == nullptr || info->variant != PredicateVariant::kOld) return 0;
  if (info->kind == PredicateKind::kBase) {
    return edb_provider_->EstimateMatches(predicate, bound_mask);
  }
  if (ProvenEmpty(predicate)) return 0;
  if (db_->IsMaterialized(predicate)) {
    const Relation* rel = db_->materialized_store().Find(predicate);
    return rel == nullptr ? 0 : rel->EstimateMatches(bound_mask);
  }
  return kUnknownCount;
}

Result<bool> OldStateView::Holds(const Atom& ground_atom) const {
  const PredicateInfo* info =
      db_->predicates().Find(ground_atom.predicate());
  if (info == nullptr) return false;
  if (info->kind == PredicateKind::kBase) {
    return db_->facts().Contains(ground_atom);
  }
  if (ProvenEmpty(ground_atom.predicate())) return false;
  if (db_->IsMaterialized(ground_atom.predicate())) {
    return db_->materialized_store().Contains(ground_atom);
  }
  std::lock_guard<std::recursive_mutex> lock(engine_mu_);
  return engine_->Holds(ground_atom);
}

Result<std::vector<Tuple>> OldStateView::Query(const Atom& pattern) const {
  if (ProvenEmpty(pattern.predicate())) return std::vector<Tuple>{};
  const PredicateInfo* info = db_->predicates().Find(pattern.predicate());
  if (info != nullptr && info->kind == PredicateKind::kDerived &&
      db_->IsMaterialized(pattern.predicate())) {
    TuplePattern tp(pattern.arity());
    for (size_t i = 0; i < pattern.arity(); ++i) {
      if (pattern.args()[i].is_constant()) {
        tp[i] = pattern.args()[i].constant();
      }
    }
    std::vector<Tuple> out;
    const Relation* rel = db_->materialized_store().Find(pattern.predicate());
    if (rel != nullptr) {
      rel->ForEachMatch(tp, [&](const Tuple& t) {
        Substitution subst;
        if (MatchAtomAgainstTuple(pattern, t, &subst)) out.push_back(t);
      });
    }
    return out;
  }
  std::lock_guard<std::recursive_mutex> lock(engine_mu_);
  return engine_->SolvePattern(pattern);
}

}  // namespace deddb
