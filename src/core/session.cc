#include "core/session.h"

#include "util/strings.h"

namespace deddb {

Session::Session(std::shared_ptr<const SessionState> state,
                 std::shared_ptr<SessionRegistry> registry,
                 UpwardOptions upward, DownwardOptions downward)
    : state_(std::move(state)),
      registry_(std::move(registry)),
      upward_options_(upward),
      downward_options_(downward),
      view_(state_->db.get(), upward.eval, state_->KnownProof()) {
  registry_->active.fetch_add(1, std::memory_order_relaxed);
}

Session::~Session() {
  // No metrics here (determinism: destructors run at arbitrary times on
  // arbitrary threads); BeginSession/ReclaimSessionEpochs read the count.
  registry_->active.fetch_sub(1, std::memory_order_relaxed);
}

uint64_t Session::version() const { return state_->version; }

const Database& Session::database() const { return *state_->db; }

Term Session::Constant(std::string_view name) const {
  return Term::MakeConstant(state_->db->symbols().Intern(name));
}

Term Session::Variable(std::string_view name) const {
  return Term::MakeVariable(state_->db->symbols().InternVar(name));
}

Result<Atom> Session::MakeAtom(std::string_view predicate,
                               std::vector<Term> args) const {
  const Database& db = *state_->db;
  DEDDB_ASSIGN_OR_RETURN(SymbolId pred, db.FindPredicate(predicate));
  DEDDB_ASSIGN_OR_RETURN(PredicateInfo info, db.predicates().Get(pred));
  if (info.arity != args.size()) {
    return InvalidArgumentError(
        StrCat("predicate '", predicate, "' has arity ", info.arity, ", got ",
               args.size(), " arguments"));
  }
  return Atom(pred, std::move(args));
}

Result<Atom> Session::GroundAtom(
    std::string_view predicate,
    std::vector<std::string_view> constants) const {
  std::vector<Term> args;
  args.reserve(constants.size());
  for (std::string_view c : constants) args.push_back(Constant(c));
  return MakeAtom(predicate, std::move(args));
}

Result<Transaction> Session::MakeTransaction(
    std::vector<std::pair<SessionOp, Atom>> events) const {
  const Database& db = *state_->db;
  Transaction txn;
  for (const auto& [op, atom] : events) {
    DEDDB_ASSIGN_OR_RETURN(PredicateInfo info,
                           db.predicates().Get(atom.predicate()));
    if (info.kind != PredicateKind::kBase) {
      return InvalidArgumentError(
          StrCat("transactions consist of base fact updates; '",
                 atom.ToString(db.symbols()), "' is derived"));
    }
    if (op == SessionOp::kInsert) {
      DEDDB_RETURN_IF_ERROR(txn.AddInsert(atom));
    } else {
      DEDDB_RETURN_IF_ERROR(txn.AddDelete(atom));
    }
  }
  return txn;
}

Result<bool> Session::Holds(const Atom& ground_atom) const {
  return view_.Holds(ground_atom);
}

Result<std::vector<Tuple>> Session::Solve(const Atom& pattern) const {
  return view_.Query(pattern);
}

void Session::set_resource_guard(const ResourceGuard* guard) {
  upward_options_.eval.guard = guard;
  downward_options_.eval.guard = guard;
  view_.set_guard(guard);
}

Result<bool> Session::IsConsistent() const {
  const SessionState& state = *state_;
  // Held across the proof: sessions sharing the snapshot wait for one
  // proof instead of each running their own.
  std::lock_guard<std::mutex> lock(state.consistency_mu);
  if (!state.consistent.has_value()) {
    DEDDB_ASSIGN_OR_RETURN(bool violated,
                           problems::IcHolds(*state.db, upward_options_.eval));
    state.consistent = !violated;
  }
  return *state.consistent;
}

Result<const CompiledEvents*> Session::Compiled() const {
  if (!state_->compiled.has_value()) {
    if (state_->compile_status.ok()) {
      return InternalError("session snapshot has no event compilation");
    }
    return state_->compile_status;
  }
  return &*state_->compiled;
}

const ActiveDomain& Session::Domain() const {
  const SessionState& state = *state_;
  std::call_once(state.domain_once, [&state] {
    state.domain.emplace(*state.db);
    for (SymbolId c : state.extra_domain_constants) state.domain->AddExtra(c);
  });
  return *state.domain;
}

Result<problems::IntegrityCheckResult> Session::CheckIntegrity(
    const Transaction& transaction) const {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(bool consistent, IsConsistent());
  return problems::CheckIntegrity(*state_->db, *compiled, transaction,
                                  upward_options_,
                                  consistent ? ConsistencyProof::kConsistent
                                             : ConsistencyProof::kUnproven);
}

Result<problems::ConsistencyRestorationResult>
Session::CheckConsistencyRestored(const Transaction& transaction) const {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  return problems::CheckConsistencyRestored(*state_->db, *compiled,
                                            transaction, upward_options_);
}

Result<problems::ConditionChanges> Session::MonitorConditions(
    const Transaction& transaction,
    const std::vector<SymbolId>& conditions) const {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  return problems::MonitorConditions(*state_->db, *compiled, transaction,
                                     conditions, upward_options_);
}

Result<DerivedEvents> Session::InducedEvents(
    const Transaction& transaction) const {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  UpwardInterpreter upward(state_->db.get(), compiled, upward_options_,
                           state_->KnownProof());
  return upward.InducedEvents(transaction);
}

Result<problems::DownwardResult> Session::TranslateViewUpdate(
    const UpdateRequest& request) const {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  return problems::TranslateViewUpdate(*state_->db, *compiled, Domain(),
                                       request, downward_options_);
}

Result<bool> Session::CheckSatisfiability() const {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  return problems::CheckSatisfiability(*state_->db, *compiled, Domain(),
                                       downward_options_);
}

}  // namespace deddb
