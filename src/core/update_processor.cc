#include "core/update_processor.h"

#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace deddb {

std::string UpdateProcessor::TransactionReport::ToString(
    const SymbolTable& symbols) const {
  std::string out = accepted ? "ACCEPTED" : "REJECTED";
  if (!integrity.violations.empty()) {
    out += StrCat(" violations=",
                  JoinMapped(integrity.violations, ",",
                             [&](const Atom& a) {
                               return a.ToString(symbols);
                             }));
  }
  out += StrCat(" conditions=", conditions.events.ToString(symbols));
  out += StrCat(" views=", views.delta.ToString(symbols));
  return out;
}

Result<UpdateProcessor::TransactionReport> UpdateProcessor::ProcessTransaction(
    const Transaction& transaction, bool apply) {
  Database& db = db_->database();
  DEDDB_RETURN_IF_ERROR(
      ResourceGuard::Check(db_->upward_options().eval.guard));
  const obs::ObsContext obs = db_->observability();
  obs::ScopedSpan span(obs.tracer, "processor.transaction");
  if (span.enabled()) {
    span.AttrStr("txn", transaction.ToString(db.symbols()));
    span.AttrInt("apply", apply ? 1 : 0);
  }
  obs::MetricsRegistry::Add(obs.metrics, "processor.transactions");
  DEDDB_ASSIGN_OR_RETURN(bool consistent, db_->IsConsistent());
  if (!consistent) {
    return FailedPreconditionError(
        "ProcessTransaction requires a consistent database; repair it first "
        "(RepairDatabase)");
  }
  DEDDB_RETURN_IF_ERROR(transaction.Validate(db.facts(), db.predicates()));

  // One combined upward pass (§5.3: upward problems share their
  // starting-point and can be combined).
  std::vector<SymbolId> goals;
  goals.push_back(db.global_ic());
  for (SymbolId cond : db.condition_predicates()) goals.push_back(cond);
  std::vector<SymbolId> materialized;
  for (SymbolId view : db.view_predicates()) {
    if (db.IsMaterialized(view)) {
      goals.push_back(view);
      materialized.push_back(view);
    }
  }
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, db_->Compiled());
  // Integrity checking is ιIc given ¬Ic⁰ (Table 4.1), proved just above:
  // the old-state Ic literals need no evaluation.
  UpwardInterpreter upward(&db, compiled, db_->upward_options(),
                           ConsistencyProof::kConsistent);
  DEDDB_ASSIGN_OR_RETURN(DerivedEvents events,
                         upward.InducedEventsFor(transaction, goals));

  TransactionReport report;
  report.integrity.violated = events.ContainsInsert(db.global_ic(), {});
  for (SymbolId ic : db.ic_predicates()) {
    const Relation* rel = events.inserts.Find(ic);
    if (rel == nullptr) continue;
    rel->ForEach([&](const Tuple& t) {
      report.integrity.violations.push_back(AtomFromTuple(ic, t));
    });
  }
  std::unordered_set<SymbolId> cond_set(db.condition_predicates().begin(),
                                        db.condition_predicates().end());
  std::unordered_set<SymbolId> view_set(materialized.begin(),
                                        materialized.end());
  events.inserts.ForEach([&](SymbolId pred, const Tuple& t) {
    if (cond_set.count(pred) > 0) {
      report.conditions.events.inserts.Add(pred, t);
    }
    if (view_set.count(pred) > 0) report.views.delta.inserts.Add(pred, t);
  });
  events.deletes.ForEach([&](SymbolId pred, const Tuple& t) {
    if (cond_set.count(pred) > 0) {
      report.conditions.events.deletes.Add(pred, t);
    }
    if (view_set.count(pred) > 0) report.views.delta.deletes.Add(pred, t);
  });

  report.accepted = !report.integrity.violated;
  if (report.accepted && apply) {
    DEDDB_RETURN_IF_ERROR(ApplyAtomically(transaction, &report));
  }
  if (span.enabled()) {
    span.AttrInt("violations",
                 static_cast<int64_t>(report.integrity.violations.size()));
    span.AttrInt("accepted", report.accepted ? 1 : 0);
  }
  obs::MetricsRegistry::Add(obs.metrics,
                            report.accepted
                                ? "processor.transactions_accepted"
                                : "processor.transactions_rejected");
  return report;
}

Status UpdateProcessor::ApplyAtomically(const Transaction& transaction,
                                        TransactionReport* report) {
  Database& db = db_->database();
  const obs::ObsContext obs = db_->observability();
  obs::ScopedSpan span(obs.tracer, "processor.apply");
  obs::MetricsRegistry::Add(obs.metrics, "processor.applies");
  FactStore& store = db.materialized_store();
  // The fault pokes are explicit (not DEDDB_FAULT_POINT) because an injected
  // failure here must run the rollback below, not return directly.
  auto poke = [](FaultPoint point) -> Status {
    FaultInjector& injector = FaultInjector::Instance();
    return injector.armed() ? injector.Poke(point) : Status::Ok();
  };

  // The whole log + view-delta + base-delta region runs under the commit
  // lock: a session begun concurrently sees either none of this commit or
  // all of it, never the view store ahead of the base store. (Processor
  // commits therefore do not pipeline their fsync; the facade's plain
  // Apply does.)
  std::unique_lock<std::mutex> commit_lock = db_->LockCommits();
  DEDDB_RETURN_IF_ERROR(db_->commit_health_);

  // Redo logging (DESIGN.md §8): on a persistent database the durable
  // commit record is written before any in-memory mutation — the log append
  // is the commit point. A failed append leaves both the file (the writer
  // self-heals to its durable prefix) and the stores untouched.
  persist::PersistenceManager* persistence = db_->persistence();
  uint64_t seq = 0;
  if (persistence != nullptr) {
    Result<uint64_t> logged = persistence->LogCommit(
        transaction, persist::CommitOrigin::kProcessor, db.symbols(), obs,
        token_);
    if (!logged.ok()) return logged.status();
    seq = *logged;
  }

  // Undo log of the view-store operations actually performed.
  std::vector<std::pair<SymbolId, Tuple>> view_removed;  // re-add on rollback
  std::vector<std::pair<SymbolId, Tuple>> view_added;    // remove on rollback
  bool base_applied = false;

  Status status = poke(FaultPoint::kProcessorApplyViews);
  if (status.ok()) {
    report->views.delta.deletes.ForEach([&](SymbolId pred, const Tuple& t) {
      if (store.Remove(pred, t)) {
        ++report->views.applied_deletes;
        view_removed.emplace_back(pred, t);
      }
    });
    report->views.delta.inserts.ForEach([&](SymbolId pred, const Tuple& t) {
      if (store.Add(pred, t)) {
        ++report->views.applied_inserts;
        view_added.emplace_back(pred, t);
      }
    });
    // View-store changes alone must retire the cached snapshot.
    db_->MarkMutatedLocked();
    status = poke(FaultPoint::kProcessorApplyBase);
  }
  if (status.ok()) {
    // Unlogged: the commit record above already covers this transaction.
    status = db_->ApplyUnloggedLocked(transaction);
    if (status.ok()) {
      base_applied = true;
      status = poke(FaultPoint::kProcessorCommit);
    }
  }
  if (status.ok()) {
    // The transaction passed the incremental integrity check, so the new
    // state is known consistent without re-deriving Ic.
    db_->consistency_cache_ = true;
    if (token_.present()) db_->dedup_.Record(token_, db_->version_);
    // Accepted and durable: the commit's fate is final, so the replica feed
    // may ship it. (A rolled-back commit settles via LogAbort instead.)
    if (persistence != nullptr) persistence->SettleCommit(seq);
    if (span.enabled()) {
      span.AttrInt("view_inserts",
                   static_cast<int64_t>(report->views.applied_inserts));
      span.AttrInt("view_deletes",
                   static_cast<int64_t>(report->views.applied_deletes));
    }
    return Status::Ok();
  }

  // Roll back in reverse order of application.
  if (base_applied) {
    // The inverse of a just-applied valid transaction is itself valid
    // against the new state, so this succeeds unless the store is already
    // corrupted — which is escalated rather than masked.
    Status undo = db_->ApplyUnloggedLocked(transaction.Inverse());
    if (!undo.ok()) {
      return InternalError(StrCat("rollback failed after '", status.ToString(),
                                  "': ", undo.ToString()));
    }
  }
  for (const auto& [pred, t] : view_added) store.Remove(pred, t);
  for (const auto& [pred, t] : view_removed) store.Add(pred, t);
  report->views.applied_deletes = 0;
  report->views.applied_inserts = 0;
  if (persistence != nullptr) {
    // The commit record is already durable; compensate with an abort record
    // so recovery skips it. If even that fails, the log claims a commit the
    // memory state no longer has — escalate so the caller reopens (replay
    // would re-apply the transaction, which is why this cannot be masked).
    Status abort_logged = persistence->LogAbort(seq, obs);
    if (!abort_logged.ok()) {
      return InternalError(
          StrCat("transaction ", seq, " was rolled back in memory but its "
                 "abort record could not be logged (",
                 abort_logged.ToString(), "); reopen the database to "
                 "re-converge with the log"));
    }
  }
  if (span.enabled()) span.AttrInt("rolled_back", 1);
  obs::MetricsRegistry::Add(obs.metrics, "processor.rollbacks");
  return status;
}

Result<UpdateProcessor::ViewUpdateOutcome> UpdateProcessor::ProcessViewUpdate(
    const UpdateRequest& request, const ViewUpdatePolicy& policy) {
  Database& db = db_->database();
  DEDDB_RETURN_IF_ERROR(
      ResourceGuard::Check(db_->upward_options().eval.guard));
  const obs::ObsContext obs = db_->observability();
  obs::ScopedSpan span(obs.tracer, "processor.view_update");
  if (span.enabled()) {
    span.AttrStr("request", request.ToString(db.symbols()));
  }
  obs::MetricsRegistry::Add(obs.metrics, "processor.view_updates");
  DEDDB_ASSIGN_OR_RETURN(bool consistent, db_->IsConsistent());
  if (!consistent) {
    return FailedPreconditionError(
        "ProcessViewUpdate requires a consistent database");
  }

  // Downward: the request plus ¬ιIc_m for every maintained constraint
  // (default: the global Ic, i.e. maintain everything).
  UpdateRequest combined = request;
  std::vector<SymbolId> maintain = policy.maintain;
  if (maintain.empty() && policy.check.empty()) {
    maintain.push_back(db.global_ic());
  }
  for (SymbolId ic : maintain) {
    DEDDB_ASSIGN_OR_RETURN(PredicateInfo info, db.predicates().Get(ic));
    RequestedEvent no_violation;
    no_violation.positive = false;
    no_violation.is_insert = true;
    no_violation.predicate = ic;
    for (size_t i = 0; i < info.arity; ++i) {
      no_violation.args.push_back(
          Term::MakeVariable(db.symbols().FreshVar()));
    }
    combined.events.push_back(std::move(no_violation));
  }
  DEDDB_ASSIGN_OR_RETURN(problems::DownwardResult downward,
                         db_->TranslateViewUpdate(combined));
  // DownwardResult.translations is already the minimal, deduplicated set.
  std::vector<problems::Translation> candidates =
      std::move(downward.translations);

  ViewUpdateOutcome outcome;
  if (policy.check.empty()) {
    outcome.translations = std::move(candidates);
    if (span.enabled()) {
      span.AttrInt("translations",
                   static_cast<int64_t>(outcome.translations.size()));
    }
    return outcome;
  }

  // Upward: reject candidates violating a checked constraint.
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, db_->Compiled());
  for (problems::Translation& translation : candidates) {
    DEDDB_RETURN_IF_ERROR(
        ResourceGuard::Check(db_->upward_options().eval.guard));
    obs::ScopedSpan cand_span(obs.tracer, "processor.candidate");
    if (cand_span.enabled()) {
      cand_span.AttrStr("txn", translation.ToString(db.symbols()));
    }
    UpwardInterpreter upward(&db, compiled, db_->upward_options(),
                             ConsistencyProof::kConsistent);
    DEDDB_ASSIGN_OR_RETURN(
        DerivedEvents events,
        upward.InducedEventsFor(translation.transaction, policy.check));
    bool violated = false;
    for (SymbolId ic : policy.check) {
      const Relation* rel = events.inserts.Find(ic);
      if (rel != nullptr && rel->size() > 0) violated = true;
    }
    if (cand_span.enabled()) cand_span.AttrInt("accepted", violated ? 0 : 1);
    if (violated) {
      ++outcome.rejected_by_check;
      obs::MetricsRegistry::Add(obs.metrics,
                                "processor.candidates_rejected");
    } else {
      outcome.translations.push_back(std::move(translation));
    }
  }
  if (span.enabled()) {
    span.AttrInt("translations",
                 static_cast<int64_t>(outcome.translations.size()));
    span.AttrInt("rejected_by_check",
                 static_cast<int64_t>(outcome.rejected_by_check));
  }
  return outcome;
}

}  // namespace deddb
