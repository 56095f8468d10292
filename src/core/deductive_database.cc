#include "core/deductive_database.h"

#include <algorithm>
#include <chrono>

#include "core/update_processor.h"
#include "eval/index_advisor.h"
#include "obs/metrics.h"
#include "util/strings.h"

namespace deddb {

DeductiveDatabase::DeductiveDatabase(EventCompilerOptions compiler_options)
    : compiler_options_(compiler_options) {}

// ---- Snapshot sessions ------------------------------------------------------

Result<std::unique_ptr<Session>> DeductiveDatabase::BeginSession() {
  const obs::ObsContext obs = observability();
  std::lock_guard<std::mutex> lock(commit_mu_);
  std::shared_ptr<const SessionState> state;
  if (snapshot_cache_ != nullptr && snapshot_cache_->version == version_) {
    state = snapshot_cache_;  // same committed state: share the snapshot
  } else {
    auto fresh = std::make_shared<SessionState>();
    fresh->version = version_;
    fresh->db = db_.CloneSnapshot();
    fresh->extra_domain_constants = extra_domain_constants_;
    if (compiled_.has_value()) {
      // The clone's predicate table already carries the variants this
      // compilation registered, so the copy is consistent with it.
      fresh->compiled = *compiled_;
    } else {
      // Compile on the clone, pre-publication: variant registration mutates
      // the clone's predicate table, which no session shares yet. The
      // owner's sinks stay out of it (a later session would replay nothing).
      EventCompilerOptions options = compiler_options_;
      options.obs = {};
      EventCompiler compiler(fresh->db.get(), options);
      Result<CompiledEvents> compiled = compiler.Compile();
      if (compiled.ok()) {
        fresh->compiled = std::move(*compiled);
      } else {
        // Not fatal: queries don't need event rules. Session methods that
        // do will report this status.
        fresh->compile_status = compiled.status();
      }
    }
    ReclaimSessionEpochsLocked();
    epochs_.emplace_back(version_, fresh);
    snapshot_cache_ = fresh;
    state = std::move(fresh);
    obs::MetricsRegistry::Add(obs.metrics, "session.snapshots_created");
  }
  // Sessions run on their own threads: give them the owner's evaluation
  // options minus the shared sinks and guard (both are single-consumer).
  UpwardOptions upward = upward_options_;
  upward.eval.obs = {};
  upward.eval.guard = nullptr;
  DownwardOptions downward = downward_options_;
  downward.eval.obs = {};
  downward.eval.guard = nullptr;
  // The facade's verdict on this state travels with the snapshot, so
  // sessions check integrity given ¬Ic⁰ without re-proving it.
  if (consistency_cache_.has_value()) {
    state->SeedConsistency(*consistency_cache_);
  }
  auto session = std::unique_ptr<Session>(
      new Session(std::move(state), session_registry_, upward, downward));
  obs::MetricsRegistry::Add(obs.metrics, "session.begun");
  obs::MetricsRegistry::Set(
      obs.metrics, "session.active",
      static_cast<int64_t>(
          session_registry_->active.load(std::memory_order_relaxed)));
  obs::MetricsRegistry::Set(obs.metrics, "session.live_versions",
                            static_cast<int64_t>(epochs_.size()));
  return session;
}

size_t DeductiveDatabase::ReclaimSessionEpochsLocked() {
  const size_t before = epochs_.size();
  epochs_.erase(
      std::remove_if(epochs_.begin(), epochs_.end(),
                     [](const auto& entry) { return entry.second.expired(); }),
      epochs_.end());
  const size_t reclaimed = before - epochs_.size();
  if (reclaimed > 0) {
    versions_reclaimed_ += reclaimed;
    const obs::ObsContext obs = observability();
    obs::MetricsRegistry::Add(obs.metrics, "session.versions_reclaimed",
                              reclaimed);
    obs::MetricsRegistry::Set(obs.metrics, "session.live_versions",
                              static_cast<int64_t>(epochs_.size()));
  }
  return reclaimed;
}

size_t DeductiveDatabase::ReclaimSessionEpochs() {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return ReclaimSessionEpochsLocked();
}

size_t DeductiveDatabase::live_session_versions() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return epochs_.size();
}

uint64_t DeductiveDatabase::version() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return version_;
}

Result<std::unique_ptr<DeductiveDatabase>> DeductiveDatabase::OpenPersistent(
    const std::string& dir, PersistOptions persist_options,
    EventCompilerOptions compiler_options) {
  auto db = std::make_unique<DeductiveDatabase>(compiler_options);
  DEDDB_ASSIGN_OR_RETURN(
      std::unique_ptr<persist::PersistenceManager> manager,
      persist::PersistenceManager::Open(
          dir, persist::PersistenceManager::Options{
                   persist_options.group_commit}));
  DEDDB_RETURN_IF_ERROR(manager->RestoreSnapshotInto(&db->db_));
  // A decoded snapshot carries tuples but no index declarations; re-derive
  // them from the restored program before replaying the log.
  DeclareAdvisedIndexes(db->db_.program(), &db->db_.mutable_facts());
  DEDDB_ASSIGN_OR_RETURN(std::vector<persist::WalRecord> records,
                         manager->ReadLogForRecovery(&db->db_.symbols()));
  // Replay each surviving commit through the path that produced it, so the
  // recovered in-memory state (including materialized views) re-converges to
  // the state at the crash. persistence_ is still null here, which is what
  // keeps replayed commits from being logged a second time.
  for (const persist::WalRecord& record : records) {
    DEDDB_RETURN_IF_ERROR(db->ReplayWalRecord(record));
  }
  DEDDB_RETURN_IF_ERROR(manager->OpenLogForAppend());
  db->persistence_ = std::move(manager);
  return db;
}

Status DeductiveDatabase::Checkpoint() {
  if (persistence_ == nullptr) {
    return FailedPreconditionError(
        "Checkpoint() requires a database opened with OpenPersistent");
  }
  std::lock_guard<std::mutex> lock(commit_mu_);
  DEDDB_RETURN_IF_ERROR(commit_health_);
  return persistence_->Checkpoint(db_, observability());
}

Status DeductiveDatabase::Close() {
  if (persistence_ == nullptr) return Status::Ok();
  std::lock_guard<std::mutex> lock(commit_mu_);
  Status status = commit_health_.ok()
                      ? persistence_->Checkpoint(db_, observability())
                      : commit_health_;
  persistence_.reset();
  return status;
}

Status DeductiveDatabase::ReplayWalRecord(const persist::WalRecord& record) {
  if (record.origin == persist::CommitOrigin::kDirect) {
    Status status = ApplyUnlogged(record.transaction);
    if (!status.ok()) {
      return CorruptionError(
          StrCat("replaying logged transaction ", record.seq,
                 " failed (was the schema checkpointed before "
                 "committing?): ", status.ToString()));
    }
  } else {
    UpdateProcessor processor(this);
    Result<UpdateProcessor::TransactionReport> report =
        processor.ProcessTransaction(record.transaction, /*apply=*/true);
    if (!report.ok()) {
      return CorruptionError(
          StrCat("replaying logged transaction ", record.seq,
                 " failed (was the schema checkpointed before "
                 "committing?): ", report.status().ToString()));
    }
    if (!report->accepted) {
      // The record was only written after the original pass accepted it.
      return CorruptionError(
          StrCat("logged transaction ", record.seq,
                 " was rejected on replay; the log does not match the "
                 "snapshot"));
    }
  }
  if (record.token.present()) {
    // Re-arm the exactly-once memory: a client retrying across the crash
    // (or failing over to a replica) must still get a dedup hit, not a
    // second apply.
    std::lock_guard<std::mutex> lock(commit_mu_);
    dedup_.Record(record.token, version_);
  }
  return Status::Ok();
}

Status DeductiveDatabase::ReplicaRefusal() const {
  return FailedPreconditionError(
      "read-only replica: local mutation refused; write to the primary");
}

Status DeductiveDatabase::EnterReplicaMode() {
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (replica_mode_.load(std::memory_order_relaxed)) {
    return FailedPreconditionError("already in replica mode");
  }
  DEDDB_RETURN_IF_ERROR(commit_health_);
  if (persistence_ != nullptr) {
    // Seeded from a copied primary checkpoint: the replay cursor starts at
    // the recovered sequence. The manager is dropped without a checkpoint —
    // a replica never writes locally, and its sequence numbers are the
    // primary's, which local logging could not reproduce (aborted sequences
    // leave gaps a local LogCommit would re-use).
    replica_applied_seq_.store(persistence_->stats().last_seq,
                               std::memory_order_release);
    persistence_.reset();
  }
  replica_mode_.store(true, std::memory_order_release);
  return Status::Ok();
}

Result<uint64_t> DeductiveDatabase::ApplyReplicated(
    std::string_view wal_payload) {
  if (!replica_mode()) {
    return FailedPreconditionError(
        "ApplyReplicated requires EnterReplicaMode()");
  }
  // One applier at a time: the replay of a processor record takes the
  // commit lock per phase, so commit_mu_ alone cannot order two appliers.
  std::lock_guard<std::mutex> apply_lock(replica_apply_mu_);
  DEDDB_ASSIGN_OR_RETURN(
      persist::WalRecord record,
      persist::DecodeWalRecordPayload(wal_payload, &db_.symbols()));
  if (record.type != persist::RecordType::kCommit) {
    return CorruptionError(StrCat(
        "the feed shipped a non-commit record (seq ", record.seq,
        "); aborted commits are filtered on the primary"));
  }
  const uint64_t applied = replica_applied_seq();
  if (record.seq <= applied) {
    return FailedPreconditionError(
        StrCat("replicated record ", record.seq,
               " is not ahead of the applied cursor ", applied,
               "; resume the feed from the cursor"));
  }
  DEDDB_RETURN_IF_ERROR(ReplayWalRecord(record));
  replica_applied_seq_.store(record.seq, std::memory_order_release);
  return version();
}

Result<SymbolId> DeductiveDatabase::DeclareBase(std::string_view name,
                                                size_t arity) {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  InvalidateCompiled();
  MarkMutatedLocked();
  NotifyBarrierLocked();
  return db_.DeclareBase(name, arity);
}

Result<SymbolId> DeductiveDatabase::DeclareDerived(std::string_view name,
                                                   size_t arity) {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  InvalidateCompiled();
  MarkMutatedLocked();
  NotifyBarrierLocked();
  return db_.DeclareDerived(name, arity, PredicateSemantics::kPlain);
}

Result<SymbolId> DeductiveDatabase::DeclareView(std::string_view name,
                                                size_t arity) {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  InvalidateCompiled();
  MarkMutatedLocked();
  NotifyBarrierLocked();
  return db_.DeclareDerived(name, arity, PredicateSemantics::kView);
}

Result<SymbolId> DeductiveDatabase::DeclareConstraint(std::string_view name,
                                                      size_t arity) {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  InvalidateCompiled();
  MarkMutatedLocked();
  NotifyBarrierLocked();
  return db_.DeclareDerived(name, arity, PredicateSemantics::kIc);
}

Result<SymbolId> DeductiveDatabase::DeclareCondition(std::string_view name,
                                                     size_t arity) {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  InvalidateCompiled();
  MarkMutatedLocked();
  NotifyBarrierLocked();
  return db_.DeclareDerived(name, arity, PredicateSemantics::kCondition);
}

Status DeductiveDatabase::AddRule(Rule rule) {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  InvalidateCompiled();
  MarkMutatedLocked();
  NotifyBarrierLocked();
  DEDDB_RETURN_IF_ERROR(db_.AddRule(std::move(rule)));
  // Keep the EDB's composite indexes in step with the program's join shapes;
  // declared masks survive COW commits and are maintained incrementally from
  // here on (never rebuilt on Apply).
  DeclareAdvisedIndexes(db_.program(), &db_.mutable_facts());
  return Status::Ok();
}

Status DeductiveDatabase::AddFact(const Atom& ground_atom) {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  InvalidateDomain();
  MarkMutatedLocked();
  NotifyBarrierLocked();
  return db_.AddFact(ground_atom);
}

Status DeductiveDatabase::RemoveFact(const Atom& ground_atom) {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  InvalidateDomain();
  MarkMutatedLocked();
  NotifyBarrierLocked();
  return db_.RemoveFact(ground_atom);
}

Status DeductiveDatabase::MaterializeView(SymbolId view) {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  MarkMutatedLocked();
  NotifyBarrierLocked();
  return db_.MaterializeView(view);
}

Term DeductiveDatabase::Constant(std::string_view name) {
  return Term::MakeConstant(db_.symbols().Intern(name));
}

Term DeductiveDatabase::Variable(std::string_view name) {
  return Term::MakeVariable(db_.symbols().InternVar(name));
}

Result<Atom> DeductiveDatabase::MakeAtom(std::string_view predicate,
                                         std::vector<Term> args) {
  DEDDB_ASSIGN_OR_RETURN(SymbolId pred, db_.FindPredicate(predicate));
  DEDDB_ASSIGN_OR_RETURN(PredicateInfo info, db_.predicates().Get(pred));
  if (info.arity != args.size()) {
    return InvalidArgumentError(
        StrCat("predicate '", predicate, "' has arity ", info.arity, ", got ",
               args.size(), " arguments"));
  }
  return Atom(pred, std::move(args));
}

Result<Atom> DeductiveDatabase::GroundAtom(
    std::string_view predicate, std::vector<std::string_view> constants) {
  std::vector<Term> args;
  args.reserve(constants.size());
  for (std::string_view c : constants) args.push_back(Constant(c));
  return MakeAtom(predicate, std::move(args));
}

Result<Transaction> DeductiveDatabase::MakeTransaction(
    std::vector<std::pair<Op, Atom>> events) {
  Transaction txn;
  for (const auto& [op, atom] : events) {
    DEDDB_ASSIGN_OR_RETURN(PredicateInfo info,
                           db_.predicates().Get(atom.predicate()));
    if (info.kind != PredicateKind::kBase) {
      return InvalidArgumentError(
          StrCat("transactions consist of base fact updates; '",
                 atom.ToString(db_.symbols()), "' is derived"));
    }
    if (op == Op::kInsert) {
      DEDDB_RETURN_IF_ERROR(txn.AddInsert(atom));
    } else {
      DEDDB_RETURN_IF_ERROR(txn.AddDelete(atom));
    }
  }
  return txn;
}

Status DeductiveDatabase::Apply(const Transaction& transaction) {
  return Apply(transaction, persist::CommitToken{});
}

Status DeductiveDatabase::Apply(const Transaction& transaction,
                                const persist::CommitToken& token) {
  DEDDB_ASSIGN_OR_RETURN(StagedApply staged, StageApply(transaction, token));
  DEDDB_RETURN_IF_ERROR(DedupRefusal(staged.verdict, token));
  return FinishApply(staged);
}

void DeductiveDatabase::RecordRejectedToken(
    const persist::CommitToken& token) {
  if (!token.present()) return;
  std::lock_guard<std::mutex> lock(commit_mu_);
  dedup_.RecordRejected(token);
}

DedupResult DeductiveDatabase::LookupCommitToken(
    const persist::CommitToken& token) const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return dedup_.Lookup(token);
}

Status DeductiveDatabase::commit_health() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return commit_health_;
}

Status DeductiveDatabase::LossBehind(uint64_t version) const {
  const uint64_t first = lost_version_.load(std::memory_order_acquire);
  if (first == 0 || version < first) return Status::Ok();
  std::lock_guard<std::mutex> lock(commit_mu_);
  return commit_health_;
}

Result<DeductiveDatabase::StagedApply> DeductiveDatabase::StageApply(
    const Transaction& transaction, const persist::CommitToken& token) {
  if (replica_mode()) return ReplicaRefusal();
  const obs::ObsContext obs = observability();
  std::unique_lock<std::mutex> lock(commit_mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Contended: record how long this committer waited for the lock.
    // (Uncontended commits record nothing, keeping golden traces stable.)
    const auto start = std::chrono::steady_clock::now();
    lock.lock();
    const auto waited = std::chrono::steady_clock::now() - start;
    obs::MetricsRegistry::Add(obs.metrics, "session.commit_waits");
    obs::MetricsRegistry::Observe(
        obs.metrics, "session.commit_wait_us",
        std::chrono::duration_cast<std::chrono::microseconds>(waited)
            .count());
  }
  // Health before dedup: once poisoned, the table may hold optimistic
  // entries for commits that never became durable.
  DEDDB_RETURN_IF_ERROR(commit_health_);
  StagedApply staged;
  if (token.present()) {
    const DedupResult dedup = dedup_.Lookup(token);
    if (dedup.verdict != DedupVerdict::kFresh) {
      staged.verdict = dedup.verdict;
      staged.version = dedup.version;
      return staged;
    }
  }
  DEDDB_RETURN_IF_ERROR(
      transaction.Validate(db_.facts(), db_.predicates()));
  if (persistence_ != nullptr) {
    // Redo logging, pipelined: stage the commit record (its sequence number
    // and log bytes) under the lock and apply in memory; FinishApply waits
    // for durability OUTSIDE the lock so staged commits share fsyncs. A
    // failed staging leaves the database untouched, so the redo contract
    // is unchanged.
    DEDDB_ASSIGN_OR_RETURN(
        staged.prepared,
        persistence_->PrepareCommit(transaction,
                                    persist::CommitOrigin::kDirect,
                                    db_.symbols(), obs, token));
  }
  DEDDB_RETURN_IF_ERROR(ApplyValidatedLocked(transaction));
  // Record the token with the commit it names, before the lock drops: a
  // dedup lookup serialized after this commit must see it. If durability
  // then fails the facade is poisoned, which StageApply checks before any
  // lookup, and the non-durable record is not replayed on reopen.
  if (token.present()) dedup_.Record(token, version_);
  staged.version = version_;
  return staged;
}

Status DeductiveDatabase::FinishApply(const StagedApply& staged) {
  if (!staged.prepared.has_value()) return Status::Ok();
  const persist::PersistenceManager::PreparedCommit& prepared =
      *staged.prepared;
  Status durable = persistence_->WaitCommitDurable(prepared, observability());
  if (!durable.ok()) {
    // Applied in memory but not on disk: the memory state is ahead of the
    // log, so no further commit may be acknowledged. Poison the facade
    // (the first loss names the cause; later ones report their own seq).
    Status lost = InternalError(
        StrCat("commit ", prepared.seq,
               " was applied in memory but its log record is not durable (",
               durable.ToString(), "); reopen the database to re-converge"));
    std::lock_guard<std::mutex> relock(commit_mu_);
    if (commit_health_.ok()) commit_health_ = lost;
    const uint64_t first = lost_version_.load(std::memory_order_relaxed);
    if (first == 0 || staged.version < first) {
      lost_version_.store(staged.version, std::memory_order_release);
    }
    return lost;
  }
  // Durable and irrevocable: expose the record to the replica feed.
  persistence_->SettleCommit(prepared.seq);
  return Status::Ok();
}

Status DeductiveDatabase::ApplyUnlogged(const Transaction& transaction) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return ApplyUnloggedLocked(transaction);
}

Status DeductiveDatabase::ApplyUnloggedLocked(const Transaction& transaction) {
  DEDDB_RETURN_IF_ERROR(
      transaction.Validate(db_.facts(), db_.predicates()));
  return ApplyValidatedLocked(transaction);
}

Status DeductiveDatabase::ApplyValidatedLocked(
    const Transaction& transaction) {
  // CDC (DESIGN.md §11): induced events are a property of the transition,
  // so they are computed against the OLD state, before the in-place
  // mutation below. The requester's ResourceGuard is stripped — a delta
  // stream other clients depend on must not fail because one writer ran
  // with a small budget.
  DerivedEvents induced;
  bool announce = false;
  bool induced_ok = true;
  if (commit_observer_ != nullptr && commit_observer_->active()) {
    announce = true;
    const std::vector<SymbolId> wanted = commit_observer_->WantedDerived();
    if (!wanted.empty()) {
      Result<const CompiledEvents*> compiled = CompiledLocked();
      if (compiled.ok()) {
        UpwardOptions options = upward_options_;
        options.eval.guard = nullptr;
        UpwardInterpreter upward(&db_, *compiled, options);
        Result<DerivedEvents> events =
            upward.InducedEventsFor(transaction, wanted);
        if (events.ok()) {
          induced = std::move(*events);
        } else {
          induced_ok = false;
        }
      } else {
        induced_ok = false;
      }
    }
  }
  InvalidateDomain();
  // In place: O(|T|), not O(|DB|).
  FactStore& facts = db_.mutable_facts();
  transaction.deletes().ForEach(
      [&](SymbolId pred, const Tuple& t) { facts.Remove(pred, t); });
  transaction.inserts().ForEach(
      [&](SymbolId pred, const Tuple& t) { facts.Add(pred, t); });
  MarkMutatedLocked();
  if (announce) {
    // A commit whose induced events could not be computed (e.g. the event
    // rules no longer compile) still changed the database: demote it to a
    // barrier rather than fail the write or ship a wrong delta.
    if (induced_ok) {
      commit_observer_->OnCommit(version_, transaction, induced);
    } else {
      commit_observer_->OnBarrier(version_);
    }
  }
  return Status::Ok();
}

Result<const CompiledEvents*> DeductiveDatabase::Compiled() {
  // Under the commit lock: compilation registers predicate variants (a
  // predicate-table mutation BeginSession's clone must not observe
  // half-done).
  std::lock_guard<std::mutex> lock(commit_mu_);
  return CompiledLocked();
}

Result<const CompiledEvents*> DeductiveDatabase::CompiledLocked() {
  if (!compiled_.has_value()) {
    EventCompiler compiler(&db_, compiler_options_);
    DEDDB_ASSIGN_OR_RETURN(CompiledEvents compiled, compiler.Compile());
    compiled_ = std::move(compiled);
  }
  return &*compiled_;
}

Result<const ActiveDomain*> DeductiveDatabase::Domain() {
  if (!domain_.has_value()) {
    domain_.emplace(db_);
    for (SymbolId c : extra_domain_constants_) domain_->AddExtra(c);
  }
  return &*domain_;
}

Status DeductiveDatabase::AddDomainConstant(std::string_view name) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  SymbolId c = db_.symbols().Intern(name);
  extra_domain_constants_.push_back(c);
  if (domain_.has_value()) domain_->AddExtra(c);
  // Sessions snapshot the extras, so a new one retires the cached snapshot.
  MarkMutatedLocked();
  NotifyBarrierLocked();
  return Status::Ok();
}

// ---- Upward problems -------------------------------------------------------

Result<bool> DeductiveDatabase::IsConsistent() {
  uint64_t proved_version = 0;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    if (consistency_cache_.has_value()) return *consistency_cache_;
    proved_version = version_;
  }
  // The proof reads only state this (writer) thread mutates, so it runs
  // outside the lock and never stalls BeginSession.
  DEDDB_ASSIGN_OR_RETURN(bool violated,
                         problems::IcHolds(db_, upward_options_.eval));
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (version_ == proved_version) consistency_cache_ = !violated;
  return !violated;
}

Result<problems::IntegrityCheckResult> DeductiveDatabase::CheckIntegrity(
    const Transaction& transaction) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(bool consistent, IsConsistent());
  // An inconsistent database goes through the unproven path, which reports
  // the precondition failure.
  return problems::CheckIntegrity(db_, *compiled, transaction,
                                  upward_options_,
                                  consistent ? ConsistencyProof::kConsistent
                                             : ConsistencyProof::kUnproven);
}

Result<problems::ConsistencyRestorationResult>
DeductiveDatabase::CheckConsistencyRestored(const Transaction& transaction) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  return problems::CheckConsistencyRestored(db_, *compiled, transaction,
                                            upward_options_);
}

Result<problems::ConditionChanges> DeductiveDatabase::MonitorConditions(
    const Transaction& transaction, const std::vector<SymbolId>& conditions) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  return problems::MonitorConditions(db_, *compiled, transaction, conditions,
                                     upward_options_);
}

Status DeductiveDatabase::InitializeMaterializedViews() {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  MarkMutatedLocked();
  NotifyBarrierLocked();
  return problems::InitializeMaterializedViews(&db_, upward_options_.eval);
}

Result<problems::ViewMaintenanceResult>
DeductiveDatabase::MaintainMaterializedViews(const Transaction& transaction,
                                             bool apply) {
  if (apply && replica_mode()) return ReplicaRefusal();
  // Compiled() takes the (non-recursive) commit lock itself: resolve it
  // before locking for the view-store mutation.
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (apply) {
    MarkMutatedLocked();
    NotifyBarrierLocked();
  }
  return problems::MaintainMaterializedViews(&db_, *compiled, transaction,
                                             apply, upward_options_);
}

Result<DerivedEvents> DeductiveDatabase::InducedEvents(
    const Transaction& transaction) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  ConsistencyProof proof = ConsistencyProof::kUnproven;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    if (consistency_cache_.value_or(false)) {
      proof = ConsistencyProof::kConsistent;
    }
  }
  UpwardInterpreter upward(&db_, compiled, upward_options_, proof);
  return upward.InducedEvents(transaction);
}

Result<DerivedEvents> DeductiveDatabase::SimulateRuleUpdate(
    const problems::RuleUpdate& update) {
  return problems::InducedEventsOfRuleUpdate(db_, update,
                                             upward_options_.eval);
}

Status DeductiveDatabase::ApplyRuleUpdate(const problems::RuleUpdate& update) {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  DEDDB_RETURN_IF_ERROR(problems::ApplyRuleUpdate(&db_, update));
  InvalidateCompiled();
  MarkMutatedLocked();
  NotifyBarrierLocked();
  DeclareAdvisedIndexes(db_.program(), &db_.mutable_facts());
  return Status::Ok();
}

// ---- Downward problems -----------------------------------------------------

Result<problems::DownwardResult> DeductiveDatabase::TranslateViewUpdate(
    const UpdateRequest& request) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::TranslateViewUpdate(db_, *compiled, *domain, request,
                                       downward_options_);
}

Result<bool> DeductiveDatabase::ValidateView(SymbolId view, bool insertion) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::ValidateView(db_, *compiled, *domain, view, insertion,
                                &db_.symbols(), downward_options_);
}

Result<problems::DownwardResult> DeductiveDatabase::PreventSideEffects(
    const Transaction& transaction, std::vector<RequestedEvent> unwanted) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::PreventSideEffects(db_, *compiled, *domain, transaction,
                                      std::move(unwanted),
                                      downward_options_);
}

Result<problems::DownwardResult> DeductiveDatabase::RepairDatabase() {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::RepairDatabase(db_, *compiled, *domain,
                                  downward_options_);
}

Result<bool> DeductiveDatabase::CheckSatisfiability() {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::CheckSatisfiability(db_, *compiled, *domain,
                                       downward_options_);
}

Result<problems::DownwardResult>
DeductiveDatabase::FindViolatingTransactions() {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::FindViolatingTransactions(db_, *compiled, *domain,
                                             downward_options_);
}

Result<problems::DownwardResult> DeductiveDatabase::MaintainIntegrity(
    const Transaction& transaction) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::MaintainIntegrity(db_, *compiled, *domain, transaction,
                                     downward_options_);
}

Result<problems::DownwardResult> DeductiveDatabase::MaintainInconsistency(
    const Transaction& transaction) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::MaintainInconsistency(db_, *compiled, *domain, transaction,
                                         downward_options_);
}

Result<problems::DownwardResult> DeductiveDatabase::EnforceCondition(
    RequestedEvent event) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::EnforceCondition(db_, *compiled, *domain, std::move(event),
                                    downward_options_);
}

Result<bool> DeductiveDatabase::ValidateCondition(SymbolId condition,
                                                  bool activation) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::ValidateCondition(db_, *compiled, *domain, condition,
                                     activation, &db_.symbols(),
                                     downward_options_);
}

Result<problems::DownwardResult>
DeductiveDatabase::PreventConditionActivation(
    const Transaction& transaction,
    std::vector<RequestedEvent> protected_events) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::PreventConditionActivation(db_, *compiled, *domain,
                                              transaction,
                                              std::move(protected_events),
                                              downward_options_);
}

}  // namespace deddb
