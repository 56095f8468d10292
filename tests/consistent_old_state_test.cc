// The proved-consistent old state (paper Table 4.1: integrity checking is
// upward ιIc *given* ¬Ic⁰). Once a state is proved consistent, the
// OldStateView over it answers Ic and every Ic_i as empty without
// evaluating them. These tests pin that the shortcut never changes an
// answer:
//  * 200 random hierarchical programs with constraints, a condition and a
//    materialized view, plus the employment schema at 1 000 people: the
//    upward events with and without the proof and under the recompute
//    baseline agree, and ProcessTransaction reports exactly what the
//    unproven pass implies;
//  * problems specified given Ic⁰ (consistency restoration, repair,
//    maintaining inconsistency) keep their answers, and a session pinned
//    after a direct Apply that breaks a constraint never holds a proof;
//  * with a proof, the view does not evaluate Ic at all (probed with a
//    deliberately false proof on an inconsistent state);
//  * the facade's verdict is read and written under the commit lock while
//    sessions pin snapshots (a TSan target).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/deductive_database.h"
#include "core/session.h"
#include "core/update_processor.h"
#include "eval/bottom_up.h"
#include "interp/old_state.h"
#include "interp/upward.h"
#include "util/strings.h"
#include "workload/employment.h"
#include "workload/random_programs.h"

namespace deddb {
namespace {

using workload::EmploymentConfig;
using workload::MakeEmploymentDatabase;
using workload::MakeRandomDatabase;
using workload::RandomEmploymentTransaction;
using workload::RandomProgramConfig;
using workload::RandomTransaction;

// The goals of UpdateProcessor::ProcessTransaction's combined pass.
std::vector<SymbolId> ProcessorGoals(const Database& db) {
  std::vector<SymbolId> goals = {db.global_ic()};
  for (SymbolId cond : db.condition_predicates()) goals.push_back(cond);
  for (SymbolId view : db.view_predicates()) {
    if (db.IsMaterialized(view)) goals.push_back(view);
  }
  return goals;
}

Result<DerivedEvents> Upward(DeductiveDatabase* db, const Transaction& txn,
                             const std::vector<SymbolId>& goals,
                             UpwardStrategy strategy, ConsistencyProof proof) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, db->Compiled());
  UpwardOptions options;
  options.strategy = strategy;
  UpwardInterpreter upward(&db->database(), compiled, options, proof);
  return upward.InducedEventsFor(txn, goals);
}

// A TransactionReport rendered independently of the order in which the
// pass found its facts.
std::string Canonical(const Database& db, bool accepted,
                      std::vector<Atom> violations,
                      const DerivedEvents& conditions,
                      const DerivedEvents& views) {
  std::sort(violations.begin(), violations.end());
  return StrCat(accepted ? "ACCEPTED" : "REJECTED", " violations=",
                JoinMapped(violations, ",",
                           [&](const Atom& a) {
                             return a.ToString(db.symbols());
                           }),
                " conditions=", conditions.ToString(db.symbols()),
                " views=", views.ToString(db.symbols()));
}

std::string Canonical(const Database& db,
                      const UpdateProcessor::TransactionReport& report) {
  return Canonical(db, report.accepted, report.integrity.violations,
                   report.conditions.events, report.views.delta);
}

// The report ProcessTransaction must produce, derived from the events of an
// upward pass (the processor's own split of ιIc_i / conditions / views).
std::string ExpectedReport(const Database& db, const DerivedEvents& events) {
  std::vector<Atom> violations;
  for (SymbolId ic : db.ic_predicates()) {
    if (const Relation* rel = events.inserts.Find(ic)) {
      rel->ForEach(
          [&](const Tuple& t) { violations.push_back(AtomFromTuple(ic, t)); });
    }
  }
  DerivedEvents conditions;
  DerivedEvents views;
  auto split = [&](const FactStore& from, bool inserts) {
    from.ForEach([&](SymbolId pred, const Tuple& t) {
      const auto& conds = db.condition_predicates();
      if (std::find(conds.begin(), conds.end(), pred) != conds.end()) {
        (inserts ? conditions.inserts : conditions.deletes).Add(pred, t);
      }
      if (db.IsMaterialized(pred)) {
        (inserts ? views.inserts : views.deletes).Add(pred, t);
      }
    });
  };
  split(events.inserts, true);
  split(events.deletes, false);
  return Canonical(db, !events.ContainsInsert(db.global_ic(), {}), violations,
                   conditions, views);
}

// One transaction through every upward variant: the proof changes nothing,
// the recompute baseline agrees, and the processor's report is what the
// unproven pass implies. Applies the transaction when it is accepted, so
// the state (and the facade's verdict) moves on.
void CheckTransaction(DeductiveDatabase* db, const Transaction& txn) {
  const Database& state = db->database();
  const std::vector<SymbolId> goals = ProcessorGoals(state);
  Result<DerivedEvents> unproven = Upward(
      db, txn, goals, UpwardStrategy::kEventRules, ConsistencyProof::kUnproven);
  ASSERT_TRUE(unproven.ok()) << unproven.status();
  Result<DerivedEvents> proven = Upward(db, txn, goals,
                                        UpwardStrategy::kEventRules,
                                        ConsistencyProof::kConsistent);
  ASSERT_TRUE(proven.ok()) << proven.status();
  Result<DerivedEvents> recompute = Upward(
      db, txn, goals, UpwardStrategy::kRecompute, ConsistencyProof::kUnproven);
  ASSERT_TRUE(recompute.ok()) << recompute.status();
  const std::string expected = unproven->ToString(state.symbols());
  ASSERT_EQ(proven->ToString(state.symbols()), expected)
      << "txn " << txn.ToString(state.symbols());
  ASSERT_EQ(recompute->ToString(state.symbols()), expected)
      << "txn " << txn.ToString(state.symbols());

  UpdateProcessor processor(db);
  auto dry = processor.ProcessTransaction(txn, /*apply=*/false);
  ASSERT_TRUE(dry.ok()) << dry.status();
  ASSERT_EQ(Canonical(state, *dry), ExpectedReport(state, *unproven))
      << "txn " << txn.ToString(state.symbols());
  if (dry->accepted) {
    auto applied = processor.ProcessTransaction(txn, /*apply=*/true);
    ASSERT_TRUE(applied.ok()) << applied.status();
    ASSERT_TRUE(applied->accepted);
  }
}

// Whether Ic holds, by a full bottom-up derivation (not the lazy query path
// IcHolds and the old-state view share).
bool IcDerived(const Database& db) {
  FactStoreProvider edb(&db.facts());
  BottomUpEvaluator evaluator(db.program(), db.symbols(), edb);
  Result<FactStore> idb = evaluator.EvaluateFor({db.global_ic()});
  EXPECT_TRUE(idb.ok()) << idb.status();
  return idb.ok() && idb->Contains(db.global_ic(), {});
}

Atom OpenAtom(DeductiveDatabase* db, SymbolId pred, size_t arity) {
  std::vector<Term> args;
  for (size_t i = 0; i < arity; ++i) {
    args.push_back(db->Variable(StrCat("x", i)));
  }
  return Atom(pred, std::move(args));
}

// Extends a random program with two constraints that hold by construction
// (each compares a derived predicate with a frozen base copy of its current
// extension, so a transaction changing it can violate them), a condition
// and a materialized view.
void AddConstraintsAndViews(DeductiveDatabase* db,
                            const RandomProgramConfig& config) {
  const Database& state = db->database();
  const size_t m = config.derived_predicates;
  auto derived = [&](size_t i) {
    SymbolId sym = state.FindPredicate(StrCat("D", i)).value();
    return std::make_pair(sym, state.predicates().Get(sym).value().arity);
  };
  struct Frozen {
    const char* copy;
    const char* ic;
    size_t derived;
    bool copy_covers_derived;  // Ic(x) <- D(x) & ¬F(x), else F(x) & ¬D(x)
  };
  // Constraints over the two shallowest predicates: IcHolds resolves Ic
  // lazily, which is exponential over deep chains of negated derived
  // literals (ROADMAP). The condition and the view sit on the deepest.
  const Frozen frozen[] = {{"F1", "RIc1", 0, true}, {"F2", "RIc2", 1, false}};
  for (size_t k = 0; k < 2; ++k) {
    auto [d, arity] = derived(frozen[k].derived);
    OldStateView view(&state);
    Result<std::vector<Tuple>> extension = view.Query(OpenAtom(db, d, arity));
    ASSERT_TRUE(extension.ok()) << extension.status();
    Result<SymbolId> copy = db->DeclareBase(frozen[k].copy, arity);
    ASSERT_TRUE(copy.ok()) << copy.status();
    for (const Tuple& t : *extension) {
      ASSERT_TRUE(db->AddFact(AtomFromTuple(*copy, t)).ok());
    }
    Result<SymbolId> ic = db->DeclareConstraint(frozen[k].ic, arity);
    ASSERT_TRUE(ic.ok()) << ic.status();
    Atom derived_atom = OpenAtom(db, d, arity);
    Atom copy_atom = OpenAtom(db, *copy, arity);
    std::vector<Literal> body =
        frozen[k].copy_covers_derived
            ? std::vector<Literal>{Literal::Positive(derived_atom),
                                   Literal::Negative(copy_atom)}
            : std::vector<Literal>{Literal::Positive(copy_atom),
                                   Literal::Negative(derived_atom)};
    ASSERT_TRUE(
        db->AddRule(Rule(OpenAtom(db, *ic, arity), std::move(body))).ok());
  }
  auto [c, c_arity] = derived(m - 2);
  Result<SymbolId> cond = db->DeclareCondition("RCond", c_arity);
  ASSERT_TRUE(cond.ok()) << cond.status();
  ASSERT_TRUE(db->AddRule(Rule(OpenAtom(db, *cond, c_arity),
                               {Literal::Positive(OpenAtom(db, c, c_arity))}))
                  .ok());
  auto [v, v_arity] = derived(m - 1);
  Result<SymbolId> view = db->DeclareView("RView", v_arity);
  ASSERT_TRUE(view.ok()) << view.status();
  ASSERT_TRUE(db->AddRule(Rule(OpenAtom(db, *view, v_arity),
                               {Literal::Positive(OpenAtom(db, v, v_arity))}))
                  .ok());
  ASSERT_TRUE(db->MaterializeView(*view).ok());
  ASSERT_TRUE(db->InitializeMaterializedViews().ok());
}

// ---------------------------------------------------------------------------
// 1: the proof changes no answer on consistent states.

class RandomProgramProofTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramProofTest,
                         ::testing::Range<uint64_t>(1, 201));

TEST_P(RandomProgramProofTest, ProofChangesNoAnswer) {
  RandomProgramConfig config;
  config.seed = GetParam();
  config.simplify = GetParam() % 2 == 0;  // both candidate strategies
  // Small programs: on larger random programs the lazy old-state resolution
  // that both the event-rule pass and IcHolds use can take minutes (deep
  // chains of derived literals; ROADMAP), and this suite runs under TSan.
  config.derived_predicates = 4;
  config.facts_per_base = 12;
  config.constants = 8;
  auto db = MakeRandomDatabase(config);
  ASSERT_TRUE(db.ok()) << db.status();
  AddConstraintsAndViews(db->get(), config);
  if (HasFatalFailure()) return;
  Result<bool> consistent = (*db)->IsConsistent();
  ASSERT_TRUE(consistent.ok()) << consistent.status();
  ASSERT_TRUE(*consistent);

  size_t accepted = 0;
  for (uint64_t i = 0; i < 4; ++i) {
    auto txn = RandomTransaction(db->get(), config, 1 + i % 3,
                                 GetParam() * 131 + i);
    ASSERT_TRUE(txn.ok()) << txn.status();
    const uint64_t before = (*db)->version();
    CheckTransaction(db->get(), *txn);
    if (HasFatalFailure()) return;
    accepted += (*db)->version() != before;
  }
  // An accepted commit leaves the facade's verdict in place; it must be
  // the truth about the new state.
  Result<bool> verdict = (*db)->IsConsistent();
  ASSERT_TRUE(verdict.ok()) << verdict.status();
  EXPECT_EQ(*verdict, !IcDerived((*db)->database()))
      << accepted << " accepted";
}

TEST(EmploymentProofTest, ProofChangesNoAnswerAt1000People) {
  EmploymentConfig config;
  config.people = 1000;
  config.consistent = true;
  config.materialize_unemp = true;
  auto db = MakeEmploymentDatabase(config);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE((*db)->InitializeMaterializedViews().ok());
  size_t accepted = 0;
  size_t rejected = 0;
  for (uint64_t i = 0; i < 40; ++i) {
    auto txn = RandomEmploymentTransaction(db->get(), config.people,
                                           1 + i % 4, 7000 + i);
    ASSERT_TRUE(txn.ok()) << txn.status();
    const uint64_t before = (*db)->version();
    CheckTransaction(db->get(), *txn);
    if (HasFatalFailure()) return;
    ((*db)->version() != before ? accepted : rejected) += 1;
  }
  // Both outcomes are exercised, so the proof is used on rejections too.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------------
// 2: problems given Ic⁰ keep their answers; no proof survives an Apply that
// breaks a constraint.

// Small inconsistent employment database: Ic1 holds for whoever is
// unemployed without a benefit.
std::unique_ptr<DeductiveDatabase> SmallInconsistentDb() {
  EmploymentConfig config;
  config.people = 5;
  config.consistent = false;
  auto db = MakeEmploymentDatabase(config);
  EXPECT_TRUE(db.ok()) << db.status();
  return db.ok() ? std::move(*db) : nullptr;
}

Result<Transaction> ParseTxn(DeductiveDatabase* db,
                             std::vector<std::pair<DeductiveDatabase::Op,
                                                   std::vector<std::string>>>
                                 events) {
  std::vector<std::pair<DeductiveDatabase::Op, Atom>> atoms;
  for (auto& [op, parts] : events) {
    DEDDB_ASSIGN_OR_RETURN(Atom atom, db->GroundAtom(parts[0], {parts[1]}));
    atoms.emplace_back(op, std::move(atom));
  }
  return db->MakeTransaction(std::move(atoms));
}

// True if `txn` applied to a copy of `db`'s state leaves Ic holding.
bool IcAfter(const DeductiveDatabase& db, const Transaction& txn) {
  std::unique_ptr<Database> copy = db.database().CloneSnapshot();
  FactStore next = txn.ApplyTo(copy->facts());
  copy->mutable_facts() = std::move(next);
  return IcDerived(*copy);
}

TEST(InconsistentStateTest, ProblemsGivenIcKeepTheirAnswers) {
  auto db = SmallInconsistentDb();
  ASSERT_NE(db, nullptr);
  auto twin = SmallInconsistentDb();  // never asked for a verdict
  ASSERT_NE(twin, nullptr);
  Result<bool> consistent = db->IsConsistent();
  ASSERT_TRUE(consistent.ok()) << consistent.status();
  ASSERT_FALSE(*consistent);

  // Repair: every minimal repair, applied, restores consistency, and the
  // verdict-holding facade answers exactly as its twin.
  auto repairs = db->RepairDatabase();
  ASSERT_TRUE(repairs.ok()) << repairs.status();
  auto twin_repairs = twin->RepairDatabase();
  ASSERT_TRUE(twin_repairs.ok()) << twin_repairs.status();
  ASSERT_FALSE(repairs->translations.empty());
  ASSERT_EQ(repairs->translations.size(), twin_repairs->translations.size());
  for (size_t i = 0; i < repairs->translations.size(); ++i) {
    const Transaction& repair = repairs->translations[i].transaction;
    EXPECT_EQ(repair.ToString(db->symbols()),
              twin_repairs->translations[i].transaction.ToString(
                  twin->symbols()));
    EXPECT_FALSE(IcAfter(*db, repair)) << repair.ToString(db->symbols());

    // Consistency restoration agrees with applying the repair.
    auto restored = db->CheckConsistencyRestored(repair);
    ASSERT_TRUE(restored.ok()) << restored.status();
    EXPECT_TRUE(restored->restored);
  }

  // A transaction that repairs nothing restores nothing; maintaining
  // inconsistency keeps Ic holding under each proposed extension.
  auto txn = ParseTxn(db.get(), {{DeductiveDatabase::Op::kInsert,
                                  {"Skilled", "Newcomer"}}});
  ASSERT_TRUE(txn.ok()) << txn.status();
  auto twin_txn = ParseTxn(twin.get(), {{DeductiveDatabase::Op::kInsert,
                                         {"Skilled", "Newcomer"}}});
  ASSERT_TRUE(twin_txn.ok()) << twin_txn.status();
  auto restored = db->CheckConsistencyRestored(*txn);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_FALSE(restored->restored);
  EXPECT_TRUE(IcAfter(*db, *txn));
  auto maintained = db->MaintainInconsistency(*txn);
  ASSERT_TRUE(maintained.ok()) << maintained.status();
  auto twin_maintained = twin->MaintainInconsistency(*twin_txn);
  ASSERT_TRUE(twin_maintained.ok()) << twin_maintained.status();
  ASSERT_EQ(maintained->translations.size(),
            twin_maintained->translations.size());
  for (size_t i = 0; i < maintained->translations.size(); ++i) {
    const Transaction& kept = maintained->translations[i].transaction;
    EXPECT_EQ(kept.ToString(db->symbols()),
              twin_maintained->translations[i].transaction.ToString(
                  twin->symbols()));
    EXPECT_TRUE(IcAfter(*db, kept)) << kept.ToString(db->symbols());
  }

  // Integrity checking still refuses the inconsistent state.
  auto check = db->CheckIntegrity(Transaction{});
  EXPECT_EQ(check.status().code(), StatusCode::kFailedPrecondition);
}

TEST(InconsistentStateTest, DirectApplyDropsTheVerdict) {
  EmploymentConfig config;
  config.people = 12;
  config.consistent = true;
  auto made = MakeEmploymentDatabase(config);
  ASSERT_TRUE(made.ok()) << made.status();
  DeductiveDatabase* db = made->get();
  Result<bool> consistent = db->IsConsistent();
  ASSERT_TRUE(consistent.ok() && *consistent);

  // A session begun now carries the verdict.
  auto before = db->BeginSession();
  ASSERT_TRUE(before.ok()) << before.status();

  // A newcomer of labour age without work or benefit, added by a direct
  // Apply, which checks nothing: Ic1 now holds.
  auto breaking =
      ParseTxn(db, {{DeductiveDatabase::Op::kInsert, {"La", "Newcomer1"}}});
  ASSERT_TRUE(breaking.ok()) << breaking.status();
  ASSERT_TRUE(db->Apply(*breaking).ok());

  auto after = db->BeginSession();
  ASSERT_TRUE(after.ok()) << after.status();
  Result<bool> session_consistent = (*after)->IsConsistent();
  ASSERT_TRUE(session_consistent.ok());
  EXPECT_FALSE(*session_consistent);
  EXPECT_EQ((*after)->CheckIntegrity(Transaction{}).status().code(),
            StatusCode::kFailedPrecondition);

  // A second violation: given Ic⁰ no ιIc is induced. Had the session kept a
  // proof, ιIc would appear.
  auto second_break =
      ParseTxn(db, {{DeductiveDatabase::Op::kInsert, {"La", "Newcomer2"}}});
  ASSERT_TRUE(second_break.ok()) << second_break.status();
  auto events = (*after)->InducedEvents(*second_break);
  ASSERT_TRUE(events.ok()) << events.status();
  EXPECT_FALSE(events->ContainsInsert(db->database().global_ic(), {}));
  Result<DerivedEvents> reference =
      Upward(db, *second_break, {db->database().global_ic()},
             UpwardStrategy::kRecompute, ConsistencyProof::kUnproven);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_FALSE(reference->ContainsInsert(db->database().global_ic(), {}));
  Result<bool> facade = db->IsConsistent();
  ASSERT_TRUE(facade.ok());
  EXPECT_FALSE(*facade);

  // The session pinned before the Apply still answers for its own state.
  Result<bool> pinned = (*before)->IsConsistent();
  ASSERT_TRUE(pinned.ok());
  EXPECT_TRUE(*pinned);
}

// ---------------------------------------------------------------------------
// 3: with a proof, the old-state view never evaluates Ic.
//
// QueryEngine's only counter (query.materializations) fires for recursive
// predicates, which the event rules reject, so the probe is a deliberately
// false proof: on a state where Ic holds, a view that evaluated Ic would
// answer true.

TEST(ProofShortcutTest, ViolatingPassRunsNoOldStateEvaluationOfIc) {
  auto db = SmallInconsistentDb();
  ASSERT_NE(db, nullptr);
  const Database& state = db->database();
  const SymbolId ic = state.global_ic();
  const SymbolId ic1 = state.FindPredicate("Ic1").value();

  OldStateView evaluated(&state);
  ASSERT_TRUE(evaluated.Contains(ic, {}));
  OldStateView proven(&state, {}, ConsistencyProof::kConsistent);
  EXPECT_FALSE(proven.Contains(ic, {}));
  EXPECT_FALSE(proven.Holds(Atom(ic, {})).value());
  EXPECT_TRUE(proven.Query(OpenAtom(db.get(), ic1, 1)).value().empty());
  EXPECT_EQ(proven.EstimateCount(ic), 0u);
  EXPECT_EQ(proven.EstimateCount(ic1), 0u);
  size_t matches = 0;
  proven.ForEachMatch(ic1, TuplePattern(1), [&](const Tuple&) { ++matches; });
  EXPECT_FALSE(proven.ForEachMatchUntil(ic1, TuplePattern(1),
                                        [&](const Tuple&) {
                                          ++matches;
                                          return true;
                                        }));
  EXPECT_EQ(matches, 0u);
  // Other derived predicates are still evaluated.
  const SymbolId unemp = state.FindPredicate("Unemp").value();
  EXPECT_EQ(proven.Query(OpenAtom(db.get(), unemp, 1)).value(),
            evaluated.Query(OpenAtom(db.get(), unemp, 1)).value());

  // The processor's pass over a violating transaction: with the (false)
  // proof it reports ιIc, which it can only do without evaluating Ic⁰.
  auto txn = ParseTxn(db.get(),
                      {{DeductiveDatabase::Op::kInsert, {"La", "Newcomer"}}});
  ASSERT_TRUE(txn.ok()) << txn.status();
  const std::vector<SymbolId> goals = ProcessorGoals(state);
  auto shortcut = Upward(db.get(), *txn, goals, UpwardStrategy::kEventRules,
                         ConsistencyProof::kConsistent);
  ASSERT_TRUE(shortcut.ok()) << shortcut.status();
  EXPECT_TRUE(shortcut->ContainsInsert(ic, {}));
  auto evaluated_pass = Upward(db.get(), *txn, goals,
                               UpwardStrategy::kEventRules,
                               ConsistencyProof::kUnproven);
  ASSERT_TRUE(evaluated_pass.ok()) << evaluated_pass.status();
  EXPECT_FALSE(evaluated_pass->ContainsInsert(ic, {}));
}

// A rule update can drop `Ic <- Ic1(x)`; Ic1 then says nothing about Ic, and
// a proof that Ic is empty must not empty Ic1.
TEST(ProofShortcutTest, CoversOnlyPredicatesIcIsDerivedFrom) {
  EmploymentConfig config;
  config.people = 12;
  config.consistent = true;
  auto made = MakeEmploymentDatabase(config);
  ASSERT_TRUE(made.ok()) << made.status();
  DeductiveDatabase* db = made->get();
  const SymbolId ic = db->database().global_ic();
  const SymbolId ic1 = db->database().FindPredicate("Ic1").value();
  problems::RuleUpdate update;
  for (const Rule& rule : db->database().program().RulesFor(ic)) {
    if (rule.body()[0].atom().predicate() == ic1) update.remove.push_back(rule);
  }
  ASSERT_EQ(update.remove.size(), 1u);
  ASSERT_TRUE(db->ApplyRuleUpdate(update).ok());
  auto newcomer =
      ParseTxn(db, {{DeductiveDatabase::Op::kInsert, {"La", "Newcomer"}}});
  ASSERT_TRUE(newcomer.ok()) << newcomer.status();
  ASSERT_TRUE(db->Apply(*newcomer).ok());
  Result<bool> consistent = db->IsConsistent();
  ASSERT_TRUE(consistent.ok() && *consistent);

  OldStateView proven(&db->database(), {}, ConsistencyProof::kConsistent);
  const Tuple violation = {db->symbols().Intern("Newcomer")};
  EXPECT_FALSE(proven.Contains(ic, {}));
  EXPECT_TRUE(proven.Contains(ic1, violation));
}

// ---------------------------------------------------------------------------
// 4: the facade's verdict under concurrent sessions (TSan target).

TEST(ConsistencyVerdictTest, WriterProvesWhileSessionsPin) {
  EmploymentConfig config;
  config.people = 60;
  config.consistent = true;
  auto made = MakeEmploymentDatabase(config);
  ASSERT_TRUE(made.ok()) << made.status();
  DeductiveDatabase* db = made->get();
  const SymbolId skilled = db->database().FindPredicate("Skilled").value();

  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto session = db->BeginSession();
        if (!session.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // Skilled never takes part in a constraint: every snapshot is
        // consistent, whichever verdict it was handed.
        Result<bool> consistent = (*session)->IsConsistent();
        auto check = (*session)->CheckIntegrity(Transaction{});
        if (!consistent.ok() || !*consistent || !check.ok() ||
            check->violated) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // The writer alternates commits that drop the verdict with proofs that
  // store it again.
  for (size_t i = 0; i < 150; ++i) {
    Transaction txn;
    Tuple person = {db->symbols().Intern(workload::PersonName(i % 60))};
    if (db->database().facts().Contains(skilled, person)) {
      ASSERT_TRUE(txn.AddDelete(skilled, person).ok());
    } else {
      ASSERT_TRUE(txn.AddInsert(skilled, person).ok());
    }
    ASSERT_TRUE(db->Apply(txn).ok());
    Result<bool> consistent = db->IsConsistent();
    ASSERT_TRUE(consistent.ok() && *consistent);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
}

}  // namespace
}  // namespace deddb
