// Unit tests of the access-path layer and the join planner: composite index
// maintenance on Relation (insert/erase/clone/bulk-load), PlanAccess
// selection, the ReplaceContents index-mode regression (incl. the persistence
// codec's DecodeRelationInto path), JoinPlan ordering/execution under both
// strategies, the first-witness executor, and the static index advisor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/deductive_database.h"
#include "eval/fact_provider.h"
#include "eval/index_advisor.h"
#include "eval/join_plan.h"
#include "parser/parser.h"
#include "persist/codec.h"
#include "storage/fact_store.h"
#include "storage/relation.h"
#include "util/resource_guard.h"

namespace deddb {
namespace {

using AccessKind = Relation::AccessPath::Kind;

std::unique_ptr<DeductiveDatabase> Load(const char* source) {
  auto db = std::make_unique<DeductiveDatabase>();
  auto loaded = LoadProgram(db.get(), source);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  return db;
}

// The first rule whose head is `predicate`.
const Rule& RuleFor(const DeductiveDatabase& db, const char* predicate) {
  SymbolId head = db.database().FindPredicate(predicate).value();
  for (const Rule& rule : db.database().program().rules()) {
    if (rule.head().predicate() == head) return rule;
  }
  ADD_FAILURE() << "no rule for " << predicate;
  std::abort();
}

// Builds a plan for the first rule of `predicate` against the database's EDB
// (a plan holds no provider state, so the local provider may die after Build).
Result<JoinPlan> BuildPlan(const DeductiveDatabase& db, const char* predicate,
                           const JoinPlan::Options& options) {
  FactStoreProvider provider(&db.database().facts());
  return JoinPlan::Build(
      RuleFor(db, predicate),
      [&](size_t) -> const FactProvider& { return provider; }, options);
}

// Executes `plan` over the EDB and returns the emitted head tuples, sorted.
std::vector<Tuple> RunPlan(const DeductiveDatabase& db, const JoinPlan& plan,
                           size_t* firings = nullptr) {
  FactStoreProvider provider(&db.database().facts());
  std::vector<Tuple> out;
  Tuple head;
  auto fired = plan.Execute(
      [&](size_t) -> const FactProvider& { return provider; },
      [&](const SymbolId* row) {
        plan.HeadTupleInto(row, &head);
        out.push_back(head);
      });
  EXPECT_TRUE(fired.ok()) << fired.status();
  if (firings != nullptr) *firings = fired.ok() ? *fired : 0;
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Relation: access-path selection.

TEST(PlanAccessTest, KindsFollowBoundMaskAndAvailableIndexes) {
  Relation r(/*arity=*/3);
  EXPECT_EQ(r.PlanAccess(0b111).kind, AccessKind::kEmpty);

  for (SymbolId a = 0; a < 4; ++a) {
    for (SymbolId b = 0; b < 3; ++b) {
      r.Insert({a, b, a + b});
    }
  }
  EXPECT_EQ(r.PlanAccess(0b111).kind, AccessKind::kKeyLookup);
  EXPECT_EQ(r.PlanAccess(0b111).estimated_rows, 1u);

  // No composite yet: a two-column binding falls back to one column.
  EXPECT_EQ(r.PlanAccess(0b011).kind, AccessKind::kColumnIndex);

  ASSERT_TRUE(r.EnsureCompositeIndex(0b011));
  Relation::AccessPath path = r.PlanAccess(0b011);
  EXPECT_EQ(path.kind, AccessKind::kCompositeIndex);
  EXPECT_EQ(path.mask, 0b011u);
  // 12 tuples over 12 distinct (a, b) pairs: one row per bucket.
  EXPECT_EQ(path.estimated_rows, 1u);

  // The composite also serves a superset binding that is not the full key.
  EXPECT_EQ(r.PlanAccess(0b011 | 0b000).kind, AccessKind::kCompositeIndex);
  // Column 0 has 4 distinct values; expect size/distinct.
  path = r.PlanAccess(0b001);
  EXPECT_EQ(path.kind, AccessKind::kColumnIndex);
  EXPECT_EQ(path.column, 0u);
  EXPECT_EQ(path.estimated_rows, 3u);
  EXPECT_EQ(r.PlanAccess(0).kind, AccessKind::kScan);

  Relation unindexed(/*arity=*/3, /*indexed=*/false);
  unindexed.Insert({1, 2, 3});
  EXPECT_EQ(unindexed.PlanAccess(0b011).kind, AccessKind::kScan);
  EXPECT_EQ(unindexed.PlanAccess(0b111).kind, AccessKind::kKeyLookup);
}

TEST(PlanAccessTest, EstimateMatchesAgreesWithPlan) {
  Relation r(/*arity=*/2);
  for (SymbolId a = 0; a < 10; ++a) r.Insert({a % 2, a});
  EXPECT_EQ(r.EstimateMatches(0), 10u);
  EXPECT_EQ(r.EstimateMatches(0b01), 5u);  // 2 distinct values in column 0
  EXPECT_EQ(r.EstimateMatches(0b11), 1u);
}

// ---------------------------------------------------------------------------
// Relation: composite-index maintenance.

TEST(CompositeIndexTest, MaintainedIncrementallyAcrossInsertAndErase) {
  Relation r(/*arity=*/3);
  ASSERT_TRUE(r.EnsureCompositeIndex(0b110));
  for (SymbolId i = 0; i < 30; ++i) {
    ASSERT_TRUE(r.Insert({i, i % 3, i % 5}));
    ASSERT_TRUE(r.ValidateIndexes().ok()) << r.ValidateIndexes();
  }
  EXPECT_FALSE(r.Insert({0, 0, 0}));  // duplicate

  // Lookups through the composite return exactly the matching tuples.
  TuplePattern pattern(3);
  pattern[1] = 1;
  pattern[2] = 3;
  size_t seen = 0;
  r.ForEachMatch(pattern, [&](const Tuple& t) {
    EXPECT_EQ(t[1], 1u);
    EXPECT_EQ(t[2], 3u);
    ++seen;
  });
  EXPECT_EQ(seen, r.CountMatches(pattern));
  EXPECT_GT(seen, 0u);

  // Erase half the tuples (swap-pop relocation under the hood), validating
  // the full invariant after every removal.
  for (SymbolId i = 0; i < 30; i += 2) {
    ASSERT_TRUE(r.Erase({i, i % 3, i % 5}));
    Status status = r.ValidateIndexes();
    ASSERT_TRUE(status.ok()) << status;
  }
  EXPECT_EQ(r.size(), 15u);
  EXPECT_FALSE(r.Erase({0, 0, 0}));  // already gone
  EXPECT_FALSE(r.Contains({2, 2, 2}));
  EXPECT_TRUE(r.Contains({1, 1, 1}));
}

TEST(CompositeIndexTest, CopyPreservesMasksAndContents) {
  Relation r(/*arity=*/3);
  ASSERT_TRUE(r.EnsureCompositeIndex(0b011));
  for (SymbolId i = 0; i < 10; ++i) r.Insert({i % 2, i % 3, i});

  Relation copy(r);
  EXPECT_EQ(copy, r);
  EXPECT_EQ(copy.CompositeMasks(), std::vector<Relation::Mask>{0b011});
  ASSERT_TRUE(copy.ValidateIndexes().ok());
  EXPECT_EQ(copy.PlanAccess(0b011).kind, AccessKind::kCompositeIndex);

  // Diverge the copy; the original must not see it (deep value semantics).
  copy.Insert({9, 9, 9});
  EXPECT_FALSE(r.Contains({9, 9, 9}));
  ASSERT_TRUE(r.ValidateIndexes().ok());
}

TEST(CompositeIndexTest, EnsureCompositeIndexRejectsDegenerateMasks) {
  Relation r(/*arity=*/3);
  EXPECT_FALSE(r.EnsureCompositeIndex(0b001));  // single column
  EXPECT_FALSE(r.EnsureCompositeIndex(0b111));  // full key
  EXPECT_FALSE(r.EnsureCompositeIndex(0b1011)); // column out of range
  EXPECT_TRUE(r.EnsureCompositeIndex(0b101));
  EXPECT_TRUE(r.EnsureCompositeIndex(0b101));   // idempotent
  EXPECT_EQ(r.CompositeMasks(), std::vector<Relation::Mask>{0b101});

  Relation unindexed(/*arity=*/3, /*indexed=*/false);
  EXPECT_FALSE(unindexed.EnsureCompositeIndex(0b011));
  EXPECT_TRUE(unindexed.CompositeMasks().empty());
}

// ---------------------------------------------------------------------------
// ReplaceContents regression: index mode and declared masks must survive the
// bulk-load path (the original bug dropped both, so decoded relations lost
// their access paths).

TEST(ReplaceContentsTest, PreservesIndexModeAndDeclaredMasks) {
  Relation r(/*arity=*/3);
  ASSERT_TRUE(r.EnsureCompositeIndex(0b110));
  for (SymbolId i = 0; i < 8; ++i) r.Insert({i, i, i});

  r.ReplaceContents({{1, 2, 3}, {4, 5, 6}, {1, 2, 3}});  // dup collapses
  EXPECT_TRUE(r.indexed());
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.CompositeMasks(), std::vector<Relation::Mask>{0b110});
  ASSERT_TRUE(r.ValidateIndexes().ok()) << r.ValidateIndexes();
  EXPECT_EQ(r.PlanAccess(0b110).kind, AccessKind::kCompositeIndex);

  Relation unindexed(/*arity=*/2, /*indexed=*/false);
  unindexed.ReplaceContents({{1, 2}});
  EXPECT_FALSE(unindexed.indexed());
  ASSERT_TRUE(unindexed.ValidateIndexes().ok());
  EXPECT_EQ(unindexed.PlanAccess(0b01).kind, AccessKind::kScan);
}

TEST(ReplaceContentsTest, DecodeRelationIntoKeepsIndexModeAndMasks) {
  SymbolTable symbols;
  SymbolId a = symbols.Intern("A");
  SymbolId b = symbols.Intern("B");
  Relation source(/*arity=*/3);
  source.Insert({a, b, a});
  source.Insert({b, b, a});

  persist::ByteSink sink;
  persist::EncodeRelation(source, symbols, &sink);

  Relation target(/*arity=*/3);
  ASSERT_TRUE(target.EnsureCompositeIndex(0b011));
  persist::ByteSource bytes(sink.bytes());
  ASSERT_TRUE(persist::DecodeRelationInto(&bytes, &symbols, &target).ok());
  EXPECT_EQ(target, source);
  EXPECT_EQ(target.CompositeMasks(), std::vector<Relation::Mask>{0b011});
  ASSERT_TRUE(target.ValidateIndexes().ok()) << target.ValidateIndexes();

  // Arity mismatch is kCorruption and leaves the target untouched.
  persist::ByteSource again(sink.bytes());
  Relation wrong(/*arity=*/2, /*indexed=*/false);
  wrong.Insert({a, b});
  Status status = persist::DecodeRelationInto(&again, &symbols, &wrong);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(wrong.size(), 1u);
  EXPECT_FALSE(wrong.indexed());
}

// ---------------------------------------------------------------------------
// FactStore: declared indexes ride the COW path.

TEST(FactStoreIndexTest, DeclarationsSurviveCopyAndRelationCreation) {
  FactStore store;
  store.DeclareIndex(/*predicate=*/7, 0b011);
  EXPECT_EQ(store.DeclaredIndexes(7), std::vector<Relation::Mask>{0b011});

  // Relation created after the declaration: the index is applied on creation.
  store.Add(7, {1, 2, 3});
  ASSERT_NE(store.Find(7), nullptr);
  EXPECT_EQ(store.Find(7)->CompositeMasks(), std::vector<Relation::Mask>{0b011});

  // A COW copy keeps both the declaration and the built index; mutating the
  // copy clones but never rebuilds from scratch (the masks ride along).
  FactStore copy(store);
  copy.Add(7, {4, 5, 6});
  EXPECT_EQ(copy.Find(7)->CompositeMasks(), std::vector<Relation::Mask>{0b011});
  EXPECT_EQ(copy.Find(7)->size(), 2u);
  EXPECT_EQ(store.Find(7)->size(), 1u);
  SymbolTable symbols;
  ASSERT_TRUE(copy.ValidateIndexes(symbols).ok());
  ASSERT_TRUE(store.ValidateIndexes(symbols).ok());
}

// ---------------------------------------------------------------------------
// JoinPlan: ordering and execution.

constexpr char kChainProgram[] = R"(
  base Small/1.
  base Big/2.
  derived D/2.
  D(x, y) <- Big(x, y) & Small(x).
  Small(A).
  Big(A, B).
  Big(A, C).
  Big(B, C).
  Big(C, A).
  Big(C, B).
)";

TEST(JoinPlanTest, PlannedOrderLeadsWithSmallestRelation) {
  auto db = Load(kChainProgram);
  auto plan = BuildPlan(*db, "D", {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Small (1 fact) before Big (5 facts): body index 1 leads.
  ASSERT_EQ(plan->order().size(), 2u);
  EXPECT_EQ(plan->order()[0], 1u);
  EXPECT_EQ(plan->order()[1], 0u);
  // After Small binds x, Big is probed with column 0 bound.
  EXPECT_EQ(plan->steps()[1].bound_mask, 0b01u);
  EXPECT_NE(plan->steps()[1].access.kind, AccessKind::kScan);

  size_t firings = 0;
  std::vector<Tuple> rows = RunPlan(*db, *plan, &firings);
  EXPECT_EQ(firings, 2u);  // Big(A, B), Big(A, C)
  EXPECT_EQ(rows.size(), 2u);
}

TEST(JoinPlanTest, NaiveStrategyKeepsTextualOrderAndScans) {
  auto db = Load(kChainProgram);
  JoinPlan::Options options;
  options.strategy = JoinStrategy::kNaiveNestedLoop;
  auto plan = BuildPlan(*db, "D", options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->order().size(), 2u);
  EXPECT_EQ(plan->order()[0], 0u);
  EXPECT_EQ(plan->order()[1], 1u);
  for (const JoinPlan::StepInfo& step : plan->steps()) {
    EXPECT_EQ(step.access.kind, AccessKind::kScan);
  }
  // Same answers as the planned engine, by construction.
  auto planned = BuildPlan(*db, "D", {});
  ASSERT_TRUE(planned.ok());
  size_t naive_firings = 0, planned_firings = 0;
  EXPECT_EQ(RunPlan(*db, *plan, &naive_firings),
            RunPlan(*db, *planned, &planned_firings));
  EXPECT_EQ(naive_firings, planned_firings);
}

TEST(JoinPlanTest, ForcedFirstOverridesSelectivity) {
  auto db = Load(kChainProgram);
  JoinPlan::Options options;
  options.forced_first = 0;  // lead with Big despite Small being cheaper
  auto plan = BuildPlan(*db, "D", options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->order()[0], 0u);
  size_t firings = 0;
  EXPECT_EQ(RunPlan(*db, *plan, &firings).size(), 2u);
  EXPECT_EQ(firings, 2u);
}

TEST(JoinPlanTest, ForcedFirstRespected) {
  auto db = Load(R"(
    base B/1.
    base C/1.
    derived D/1.
    D(x) <- B(x) & C(x).
  )");
  // Without the override B(x) (index 0) would lead on textual position; the
  // forced literal leads in the compiled plan and in the order-only entry.
  JoinPlan::Options options;
  options.forced_first = 1;
  auto plan = BuildPlan(*db, "D", options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->order()[0], 1u);
  FactStoreProvider provider(&db->database().facts());
  auto order = JoinPlan::Order(
      RuleFor(*db, "D"),
      [&](size_t) -> const FactProvider& { return provider; }, options);
  ASSERT_TRUE(order.ok()) << order.status();
  EXPECT_EQ((*order)[0], 1u);
}

TEST(JoinPlanTest, NegativesAfterBindingPositives) {
  auto db = Load(R"(
    base B/1.
    base C/1.
    derived D/1.
    D(x) <- not C(x) & B(x).
  )");
  // The positive B(x) (index 1) must bind x before not C(x) (index 0) runs,
  // in the compiled plan and in the order-only entry alike.
  auto plan = BuildPlan(*db, "D", {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->order(), (std::vector<size_t>{1, 0}));
  FactStoreProvider provider(&db->database().facts());
  auto order = JoinPlan::Order(
      RuleFor(*db, "D"),
      [&](size_t) -> const FactProvider& { return provider; }, {});
  ASSERT_TRUE(order.ok()) << order.status();
  EXPECT_EQ(*order, plan->order());
}

TEST(JoinPlanTest, CardinalityBreaksTies) {
  auto db = Load(R"(
    base Big/1.
    base Small/1.
    derived D/2.
    D(x, y) <- Big(x) & Small(y).
    Big(A). Big(B). Big(C). Big(D).
    Small(A).
  )");
  // Equally bound, equally open: the smaller relation leads.
  auto plan = BuildPlan(*db, "D", {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->order()[0], 1u) << "the smaller relation must lead";
  EXPECT_EQ(RunPlan(*db, *plan).size(), 4u);
}

TEST(JoinPlanTest, NegativeLiteralRunsGroundAndFilters) {
  auto db = Load(R"(
    base B/1.
    base Blocked/1.
    derived D/1.
    D(x) <- B(x) & not Blocked(x).
    B(A).
    B(C).
    Blocked(C).
  )");
  auto plan = BuildPlan(*db, "D", {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->steps().size(), 2u);
  EXPECT_FALSE(plan->steps()[0].negative);
  EXPECT_TRUE(plan->steps()[1].negative);
  std::vector<Tuple> rows = RunPlan(*db, *plan);
  ASSERT_EQ(rows.size(), 1u);
  SymbolId a = db->symbols().Find("A");
  EXPECT_EQ(rows[0], Tuple{a});
}

TEST(JoinPlanTest, RepeatedVariableSelectsDiagonal) {
  auto db = Load(R"(
    base E/2.
    derived D/1.
    D(x) <- E(x, x).
    E(A, A).
    E(A, B).
    E(B, B).
  )");
  auto plan = BuildPlan(*db, "D", {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(RunPlan(*db, *plan).size(), 2u);  // A and B
}

TEST(JoinPlanTest, ConstantArgumentNarrowsTheProbe) {
  auto db = Load(R"(
    base E/2.
    derived D/1.
    D(y) <- E(A, y).
    E(A, B).
    E(A, C).
    E(B, C).
  )");
  auto plan = BuildPlan(*db, "D", {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  // The constant binds column 0 before anything else is bound.
  EXPECT_EQ(plan->steps()[0].bound_mask & 0b01u, 0b01u);
  EXPECT_EQ(RunPlan(*db, *plan).size(), 2u);
}

TEST(JoinPlanTest, EmptyRelationYieldsEmptyAccessAndNoRows) {
  auto db = Load(R"(
    base B/1.
    base Empty/1.
    derived D/1.
    D(x) <- B(x) & Empty(x).
    B(A).
  )");
  auto plan = BuildPlan(*db, "D", {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  bool saw_empty = false;
  for (const JoinPlan::StepInfo& step : plan->steps()) {
    if (step.access.kind == AccessKind::kEmpty) saw_empty = true;
  }
  EXPECT_TRUE(saw_empty);
  size_t firings = 1;
  EXPECT_TRUE(RunPlan(*db, *plan, &firings).empty());
  EXPECT_EQ(firings, 0u);
}

TEST(JoinPlanTest, ExecStatsCountRowsPerStepAndAccumulate) {
  auto db = Load(kChainProgram);
  auto plan = BuildPlan(*db, "D", {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  FactStoreProvider provider(&db->database().facts());
  auto provider_for = [&](size_t) -> const FactProvider& { return provider; };
  JoinPlan::ExecStats stats;
  auto fired = plan->Execute(provider_for, [](const SymbolId*) {}, {}, nullptr,
                             &stats);
  ASSERT_TRUE(fired.ok()) << fired.status();
  ASSERT_EQ(stats.rows.size(), plan->steps().size());
  EXPECT_EQ(stats.rows[0], 1u);  // Small(A)
  EXPECT_EQ(stats.rows[1], 2u);  // Big(A, _)
  // A second Execute over the same stats object sums (slice accumulation).
  ASSERT_TRUE(
      plan->Execute(provider_for, [](const SymbolId*) {}, {}, nullptr, &stats)
          .ok());
  EXPECT_EQ(stats.rows[0], 2u);
  EXPECT_EQ(stats.rows[1], 4u);
}

TEST(JoinPlanTest, CancelledGuardAbortsExecution) {
  auto db = Load(kChainProgram);
  auto plan = BuildPlan(*db, "D", {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  CancellationToken token;
  token.Cancel();
  ResourceGuard guard(ResourceLimits{}, &token);
  FactStoreProvider provider(&db->database().facts());
  auto fired = plan->Execute(
      [&](size_t) -> const FactProvider& { return provider; },
      [](const SymbolId*) {}, {}, &guard);
  EXPECT_FALSE(fired.ok());
}

TEST(JoinPlanTest, ToStringRendersOrderAccessAndEstimates) {
  auto db = Load(kChainProgram);
  auto plan = BuildPlan(*db, "D", {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::string text = plan->ToString(db->symbols());
  // Small leads; Big is probed through an index with ~N estimates; the
  // separator is " -> " (format documented in DESIGN.md §6e).
  EXPECT_NE(text.find("Small"), std::string::npos) << text;
  EXPECT_NE(text.find(" -> "), std::string::npos) << text;
  EXPECT_NE(text.find("~"), std::string::npos) << text;

  auto db2 = Load(R"(
    base B/1.
    base Blocked/1.
    derived D/1.
    D(x) <- B(x) & not Blocked(x).
    B(A).
    Blocked(A).
  )");
  auto plan2 = BuildPlan(*db2, "D", {});
  ASSERT_TRUE(plan2.ok()) << plan2.status();
  EXPECT_NE(plan2->ToString(db2->symbols()).find("!Blocked"),
            std::string::npos)
      << plan2->ToString(db2->symbols());
}

TEST(JoinPlanTest, ToStringRendersCompositeAndColumnAccess) {
  auto db = Load(R"(
    base B/2.
    base E/3.
    derived D/1.
    D(z) <- B(x, y) & E(x, y, z).
    B(A, A). B(A, B).
    E(A, A, C). E(A, B, C). E(B, B, C). E(C, A, B).
  )");
  // The facade's advisor declared E(0,1); B leads (smaller, fully unbound)
  // and E is probed through the composite, rendered as comp(0,1).
  auto plan = BuildPlan(*db, "D", {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::string text = plan->ToString(db->symbols());
  EXPECT_NE(text.find("comp(0,1)"), std::string::npos) << text;

  // A single bound column on an indexed binary relation renders as col<i>.
  auto db2 = Load(R"(
    base Small/1.
    base E/2.
    derived D/1.
    D(y) <- Small(x) & E(x, y).
    Small(A).
    E(A, B). E(A, C). E(B, C).
  )");
  auto plan2 = BuildPlan(*db2, "D", {});
  ASSERT_TRUE(plan2.ok()) << plan2.status();
  std::string text2 = plan2->ToString(db2->symbols());
  EXPECT_NE(text2.find("col0"), std::string::npos) << text2;
}

TEST(JoinPlanTest, InitiallyBoundVariableSeedsTheJoin) {
  auto db = Load(kChainProgram);
  const Rule& rule = RuleFor(*db, "D");
  // Bind x = A before evaluation starts (how the upward interpreter checks
  // a deletion candidate against the new-state rules, upward.cc).
  VarId x = rule.head().args()[0].variable();
  JoinPlan::Options options;
  options.initially_bound.push_back(x);
  auto plan = BuildPlan(*db, "D", options);
  ASSERT_TRUE(plan.ok()) << plan.status();

  Substitution subst;
  subst.Bind(x, Term::MakeConstant(db->symbols().Find("A")));
  auto initial = plan->InitialRow(subst);
  ASSERT_TRUE(initial.ok()) << initial.status();

  FactStoreProvider provider(&db->database().facts());
  std::vector<Tuple> out;
  Tuple head;
  auto fired = plan->Execute(
      [&](size_t) -> const FactProvider& { return provider; },
      [&](const SymbolId* row) {
        plan->HeadTupleInto(row, &head);
        out.push_back(head);
      },
      *initial);
  ASSERT_TRUE(fired.ok()) << fired.status();
  EXPECT_EQ(out.size(), 2u);  // D(A, B), D(A, C) only — x was pinned to A.
  for (const Tuple& t : out) {
    EXPECT_EQ(t[0], db->symbols().Find("A"));
  }
}

TEST(JoinPlanTest, InitialRowRejectsUnresolvedBinding) {
  auto db = Load(kChainProgram);
  const Rule& rule = RuleFor(*db, "D");
  JoinPlan::Options options;
  options.initially_bound.push_back(rule.head().args()[0].variable());
  auto plan = BuildPlan(*db, "D", options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  Substitution empty;  // x does not resolve to a constant
  EXPECT_FALSE(plan->InitialRow(empty).ok());
}

TEST(JoinPlanTest, ExecuteValidatesTheInitialRow) {
  auto db = Load(kChainProgram);
  FactStoreProvider provider(&db->database().facts());
  auto provider_for = [&](size_t) -> const FactProvider& { return provider; };
  auto emit = [](const SymbolId*) {};

  // A plan with pre-bound slots refuses an empty initial row...
  JoinPlan::Options options;
  options.initially_bound.push_back(
      RuleFor(*db, "D").head().args()[0].variable());
  auto bound_plan = BuildPlan(*db, "D", options);
  ASSERT_TRUE(bound_plan.ok()) << bound_plan.status();
  EXPECT_FALSE(bound_plan->Execute(provider_for, emit).ok());

  // ...and any plan refuses a row of the wrong width.
  auto plan = BuildPlan(*db, "D", {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::vector<SymbolId> wrong_width(plan->slot_vars().size() + 1,
                                    JoinPlan::kUnboundSlot);
  EXPECT_FALSE(plan->Execute(provider_for, emit, wrong_width).ok());
}

TEST(JoinPlanTest, NaiveStrategyFiltersConstantsAndBoundVariables) {
  // Under the naive strategy a later literal's constants and already-bound
  // variables become post-scan check ops instead of probe patterns; the
  // answers must not change.
  auto db = Load(R"(
    base Small/1.
    base E/2.
    derived D/1.
    D(x) <- Small(x) & E(x, A).
    Small(A). Small(B).
    E(A, A). E(B, A). E(B, B).
  )");
  JoinPlan::Options naive;
  naive.strategy = JoinStrategy::kNaiveNestedLoop;
  auto naive_plan = BuildPlan(*db, "D", naive);
  ASSERT_TRUE(naive_plan.ok()) << naive_plan.status();
  auto planned = BuildPlan(*db, "D", {});
  ASSERT_TRUE(planned.ok()) << planned.status();
  std::vector<Tuple> rows = RunPlan(*db, *naive_plan);
  EXPECT_EQ(rows.size(), 2u);  // D(A), D(B)
  EXPECT_EQ(rows, RunPlan(*db, *planned));
}

TEST(JoinPlanTest, UnsafeNegativeOnlyRuleIsRejected) {
  // A rule whose negative literal can never become ground bypasses the
  // facade's allowedness validation by direct construction; Build must
  // return a typed error instead of planning it.
  auto db = Load(R"(
    base Blocked/1.
    derived D/1.
  )");
  Term x = db->Variable("x");
  Atom head = db->MakeAtom("D", {x}).value();
  Rule unsafe(head, {Literal::Negative(db->MakeAtom("Blocked", {x}).value())});
  FactStoreProvider provider(&db->database().facts());
  auto provider_for = [&](size_t) -> const FactProvider& { return provider; };
  EXPECT_FALSE(JoinPlan::Build(unsafe, provider_for, {}).ok());
  EXPECT_FALSE(JoinPlan::Order(unsafe, provider_for, {}).ok());
}

// ---------------------------------------------------------------------------
// JoinPlan: first-witness mode.

// Forwards to a FactStoreProvider and counts how each entry point is used:
// full enumerations, streamed enumerations, and tuples delivered to a
// streamed callback (a provider must stop as soon as the callback says so).
class CountingProvider : public FactProvider {
 public:
  explicit CountingProvider(const FactStore* store) : inner_(store) {}

  void ForEachMatch(SymbolId predicate, const TuplePattern& pattern,
                    const std::function<void(const Tuple&)>& fn)
      const override {
    ++for_each_calls;
    inner_.ForEachMatch(predicate, pattern, fn);
  }
  bool ForEachMatchUntil(
      SymbolId predicate, const TuplePattern& pattern,
      const std::function<bool(const Tuple&)>& fn) const override {
    ++until_calls;
    bool stopped = false;
    inner_.ForEachMatch(predicate, pattern, [&](const Tuple& t) {
      if (stopped) return;
      ++delivered;
      if (!fn(t)) stopped = true;
    });
    return stopped;
  }
  bool Contains(SymbolId predicate, const Tuple& tuple) const override {
    return inner_.Contains(predicate, tuple);
  }
  size_t EstimateMatches(SymbolId predicate,
                         Relation::Mask bound_mask) const override {
    return inner_.EstimateMatches(predicate, bound_mask);
  }

  mutable size_t for_each_calls = 0;
  mutable size_t until_calls = 0;
  mutable size_t delivered = 0;

 private:
  FactStoreProvider inner_;
};

TEST(JoinPlanTest, SatisfiableStreamsAndStopsAtTheFirstWitness) {
  auto db = Load(kChainProgram);
  auto plan = BuildPlan(*db, "D", {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  CountingProvider counting(&db->database().facts());
  auto provider_for = [&](size_t) -> const FactProvider& { return counting; };

  auto witness = plan->Satisfiable(provider_for);
  ASSERT_TRUE(witness.ok()) << witness.status();
  EXPECT_TRUE(*witness);
  EXPECT_EQ(counting.for_each_calls, 0u);
  // Small(A) leads, then Big(A, _) has two matches: the first completes the
  // body, and the search asks for nothing after it.
  EXPECT_EQ(counting.until_calls, 2u);
  EXPECT_EQ(counting.delivered, 2u);

  // Block mode over the same provider enumerates both Big(A, _) rows.
  auto fired = plan->Execute(provider_for, [](const SymbolId*) {});
  ASSERT_TRUE(fired.ok()) << fired.status();
  EXPECT_EQ(*fired, 2u);
  EXPECT_GT(counting.for_each_calls, 0u);
}

TEST(JoinPlanTest, SatisfiableHonoursBoundSlotsConstantsNegationAndRepeats) {
  auto db = Load(R"(
    base E/2.
    base Color/2.
    base Blocked/1.
    derived D/1.
    D(x) <- E(x, x) & Color(x, Red) & not Blocked(x).
    E(Ann, Ann). E(Ann, Bob). E(Bob, Bob). E(Cal, Ann). E(Dan, Dan).
    Color(Ann, Red). Color(Bob, Red). Color(Cal, Red). Color(Dan, Blue).
    Blocked(Bob).
  )");
  const Rule& rule = RuleFor(*db, "D");
  VarId x = rule.head().args()[0].variable();
  JoinPlan::Options options;
  options.initially_bound.push_back(x);
  auto plan = BuildPlan(*db, "D", options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  FactStoreProvider provider(&db->database().facts());
  auto provider_for = [&](size_t) -> const FactProvider& { return provider; };
  for (const char* name : {"Ann", "Bob", "Cal", "Dan"}) {
    Substitution subst;
    subst.Bind(x, Term::MakeConstant(db->symbols().Find(name)));
    auto initial = plan->InitialRow(subst);
    ASSERT_TRUE(initial.ok()) << initial.status();
    auto witness = plan->Satisfiable(provider_for, *initial);
    ASSERT_TRUE(witness.ok()) << witness.status();
    // Only Ann is on the diagonal, red and unblocked: Bob is blocked, Cal
    // has no loop, Dan is blue.
    EXPECT_EQ(*witness, std::string(name) == "Ann") << name;
  }
}

TEST(JoinPlanTest, SatisfiableWithCancelledGuardIsCancelled) {
  auto db = Load(kChainProgram);
  auto plan = BuildPlan(*db, "D", {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  CancellationToken token;
  token.Cancel();
  ResourceGuard guard(ResourceLimits{}, &token);
  FactStoreProvider provider(&db->database().facts());
  auto witness = plan->Satisfiable(
      [&](size_t) -> const FactProvider& { return provider; }, {}, &guard);
  ASSERT_FALSE(witness.ok());
  EXPECT_EQ(witness.status().code(), StatusCode::kCancelled);
}

TEST(JoinPlanTest, SatisfiableValidatesTheInitialRow) {
  auto db = Load(kChainProgram);
  FactStoreProvider provider(&db->database().facts());
  auto provider_for = [&](size_t) -> const FactProvider& { return provider; };
  auto plan = BuildPlan(*db, "D", {});
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::vector<SymbolId> wrong_width(plan->slot_vars().size() + 1,
                                    JoinPlan::kUnboundSlot);
  auto witness = plan->Satisfiable(provider_for, wrong_width);
  ASSERT_FALSE(witness.ok());
  EXPECT_EQ(witness.status().code(), StatusCode::kInvalidArgument);

  // A plan with pre-bound slots also refuses an empty initial row.
  JoinPlan::Options options;
  options.initially_bound.push_back(
      RuleFor(*db, "D").head().args()[0].variable());
  auto bound_plan = BuildPlan(*db, "D", options);
  ASSERT_TRUE(bound_plan.ok()) << bound_plan.status();
  auto unseeded = bound_plan->Satisfiable(provider_for);
  ASSERT_FALSE(unseeded.ok());
  EXPECT_EQ(unseeded.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Index advisor.

TEST(IndexAdvisorTest, AdvisesBoundPrefixOfWiderLiterals) {
  auto db = Load(R"(
    base B/2.
    base E/3.
    derived D/1.
    D(z) <- B(x, y) & E(x, y, z).
  )");
  SymbolId e = db->database().FindPredicate("E").value();
  std::vector<IndexAdvice> advice = AdviseIndexes(db->database().program());
  EXPECT_NE(std::find(advice.begin(), advice.end(), IndexAdvice{e, 0b011}),
            advice.end());
  // Deterministic: sorted by (predicate, mask), no duplicates.
  for (size_t i = 1; i < advice.size(); ++i) {
    EXPECT_TRUE(advice[i - 1].predicate < advice[i].predicate ||
                (advice[i - 1].predicate == advice[i].predicate &&
                 advice[i - 1].mask < advice[i].mask));
  }
}

TEST(IndexAdvisorTest, SkipsSingleColumnAndFullKeyMasks) {
  auto db = Load(R"(
    base B/1.
    base E/2.
    derived D/1.
    D(y) <- B(x) & E(x, y).
    D(y) <- B(y) & E(A, y).
  )");
  // E is only ever probed with one bound column (posting lists cover that)
  // or with both (a key probe) — no composite is worth declaring.
  EXPECT_TRUE(AdviseIndexes(db->database().program()).empty());
}

TEST(IndexAdvisorTest, DeclareAdvisedIndexesWiresTheStore) {
  auto db = Load(R"(
    base B/2.
    base E/3.
    derived D/1.
    D(z) <- B(x, y) & E(x, y, z).
    E(A, B, C).
  )");
  SymbolId e = db->database().FindPredicate("E").value();
  // The facade declared advised indexes when the rule was added: the E
  // relation already maintains the (0, 1) composite.
  ASSERT_NE(db->database().facts().Find(e), nullptr);
  EXPECT_EQ(db->database().facts().Find(e)->CompositeMasks(),
            std::vector<Relation::Mask>{0b011});
  ASSERT_TRUE(
      db->database().facts().ValidateIndexes(db->symbols()).ok());

  FactStore fresh;
  DeclareAdvisedIndexes(db->database().program(), &fresh);
  EXPECT_EQ(fresh.DeclaredIndexes(e), std::vector<Relation::Mask>{0b011});
}

}  // namespace
}  // namespace deddb
