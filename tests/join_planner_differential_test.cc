// The differential plan oracle: for 200 seeded random programs (hierarchical
// and recursive, with negation), the planned join engine and the naive
// nested-loop baseline must produce byte-identical fixpoints AND identical
// EvaluationStats at every parallel thread count. The stats equality is the
// strong half of the oracle: rule_firings counts complete body solutions,
// which no join order or access path may change, so a planner bug that
// duplicates or drops a binding shows up even when the fact set happens to
// converge to the same place. On each fixpoint the planned engine's
// first-witness executor (JoinPlan::Satisfiable) is also held to its block
// executor, rule by rule.
//
// Sharded 10 ways (one gtest parameter per shard, 20 programs each) like
// server_history_test; the TSan CI job runs the same suite as its race proof
// for plans shared across parallel work items.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/deductive_database.h"
#include "datalog/unify.h"
#include "eval/bottom_up.h"
#include "eval/join_plan.h"
#include "workload/random_programs.h"

namespace deddb {
namespace {

using workload::MakeRandomDatabase;
using workload::RandomProgramConfig;

struct EngineRun {
  std::string facts;  // canonical rendering of the full IDB
  EvaluationStats stats;
  FactStore idb;
};

Result<EngineRun> RunEngine(const DeductiveDatabase& db, JoinStrategy strategy,
                            size_t num_threads) {
  FactStoreProvider edb(&db.database().facts());
  EvaluationOptions options;
  options.join_strategy = strategy;
  options.num_threads = num_threads;
  BottomUpEvaluator evaluator(db.database().program(), db.symbols(), edb,
                              options);
  DEDDB_ASSIGN_OR_RETURN(FactStore idb, evaluator.Evaluate());
  std::string facts = idb.ToString(db.symbols());
  return EngineRun{std::move(facts), evaluator.stats(), std::move(idb)};
}

void ExpectStatsEqual(const EvaluationStats& a, const EvaluationStats& b,
                      const std::string& label) {
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.strata, b.strata) << label;
  EXPECT_EQ(a.rule_firings, b.rule_firings) << label;
  EXPECT_EQ(a.derived_facts, b.derived_facts) << label;
  EXPECT_EQ(a.interrupted, b.interrupted) << label;
}

// Holds the first-witness executor to the block executor: for every rule,
// with the head variables pre-bound from a candidate head tuple, Satisfiable
// must answer exactly whether Execute finds a body solution. Candidates are
// the head predicate's facts in the fixpoint `idb` (some rule derives each)
// and those facts reversed (often underivable), capped per rule.
void ExpectWitnessAgreesWithExecute(const DeductiveDatabase& db,
                                    const FactStore& idb,
                                    const std::string& label) {
  constexpr size_t kMaxFactsPerRule = 10;
  FactStoreProvider edb(&db.database().facts());
  FactStoreProvider derived(&idb);
  LayeredProvider model({&derived, &edb});
  auto provider_for = [&](size_t) -> const FactProvider& { return model; };
  const std::vector<Rule>& rules = db.database().program().rules();
  for (size_t r = 0; r < rules.size(); ++r) {
    const Rule& rule = rules[r];
    JoinPlan::Options options;
    rule.head().CollectVariables(&options.initially_bound);
    auto plan = JoinPlan::Build(rule, provider_for, options);
    ASSERT_TRUE(plan.ok()) << label << " rule " << r << ": " << plan.status();
    std::vector<Tuple> candidates;
    TuplePattern open(rule.head().arity());
    model.ForEachMatch(rule.head().predicate(), open, [&](const Tuple& t) {
      if (candidates.size() >= 2 * kMaxFactsPerRule) return;
      candidates.push_back(t);
      candidates.emplace_back(t.rbegin(), t.rend());
    });
    for (const Tuple& candidate : candidates) {
      Substitution subst;
      if (!MatchAtomAgainstTuple(rule.head(), candidate, &subst)) continue;
      auto initial = plan->InitialRow(subst);
      ASSERT_TRUE(initial.ok()) << label << ": " << initial.status();
      auto fired =
          plan->Execute(provider_for, [](const SymbolId*) {}, *initial);
      auto witness = plan->Satisfiable(provider_for, *initial);
      ASSERT_TRUE(fired.ok()) << label << ": " << fired.status();
      ASSERT_TRUE(witness.ok()) << label << ": " << witness.status();
      EXPECT_EQ(*witness, *fired > 0)
          << label << " rule " << r << ": first-witness and block modes "
          << "disagree";
    }
  }
}

// Runs both engines at thread counts {1, 4} and holds all four runs to one
// fixpoint and one stats vector, then holds the first-witness executor to
// the block executor on that fixpoint.
void ExpectEnginesAgree(const DeductiveDatabase& db, const std::string& label) {
  auto reference = RunEngine(db, JoinStrategy::kPlanned, 1);
  ASSERT_TRUE(reference.ok()) << label << ": " << reference.status();
  for (JoinStrategy strategy :
       {JoinStrategy::kPlanned, JoinStrategy::kNaiveNestedLoop}) {
    for (size_t threads : {1u, 4u}) {
      auto run = RunEngine(db, strategy, threads);
      std::string where =
          label +
          (strategy == JoinStrategy::kPlanned ? " planned" : " naive") +
          " threads=" + std::to_string(threads);
      ASSERT_TRUE(run.ok()) << where << ": " << run.status();
      EXPECT_EQ(run->facts, reference->facts) << where << ": fixpoint diverged";
      ExpectStatsEqual(run->stats, reference->stats, where);
    }
  }
  ExpectWitnessAgreesWithExecute(db, reference->idb, label);
}

// 10 shards x 20 programs = 200 random programs (100 hierarchical, 100
// recursive), distinct seeds per shard.
class JoinPlannerDifferentialTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Shards, JoinPlannerDifferentialTest,
                         ::testing::Range(0, 10));

TEST_P(JoinPlannerDifferentialTest, HierarchicalProgramsAgree) {
  for (uint64_t sub = 0; sub < 10; ++sub) {
    uint64_t seed = 1000 + static_cast<uint64_t>(GetParam()) * 10 + sub;
    RandomProgramConfig config;
    config.seed = seed;
    config.allow_recursion = false;
    config.facts_per_base = 30;
    auto db = MakeRandomDatabase(config);
    ASSERT_TRUE(db.ok()) << db.status();
    ExpectEnginesAgree(**db, "hierarchical seed " + std::to_string(seed));
  }
}

TEST_P(JoinPlannerDifferentialTest, RecursiveProgramsAgree) {
  for (uint64_t sub = 0; sub < 10; ++sub) {
    uint64_t seed = 2000 + static_cast<uint64_t>(GetParam()) * 10 + sub;
    RandomProgramConfig config;
    config.seed = seed;
    config.allow_recursion = true;
    config.derived_predicates = 8;
    config.facts_per_base = 30;
    auto db = MakeRandomDatabase(config);
    ASSERT_TRUE(db.ok()) << db.status();
    ExpectEnginesAgree(**db, "recursive seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace deddb
