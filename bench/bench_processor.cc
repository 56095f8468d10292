// Throughput of the §5.3 combined update-processing pipeline: one upward
// pass per transaction covering integrity checking + condition monitoring +
// materialized view maintenance, applied when accepted. This is the
// "update processing system" the paper's introduction motivates, measured
// end to end.
//
// Two arms: random 4-event transactions (a mix of accepted and rejected
// outcomes), and transactions built to be rejected — {del U_benefit(P)} for
// an unemployed P, which violates Ic1. A rejection is the case where the
// pass must decide ιIc, i.e. check ¬Ic⁰, so it isolates that cost.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/update_processor.h"
#include "workload/employment.h"

namespace deddb {
namespace {

Result<std::unique_ptr<DeductiveDatabase>> MakeDb(size_t people) {
  workload::EmploymentConfig config;
  config.people = people;
  config.consistent = true;
  config.materialize_unemp = true;
  DEDDB_ASSIGN_OR_RETURN(std::unique_ptr<DeductiveDatabase> db,
                         workload::MakeEmploymentDatabase(config));
  DEDDB_RETURN_IF_ERROR(db->InitializeMaterializedViews());
  return db;
}

void BM_ProcessTransaction(benchmark::State& state) {
  const size_t people = static_cast<size_t>(state.range(0));
  auto db = MakeDb(people);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  UpdateProcessor processor(db->get());

  uint64_t seed = 1000;
  size_t accepted = 0;
  size_t rejected = 0;
  for (auto _ : state) {
    // Fresh valid transaction against the *current* state each iteration.
    state.PauseTiming();
    auto txn = workload::RandomEmploymentTransaction(
        db->get(), people, static_cast<size_t>(state.range(1)), ++seed);
    if (!txn.ok()) {
      state.SkipWithError(txn.status().ToString().c_str());
      return;
    }
    state.ResumeTiming();
    auto report = processor.ProcessTransaction(*txn, /*apply=*/true);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    (report->accepted ? accepted : rejected) += 1;
  }
  state.counters["people"] = static_cast<double>(people);
  state.counters["accepted"] = static_cast<double>(accepted);
  state.counters["rejected"] = static_cast<double>(rejected);
  state.counters["txn_per_s"] =
      benchmark::Counter(static_cast<double>(accepted + rejected),
                         benchmark::Counter::kIsRate);
}

BENCHMARK(BM_ProcessTransaction)
    ->ArgsProduct({{100, 1000, 5000, 20000}, {4}})
    ->Unit(benchmark::kMicrosecond);

void BM_ProcessRejected(benchmark::State& state) {
  const size_t people = static_cast<size_t>(state.range(0));
  auto db = MakeDb(people);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  // In the consistent database every unemployed person draws a benefit;
  // taking it away violates Ic1. Rejected transactions leave the state as
  // it is, so the same set of transactions stays valid throughout.
  std::vector<Transaction> violating;
  for (size_t i = 0; i < people && violating.size() < 64; ++i) {
    const std::string person = workload::PersonName(i);
    auto la = (*db)->GroundAtom("La", {person});
    auto works = (*db)->GroundAtom("Works", {person});
    auto benefit = (*db)->GroundAtom("U_benefit", {person});
    const FactStore& facts = (*db)->database().facts();
    if (!la.ok() || !works.ok() || !benefit.ok() || !facts.Contains(*la) ||
        facts.Contains(*works)) {
      continue;
    }
    auto txn = (*db)->MakeTransaction(
        {{DeductiveDatabase::Op::kDelete, std::move(*benefit)}});
    if (txn.ok()) violating.push_back(std::move(*txn));
  }
  if (violating.empty()) {
    state.SkipWithError("no unemployed person to build a violation from");
    return;
  }
  UpdateProcessor processor(db->get());

  size_t next = 0;
  for (auto _ : state) {
    auto report = processor.ProcessTransaction(
        violating[next++ % violating.size()], /*apply=*/true);
    if (!report.ok() || report->accepted) {
      state.SkipWithError("a violating transaction was not rejected");
      return;
    }
  }
  state.counters["people"] = static_cast<double>(people);
  state.counters["txn_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_ProcessRejected)
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(20000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace deddb

BENCHMARK_MAIN();
