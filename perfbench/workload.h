// The workload interface main.cc runs, and the records a
// concurrent run and a serial layer replay hand back.

#ifndef DEDDB_PERFBENCH_WORKLOAD_H_
#define DEDDB_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/deductive_database.h"
#include "server/protocol.h"
#include "service.h"

namespace perfbench {

/// Operation classes; a workload runs a subset of them.
inline constexpr const char* kQuery = "query";
inline constexpr const char* kProcess = "process";
inline constexpr const char* kTranslate = "translate";
inline constexpr const char* kApply = "apply";
inline constexpr const char* kNotify = "notify";

/// What one closed-loop run measured.
struct Phase {
  Clock::time_point start;  // when the clients started sending
  double window_s = 0;      // the measured window: [start, start + window_s)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t commits = 0;  // acknowledged state changes
  /// Client-observed latency per operation class, in microseconds.
  std::map<std::string, Samples> latency;
  /// Distinct (connection, snapshot version) pairs among query replies: each
  /// is one session re-pin, and for an open recursive query one full
  /// materialization, on the server.
  uint64_t repins = 0;
};

/// Per-layer numbers from a serial replay: span samples by metric name (in
/// microseconds unless the name says otherwise) and exact values.
struct LayerStats {
  std::map<std::string, Samples> spans;
  std::map<std::string, double> values;
  /// Which replay produced each metric ("own" or the probe's name).
  std::map<std::string, std::string> source;

  void Span(const std::string& name, double us) { spans[name].Add(us); }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Connections the run opens (writers, readers and subscribers together).
  virtual int connections() const = 0;
  /// The operation classes reported as the run's read and write latency.
  virtual const char* read_class() const = 0;
  virtual const char* write_class() const = 0;

  /// Regenerates the seeded inputs and resets the answer model to them.
  virtual void Generate() = 0;
  /// Schema plus generated data into a fresh facade.
  virtual deddb::Status Load(deddb::DeductiveDatabase* db) const = 0;
  /// One-time lazy engine set-up before serving.
  virtual deddb::Status Prepare(deddb::DeductiveDatabase* db) const {
    (void)db;
    return deddb::Status::Ok();
  }
  /// Every client's first requests (answers checked).
  virtual void Warmup(Service* svc, RunResult* out) = 0;

  /// Runs the closed-loop clients for `seconds` and checks every answer
  /// against the model.
  virtual Phase Run(Service* svc, double seconds, RunResult* out) = 0;

  /// Checks a facade recovered from the run's directory against the model.
  virtual void CheckRecovered(deddb::DeductiveDatabase* db,
                              RunResult* out) = 0;

  /// Commits `count` seeded, valid transactions straight through the facade
  /// (the fixed log the recovery metric replays).
  virtual void CommitFixture(deddb::DeductiveDatabase* db, int count) = 0;

  /// Serial replay of the workload's generated operations on in-memory
  /// twins, timing each public call it makes (the per-layer source R).
  /// `scratch` is a directory the replay may use for a log file.
  virtual void Replay(const std::string& scratch, LayerStats* layers,
                      RunResult* out) = 0;

  /// Sizes, client counts and mix, for the result's info block.
  virtual void Describe(RunResult* out) const = 0;
};

/// Runs `body(client_index, deadline)` on `n` threads from a common start
/// and records the measured window in `phase`.
template <typename Body>
void RunClients(int n, double seconds, Phase* phase, Body body) {
  auto start = Clock::now() + std::chrono::milliseconds(20);
  auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      std::this_thread::sleep_until(start);
      body(c, deadline);
    });
  }
  for (std::thread& t : threads) t.join();
  phase->start = start;
  phase->window_s = seconds;
}

/// Wire cost of one operation in a replay.
struct Wire {
  double us = 0;
  size_t bytes = 0;
};

/// Encodes `value`, frames it, unframes and decodes it, adding the time and
/// the exact frame size to `wire`; returns the decoded value.
template <typename T, typename Enc, typename Dec>
auto RoundTrip(const T& value, deddb::server::FrameType type, Enc enc, Dec dec,
               Wire* wire) {
  auto t0 = Clock::now();
  std::string frame;
  deddb::server::AppendFrame(type, 1, enc(value), &frame);
  auto view = Unwrap(deddb::server::DecodeSingleFrame(frame), "frame");
  auto decoded = Unwrap(dec(view.payload), "decode");
  wire->us += MicrosBetween(t0, Clock::now());
  wire->bytes += frame.size();
  return decoded;
}

/// Evaluator counters (rounds, rule firings, derived facts, planner steps)
/// for one materialization of `goal` over `db`, by a query engine with a
/// registry attached (server sessions strip the facade's sinks).
void CountFixpoint(const deddb::Database& db, const deddb::Atom& goal,
                   LayerStats* L);

/// Client 0's employment_oltp stream replayed on its own twin: the source
/// of the interpretation-layer metrics for workloads whose own program
/// the event rules cannot compile.
void ReplayEmploymentProbe(uint64_t seed, const std::string& scratch,
                           LayerStats* L, RunResult* out);

std::unique_ptr<Workload> MakeEmploymentOltp(uint64_t seed);
std::unique_ptr<Workload> MakeDurableWrites(uint64_t seed);
std::unique_ptr<Workload> MakeReachRecursive(uint64_t seed);

}  // namespace perfbench

#endif  // DEDDB_PERFBENCH_WORKLOAD_H_
