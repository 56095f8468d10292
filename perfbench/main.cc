// deddb_perfbench: one run of one workload of the service benchmark.
//
//   deddb_perfbench --workload=employment_oltp --seed=1 --seconds=10
//                   --trace=0 --dir=.bench_build/run
//
// --trace=0 measures the end-to-end metrics: set-up (repeated, median),
// a closed-loop run of --seconds, and recovery of a fixed logged directory;
// the run's own directory is reopened after a crash-stop and checked.
// --trace=1 measures the per-layer metrics: an untraced and a traced
// closed-loop run of --seconds/2 each (their throughput difference is the
// tracing overhead), the facade's and server's counters from the traced
// run, and a serial replay of the workload's operations with spans around
// every public call. The last line of stdout is the result as JSON; every
// answer the clients receive is checked against the workload's model.

#include <sys/utsname.h>

#include <cstring>
#include <filesystem>
#include <thread>

#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Set-ups before the measured run (the last one serves it) and after it;
/// the reported set-up time is the median of all of them.
constexpr int kSetupsBefore = 4;
constexpr int kSetupsAfter = 4;
/// Commits logged after the recovery fixture's checkpoint.
constexpr int kFixtureCommits = 2048;
/// Pause before each set-up and each reopen. The speed of a shared machine
/// changes over seconds; spacing the repeats out, on both sides of the
/// run, lets their median sample that instead of one burst of it.
constexpr auto kRepeatGap = std::chrono::milliseconds(300);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
};

bool Flag(const char* arg, const char* name, std::string* value) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

Args Parse(int argc, char** argv) {
  Args args;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    if (Flag(argv[i], "--workload", &v)) {
      args.workload = v;
    } else if (Flag(argv[i], "--seed", &v)) {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--seconds", &v)) {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (Flag(argv[i], "--trace", &v)) {
      args.trace = v == "1";
    } else if (Flag(argv[i], "--dir", &v)) {
      args.dir = v;
    } else {
      Die(std::string("unknown argument ") + argv[i]);
    }
  }
  if (args.dir.empty() || args.seconds <= 0) Die("need --dir and --seconds > 0");
  return args;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "employment_oltp") return MakeEmploymentOltp(seed);
  if (name == "durable_writes") return MakeDurableWrites(seed);
  if (name == "reach_recursive") return MakeReachRecursive(seed);
  Die("unknown workload " + name);
}

/// Starts the service for `wl` in a fresh directory.
std::unique_ptr<Service> Start(Workload* wl, const std::string& dir,
                               uint64_t client_id_base, bool traced,
                               RunResult* out, double* seconds) {
  wl->Generate();
  SetupSpec spec;
  spec.dir = dir;
  spec.clients = wl->connections();
  spec.client_id_base = client_id_base;
  spec.traced = traced;
  spec.load = [wl](deddb::DeductiveDatabase* db) { return wl->Load(db); };
  spec.prepare = [wl](deddb::DeductiveDatabase* db) { return wl->Prepare(db); };
  spec.warmup = [wl, out](Service* svc) { wl->Warmup(svc, out); };
  return StartService(spec, seconds);
}

/// Windows the measured run is cut into; throughput and medians are the
/// median over windows, so a transient stall moves one window, not the run.
constexpr int kWindows = 40;

/// Completed operations per second: median over windows.
double OpsPerSecond(const Phase& phase) {
  std::vector<Clock::time_point> done;
  for (const auto& [cls, samples] : phase.latency) {
    if (cls == kNotify) continue;  // a push is not an operation of its own
    done.insert(done.end(), samples.stamps().begin(), samples.stamps().end());
  }
  return WindowedRate(done, phase.start, phase.window_s, kWindows);
}

double WindowedMedian(const Samples& samples, const Phase& phase) {
  return samples.WindowedPercentile(50, phase.start, phase.window_s, kWindows);
}

/// Samples per window behind a windowed tail percentile: 20 beyond the
/// 90th, and at least two beyond the 99th, in every window.
constexpr size_t kTailSamplesPerWindow = 200;

/// Tail percentile p: the median over windows of each window's p, with as
/// many windows (up to kWindows) as keep kTailSamplesPerWindow samples in
/// each, so a slow stretch of the machine moves some windows, not the
/// result. Tails are reported, not compared: on a shared machine their
/// spread across seeds passes the largest bound allowed (0.25) in most sets
/// of ten runs, p90 on employment_oltp (0.29-0.87: it falls inside the
/// spread-out cost of first-reads-after-commit) and p99 on durable_writes
/// (0.65-0.86: set by the machine's stalls).
double WindowedTail(const Samples& samples, const Phase& phase, double p) {
  int windows = static_cast<int>(std::clamp<size_t>(
      samples.size() / kTailSamplesPerWindow, 1, kWindows));
  return samples.WindowedPercentile(p, phase.start, phase.window_s, windows);
}

void Describe(const Args& args, const Workload& wl, RunResult* out) {
  wl.Describe(out);
  out->info["workload"] = args.workload;
  out->info["seed"] = std::to_string(args.seed);
  out->info["seconds"] = std::to_string(args.seconds);
  out->info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  out->info["build_type"] = PERFBENCH_BUILD_TYPE;
  out->info["compiler"] = "g++ " __VERSION__;
  out->info["data_fs"] = FilesystemOf(args.dir);
  out->info["transport"] = "TCP 127.0.0.1, in-process server";
  out->info["flush_policy"] =
      "fsync per commit, leader-based group commit (PersistOptions default)";
  out->info["read_class"] = wl.read_class();
  out->info["write_class"] = wl.write_class();
  struct utsname u;
  if (uname(&u) == 0) out->info["kernel"] = std::string(u.sysname) + " " + u.release;
}

void ReportClasses(const Phase& phase, RunResult* out) {
  for (const auto& [cls, samples] : phase.latency) {
    out->Report(cls + "_p50_us", samples.Percentile(50), "us");
    out->Report(cls + "_p99_us", samples.Percentile(99), "us");
    out->Report(cls + "_samples", static_cast<double>(samples.size()), "count");
  }
  out->Report("failed_ratio",
              Ratio(static_cast<double>(phase.failed),
                    static_cast<double>(phase.attempted)),
              "ratio");
  out->Report("commits", static_cast<double>(phase.commits), "count");
}

/// A durable directory with the workload's loaded state, a checkpoint and
/// kFixtureCommits logged commits after it: what recovery_s reopens, the
/// same amount of log on every run whatever the run's throughput. Uses the
/// model freshly generated; Start() regenerates it for the run.
void BuildRecoveryFixture(Workload* wl, const std::string& dir) {
  wl->Generate();
  auto db = Unwrap(deddb::DeductiveDatabase::OpenPersistent(dir), "open");
  CheckOk(wl->Load(db.get()), "load");
  CheckOk(db->Checkpoint(), "checkpoint");
  wl->CommitFixture(db.get(), kFixtureCommits);
}  // dropped without Close(), so the commits stay in the log

double TimedReopen(const std::string& dir) {
  std::this_thread::sleep_for(kRepeatGap);
  double seconds = 0;
  Reopen(dir, &seconds);  // dropped without Close(): the log stays as it was
  return seconds;
}

void EndToEnd(const Args& args, Workload* wl, RunResult* out) {
  const std::string fixture = args.dir + "/recovery";
  BuildRecoveryFixture(wl, fixture);
  std::vector<double> setups;
  std::vector<double> reopens;  // recovery_s: one before each set-up, and
                                // one after each post-run set-up
  std::unique_ptr<Service> svc;
  std::string dir;
  auto setup = [&](int i) {
    reopens.push_back(TimedReopen(fixture));
    std::this_thread::sleep_for(kRepeatGap);
    dir = args.dir + "/setup-" + std::to_string(i);
    double seconds = 0;
    svc = Start(wl, dir, (args.seed << 8) + 16 * i + 1, false, out, &seconds);
    setups.push_back(seconds);
  };
  auto teardown = [&] {
    svc.reset();
    RemoveTree(dir);
  };
  for (int i = 0; i < kSetupsBefore; ++i) {
    if (i > 0) teardown();
    setup(i);
  }
  // Memory once loaded and serving: the heap the database, the server and
  // the connected clients hold. Read here, not after the run: the clients'
  // answer logs live in this process and grow with throughput, and so does
  // recovery's peak (it replays the log from memory), so later readings
  // would rise when the program gets faster. Heap bytes rather than RSS,
  // which moves in whole allocator-arena steps from run to run.
  const double setup_heap = HeapInUseMb();
  const double setup_rss = PeakRssMb();

  Phase phase = wl->Run(svc.get(), args.seconds, out);
  const double run_rss = PeakRssMb();
  svc.reset();  // crash-stop: no Close(), no final checkpoint

  double run_recovery = 0;
  wl->CheckRecovered(Reopen(dir, &run_recovery).get(), out);
  RemoveTree(dir);
  for (int i = kSetupsBefore; i < kSetupsBefore + kSetupsAfter; ++i) {
    setup(i);
    teardown();
    reopens.push_back(TimedReopen(fixture));
  }
  RemoveTree(fixture);

  out->attempted = phase.attempted;
  out->failed = phase.failed;
  const Samples& read = phase.latency[wl->read_class()];
  const Samples& write = phase.latency[wl->write_class()];
  out->Metric("setup_s", MedianOf(setups), "s");
  out->Metric("ops_per_s", OpsPerSecond(phase), "ops/s");
  out->Metric("read_p50_us", WindowedMedian(read, phase), "us");
  out->Metric("write_p50_us", WindowedMedian(write, phase), "us");
  out->Metric("heap_mb", setup_heap, "MiB");
  ReportClasses(phase, out);
  out->Report("read_p90_us", WindowedTail(read, phase, 90), "us");
  out->Report("write_p90_us", WindowedTail(write, phase, 90), "us");
  out->Report("read_p99_us", WindowedTail(read, phase, 99), "us");
  out->Report("write_p99_us", WindowedTail(write, phase, 99), "us");
  // Reported, not compared: a 40-60 ms open follows the machine's speed
  // from minute to minute, and its spread across ten seeds passed the
  // largest bound allowed (0.25) on employment_oltp in three sets running.
  out->Report("recovery_s", MedianOf(reopens), "s");
  out->Report("recovery_run_s", run_recovery, "s");
  out->Report("peak_rss_setup_mb", setup_rss, "MiB");
  out->Report("peak_rss_mb", run_rss, "MiB");
  out->Report("peak_rss_recovery_mb", PeakRssMb(), "MiB");
  out->info["recovery_fixture"] =
      std::to_string(kFixtureCommits) + " commits after a checkpoint, median of " +
      std::to_string(reopens.size()) + " opens before and after the run";
  out->info["setups"] = std::to_string(setups.size()) + " (" +
                        std::to_string(kSetupsBefore) + " before the run, " +
                        std::to_string(kSetupsAfter) + " after), median";
}

double HistogramMean(const deddb::obs::MetricsRegistry& m, const char* name) {
  auto h = m.histogram(name);
  return Ratio(static_cast<double>(h.sum), static_cast<double>(h.count));
}

void PerLayer(const Args& args, Workload* wl, RunResult* out) {
  double ignored = 0;
  std::string dir = args.dir + "/untraced";
  auto svc = Start(wl, dir, (args.seed << 8) + 1, false, out, &ignored);
  Phase untraced = wl->Run(svc.get(), args.seconds / 2, out);
  svc.reset();
  RemoveTree(dir);

  dir = args.dir + "/traced";
  svc = Start(wl, dir, (args.seed << 8) + 17, true, out, &ignored);
  svc->metrics.Clear();  // count the measured window only
  Phase traced = wl->Run(svc.get(), args.seconds / 2, out);
  const deddb::obs::MetricsRegistry& m = svc->metrics;
  std::map<std::string, double> counters;
  for (const char* name :
       {"session.snapshots_created", "persist.wal_fsyncs",
        "persist.commits_logged", "persist.wal_bytes", "sub.deltas_pushed",
        "sub.deltas_queued", "sub.deltas_coalesced", "sub.gap_events"}) {
    counters[name] = static_cast<double>(m.counter(name));
  }
  double queue_wait = HistogramMean(m, "server.queue_wait_us");
  double write_exec = HistogramMean(m, "server.write_exec_us");
  double commit_wait = HistogramMean(m, "session.commit_wait_us");
  svc.reset();
  RemoveTree(dir);

  LayerStats L;
  wl->Replay(args.dir + "/replay", &L, out);
  RemoveTree(args.dir + "/replay");

  out->attempted = untraced.attempted + traced.attempted;
  out->failed = untraced.failed + traced.failed;
  const double commits = static_cast<double>(traced.commits);
  auto mean = [&](const char* name) {
    auto it = L.spans.find(name);
    if (it == L.spans.end() || it->second.empty()) {
      Die(std::string("replay recorded no ") + name);
    }
    return it->second.Mean();
  };
  auto value = [&](const char* name) {
    auto it = L.values.find(name);
    if (it == L.values.end()) Die(std::string("replay recorded no ") + name);
    return it->second;
  };

  // Client-observed latency no public call accounts for: transport, thread
  // hand-off, admission queueing. Median per class, weighted by op count.
  double overhead = 0, weight = 0;
  for (const auto& [cls, samples] : traced.latency) {
    auto self = L.spans.find("self." + cls);
    if (self == L.spans.end() || self->second.empty()) continue;
    overhead += samples.size() * (samples.Median() - self->second.Median());
    weight += samples.size();
  }

  out->Metric("server.codec_us", mean("server.codec_us"), "us");
  out->Metric("server.frame_bytes", mean("server.frame_bytes"), "B");
  out->Metric("server.queue_wait_us", queue_wait, "us");
  out->Metric("server.write_exec_us", write_exec, "us");
  out->Metric("server.overhead_us", Ratio(overhead, weight), "us");
  out->Metric("core.pin_us", mean("core.pin_us"), "us");
  out->Metric("core.snapshots_per_commit",
              Ratio(counters["session.snapshots_created"], commits), "1/commit");
  out->Metric("core.repins_per_commit",
              Ratio(static_cast<double>(traced.repins), commits), "1/commit");
  out->Metric("core.process_us", mean("core.process_us"), "us");
  out->Metric("core.apply_us", mean("core.apply_us"), "us");
  out->Metric("interp.upward_us", mean("interp.upward_us"), "us");
  out->Metric("interp.downward_us", mean("interp.downward_us"), "us");
  out->Metric("interp.domain_us", mean("interp.domain_us"), "us");
  out->Metric("interp.dnf_disjuncts", value("interp.dnf_disjuncts"), "count");
  out->Metric("eval.point_query_us", mean("eval.point_query_us"), "us");
  out->Metric("eval.fixpoint_us", mean("eval.fixpoint_us"), "us");
  out->Metric("eval.rounds", value("eval.rounds"), "count");
  out->Metric("eval.rule_firings", value("eval.rule_firings"), "count");
  out->Metric("eval.derived_facts", value("eval.derived_facts"), "count");
  out->Metric("eval.indexed_step_ratio", value("eval.indexed_step_ratio"), "ratio");
  out->Metric("storage.clone_us", mean("storage.clone_us"), "us");
  out->Metric("storage.txn_apply_us", mean("storage.txn_apply_us"), "us");
  out->Metric("persist.append_sync_us", mean("persist.append_sync_us"), "us");
  out->Metric("persist.fsyncs_per_commit",
              Ratio(counters["persist.wal_fsyncs"], counters["persist.commits_logged"]),
              "1/commit");
  out->Metric("persist.wal_bytes_per_commit",
              Ratio(counters["persist.wal_bytes"], counters["persist.commits_logged"]),
              "B/commit");
  out->Metric("sub.deltas_per_commit", Ratio(counters["sub.deltas_pushed"], commits),
              "1/commit");
  out->Metric("sub.coalesced_ratio",
              Ratio(counters["sub.deltas_coalesced"], counters["sub.deltas_queued"]),
              "ratio");
  out->Metric("sub.gap_events", counters["sub.gap_events"], "count");
  const double ops_untraced = OpsPerSecond(untraced);
  out->Metric("trace.overhead_pct",
              100.0 * Ratio(ops_untraced - OpsPerSecond(traced), ops_untraced), "%");

  ReportClasses(traced, out);
  // Zero whenever no commit waits for the lock, which is the common case
  // here; a reading that never moves is no use as a per-layer metric.
  out->Report("core.commit_wait_us", commit_wait, "us");
  for (const auto& [name, source] : L.source) out->info["source." + name] = source;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Args args = Parse(argc, argv);
  std::filesystem::create_directories(args.dir);
  auto wl = MakeWorkload(args.workload, args.seed);
  RunResult out;
  Describe(args, *wl, &out);
  if (args.trace) {
    PerLayer(args, wl.get(), &out);
  } else {
    EndToEnd(args, wl.get(), &out);
  }
  RemoveTree(args.dir);
  std::printf("%s\n", out.ToJson().c_str());
  return 0;
}
