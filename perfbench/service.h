// The system under test as the benchmark stands it up: a persistent
// DeductiveDatabase served by server::Server over TCP on 127.0.0.1, with the
// options deddb_server uses (default ServerOptions, a MetricsRegistry
// attached, the default WAL flush policy), and closed-loop synchronous
// clients in the same process.

#ifndef DEDDB_PERFBENCH_SERVICE_H_
#define DEDDB_PERFBENCH_SERVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/deductive_database.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"

namespace perfbench {

struct Service {
  std::unique_ptr<deddb::DeductiveDatabase> db;
  /// Receives the server.* and sub.* series always (as in deddb_server),
  /// and the facade's own series when the run is traced.
  deddb::obs::MetricsRegistry metrics;
  std::unique_ptr<deddb::server::Server> server;
  std::vector<std::unique_ptr<deddb::server::Client>> clients;

  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service() { Crash(); }

  /// Stops serving and drops the facade without Close(): nothing beyond
  /// what each commit already made durable reaches the directory, so the
  /// next open recovers through the log as after a crash.
  void Crash();
};

struct SetupSpec {
  std::string dir;
  /// Connections to open (each a tokened, non-retrying client).
  int clients = 0;
  /// Client-id base; ids must be unique per directory incarnation.
  uint64_t client_id_base = 1;
  /// Attach the facade's observability sinks (the traced run).
  bool traced = false;
  /// Declares the schema and loads the generated data into a fresh facade.
  std::function<deddb::Status(deddb::DeductiveDatabase*)> load;
  /// Lazy engine set-up users pay once (e.g. compiling the event rules);
  /// runs on the facade before serving. May be null.
  std::function<deddb::Status(deddb::DeductiveDatabase*)> prepare;
  /// Per-client warm-up, after connecting; runs every client's first
  /// requests. May be null.
  std::function<void(Service*)> warmup;
};

/// Opens `spec.dir` (which must not exist yet), loads, checkpoints, serves,
/// connects and warms up. `seconds` receives the wall time of all of it.
std::unique_ptr<Service> StartService(const SetupSpec& spec, double* seconds);

/// Opens a durable directory as recovery does; `seconds` receives the time
/// OpenPersistent took.
std::unique_ptr<deddb::DeductiveDatabase> Reopen(const std::string& dir,
                                                 double* seconds);

void RemoveTree(const std::string& dir);

/// The filesystem type name of `path` (ext4, tmpfs, xfs, ...).
std::string FilesystemOf(const std::string& path);

}  // namespace perfbench

#endif  // DEDDB_PERFBENCH_SERVICE_H_
