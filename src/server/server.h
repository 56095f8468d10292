#ifndef DEDDB_SERVER_SERVER_H_
#define DEDDB_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/deductive_database.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "server/protocol.h"
#include "server/transport.h"
#include "sub/manager.h"
#include "util/resource_guard.h"

namespace deddb::server {

/// One observation of a replica's position in the feed (DESIGN.md §12): the
/// staleness evidence attached to replica-served replies and the input to
/// the max_staleness admission check.
struct ReplicaInfo {
  uint64_t applied_seq = 0;               // last replayed WAL sequence
  uint64_t primary_last_durable_seq = 0;  // primary horizon at last contact
  /// True while the feed is connected and its last exchange succeeded.
  /// A disconnected replica's lag is unbounded regardless of the numbers
  /// above, so every max_staleness read is rejected until the feed heals.
  bool bounded = false;

  uint64_t lag() const {
    return primary_last_durable_seq > applied_seq
               ? primary_last_durable_seq - applied_seq
               : 0;
  }
};

/// Where a replica-serving server reads its staleness evidence from —
/// implemented by repl::Replica. Must be safe to call from any reader
/// thread concurrently with the tailer applying records.
class ReplicaStatusSource {
 public:
  virtual ~ReplicaStatusSource() = default;
  virtual ReplicaInfo replica_status() const = 0;
};

/// Tuning and admission-control knobs. The defaults suit the test suites;
/// `deddb_server` exposes the load-bearing ones as flags.
struct ServerOptions {
  /// Hard cap on concurrently served connections; past it, accepted sockets
  /// are turned away with a typed error frame before any request is read.
  size_t max_connections = 256;

  /// Bound on the writer's admission queue: writes admitted and not yet
  /// acknowledged, apart from the one the writer is executing (queued, or
  /// staged and awaiting their fsync). A write arriving when the queue
  /// is full is rejected immediately (kResourceExhausted, "overloaded") —
  /// reject-on-overload rather than unbounded buffering, so latency stays
  /// bounded and memory cannot grow with offered load.
  size_t write_queue_depth = 128;

  /// Per-client quota: writes a single connection may have queued or
  /// executing. A client pipelining past it is rejected with
  /// kResourceExhausted before its neighbors' capacity is consumed.
  size_t max_pending_writes_per_connection = 16;

  /// Frame size cap enforced before the body is buffered.
  uint32_t max_frame_bytes = kMaxFrameBytes;

  /// Server-side ceiling applied to every request's deadline (0 = none):
  /// min(client deadline, cap), with the cap alone governing requests that
  /// asked for no deadline.
  uint32_t deadline_cap_ms = 0;

  /// Per-client quota on live standing queries (DESIGN.md §11).
  size_t max_subscriptions_per_connection = 8;

  /// Default per-subscription bound on queued-but-unpushed delta batches
  /// (a Subscribe may ask for its own bound). What happens at the bound is
  /// the subscription's overflow policy: disconnect-with-gap or coalesce.
  size_t sub_queue_depth = 64;

  /// Commits retained for resume-from-version reconnects.
  size_t cdc_retain = 256;

  /// Non-owning: when set, this server fronts a replica. Queries carry the
  /// staleness section, Health gains the replication block, max_staleness
  /// is enforced, and write-class requests are refused up front
  /// (kFailedPrecondition, non-retryable) instead of reaching the facade.
  ReplicaStatusSource* replica_status = nullptr;

  /// How long a kWalSubscribe waits for a new settled record before
  /// answering with an empty batch (the long-poll window).
  uint32_t feed_poll_ms = 1000;

  /// Feed batch defaults, applied when the request passes 0.
  uint32_t feed_max_records = 512;
  uint32_t feed_max_bytes = 1u << 20;

  /// Metrics/tracing sink for the server.* series (queue depth, rejections,
  /// latencies). Nullable, like every obs hookup.
  obs::ObsContext obs;

  /// Test seam: runs on the writer thread before each dequeued write
  /// executes (or is staged). The admission and pipeline suites park the
  /// writer on a latch here to fill the queue deterministically. Never set
  /// in production.
  std::function<void()> writer_stall_for_test;

  /// Test seam: runs on the pusher thread after each WaitPop returns, i.e.
  /// with the popped item held outside the manager. The subscription suite
  /// parks the pusher here so per-subscription queues fill deterministically
  /// and the overflow policies can be observed. Never set in production.
  std::function<void()> pusher_stall_for_test;
};

/// The networked service layer (DESIGN.md §10): multiplexes many client
/// connections onto the single-writer/many-reader session model of §9.
///
/// Threading model:
///   - one accept thread per Serve()d listener;
///   - one reader thread per connection, which decodes frames and serves
///     *reads* (Query, Translate, Stats) directly against a Session pinned
///     to the connection (re-pinned when the commit version advances);
///   - exactly one writer thread, which drains the bounded admission queue
///     and drives every mutating facade call (Apply, processor updates,
///     Checkpoint) — the facade's single-writer contract is enforced
///     structurally, not by convention;
///   - one durability stage thread, which finishes staged Applies (waits
///     for their WAL fsync) and sends every write reply in staging order,
///     while the writer stages the next jobs — so concurrent Applies share
///     fsyncs. Acks leave in commit order on each connection and across
///     connections. Under light load (nothing queued, nothing in flight)
///     the writer finishes and replies itself, with no hand-off.
///
/// Admission control reuses util::ResourceGuard end to end: each request
/// carries a deadline and derived-fact/DNF budgets; reads run under a
/// per-connection guard threaded through Session::set_resource_guard, and
/// writes under the facade guard the server installs at start. A guard trip
/// surfaces to the client as a typed error frame (kDeadlineExceeded vs
/// kBudgetExceeded vs kCancelled), never flattened into a generic failure.
/// Deadlines are measured from *admission*: a write whose deadline lapses
/// while queued is answered kDeadlineExceeded at dequeue without executing.
///
/// Stop() is graceful: stop accepting, reject new writes, drain queued
/// writes (every admitted request gets its response), then close
/// connections and join.
class Server {
 public:
  /// `db` must outlive the server. The server owns the facade's resource
  /// guard and writer role while serving: no other thread may mutate the
  /// database or call set_resource_guard between Serve() and Stop().
  Server(DeductiveDatabase* db, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Starts serving `listener` (the accept loop runs on its own thread;
  /// returns immediately). May be called once.
  Status Serve(std::unique_ptr<Listener> listener);

  /// Graceful shutdown; idempotent, safe from any thread. The first caller
  /// owns the teardown; concurrent callers block until it completes, so the
  /// postcondition (threads joined, connections closed) holds for every
  /// caller on return.
  void Stop();

  // ---- Introspection (tests and the Stats frame) ---------------------------

  /// Live queue depth (admitted, not yet acknowledged writes).
  size_t queue_depth() const;
  size_t active_connections() const;

  /// {"server":{...counters...}} — also the payload of a Stats reply,
  /// where it additionally embeds the MetricsRegistry snapshot if one is
  /// attached.
  std::string StatsJson() const;

 private:
  struct ConnState;
  struct WriteJob;
  struct Ack;

  void AcceptLoop();
  void ConnectionLoop(std::shared_ptr<ConnState> conn);
  void WriterLoop();
  /// The durability stage: finishes and sends the acks the writer queued,
  /// strictly in queue order; exits once the writer is done and the stream
  /// is empty.
  void AckLoop();

  /// Decodes and serves one request frame; returns false when the
  /// connection should close (transport failure writing the response).
  bool Dispatch(const std::shared_ptr<ConnState>& conn,
                const OwnedFrame& frame);

  /// Drains the subscription manager and writes push frames (request id 0)
  /// to the owning connections; runs on its own thread between Serve and
  /// Stop so a slow subscriber can never stall the commit path.
  void PusherLoop();

  // Read-path handlers (connection thread).
  void ServeQuery(const std::shared_ptr<ConnState>& conn, uint64_t id,
                  std::string_view payload);
  void ServeTranslate(const std::shared_ptr<ConnState>& conn, uint64_t id,
                      std::string_view payload);
  void ServeStats(const std::shared_ptr<ConnState>& conn, uint64_t id,
                  std::string_view payload);
  void ServeHealth(const std::shared_ptr<ConnState>& conn, uint64_t id,
                   std::string_view payload);
  void ServeSubscribe(const std::shared_ptr<ConnState>& conn, uint64_t id,
                      std::string_view payload);
  void ServeUnsubscribe(const std::shared_ptr<ConnState>& conn, uint64_t id,
                        std::string_view payload);
  /// The replica feed endpoint (kWalFetch / kWalSubscribe); `long_poll`
  /// selects the waiting mode. Runs on the connection thread — the wait
  /// parks in bounded slices off mu_, so it never stalls the server.
  void ServeWalFetch(const std::shared_ptr<ConnState>& conn, uint64_t id,
                     std::string_view payload, bool long_poll);

  /// Admission for write-class requests: quota, queue bound, shutdown.
  void EnqueueWrite(const std::shared_ptr<ConnState>& conn, WriteJob job);

  /// Joins reader threads of connections that have retired, so handles do
  /// not accumulate for the server's lifetime. Called from the accept loop
  /// (bounding the backlog at max_connections) and from Stop().
  void ReapRetiredConnections();

  /// Executes one admitted write on the writer thread: stages an Apply,
  /// runs a Process or Checkpoint to completion. Fills in `ack` (which
  /// already names the job's connection and request) with its reply-to-be.
  void ExecuteWrite(const WriteJob& job, Ack* ack);

  /// Answers a tokened write the dedup table already knows — a committed
  /// duplicate (original reply, confirmed at ack time) or an out-of-window
  /// token (typed non-retryable rejection). False for a fresh token.
  bool AnswerFromDedup(const WriteJob& job, const DedupResult& dedup,
                       Ack* ack);

  /// Writer side of the ack stream: queues `ack` behind the ones in flight,
  /// or — nothing in flight, and nothing queued for a staged Apply to
  /// overlap with — finishes it on the writer.
  void Deliver(Ack ack);

  /// Finishes a staged Apply (durability verdict) or, for any other reply,
  /// replaces it with the loss if it rests on a lost commit; then sends the
  /// reply and releases the job's in-flight slot and connection quota.
  void FinishAck(Ack& ack);

  /// Ensures conn->session pins the current commit version; arms the
  /// connection guard from `admission`. Returns the deadline-capped limits'
  /// guard, or nullptr when the request is unguarded.
  Result<const ResourceGuard*> PinSession(const std::shared_ptr<ConnState>& conn,
                                          const Admission& admission);

  ResourceLimits LimitsFor(const Admission& admission,
                           std::chrono::nanoseconds remaining_deadline) const;

  void SendError(const std::shared_ptr<ConnState>& conn, uint64_t id,
                 const Status& status);
  /// SendError for the write path: replies to tokened (v2) requests carry
  /// the explicit retryable hint; untokened requests get the bare v1 error
  /// frame, so legacy clients never see trailing bytes they cannot parse.
  void SendWriteError(const std::shared_ptr<ConnState>& conn, uint64_t id,
                      const Status& status, bool tokened, bool retryable);
  /// Checks the facade's sticky commit health after a failed write and, on
  /// poison, flips the server into read-only (degraded) mode.
  void NoteCommitHealth();
  void SendReply(const std::shared_ptr<ConnState>& conn, uint64_t id,
                 FrameType type, std::string_view payload);

  DeductiveDatabase* db_;
  ServerOptions options_;
  obs::MetricsRegistry* metrics_;  // options_.obs.metrics, may be null

  /// The CDC registry (DESIGN.md §11): installed on the facade as its
  /// commit observer for the lifetime of the server and drained by the
  /// pusher thread. Threads-safe on its own mutex; never called under mu_.
  sub::SubscriptionManager subs_;

  std::unique_ptr<Listener> listener_;
  std::thread accept_thread_;
  std::thread writer_thread_;
  std::thread acker_thread_;
  std::thread pusher_thread_;

  /// The guard installed on the facade for the lifetime of the server; only
  /// the writer thread Restart()s it (between jobs) and only writer-thread
  /// evaluations observe it — sessions strip the facade guard at
  /// BeginSession, so reader threads never dereference it.
  ResourceGuard writer_guard_;
  const ResourceGuard* previous_facade_guard_ = nullptr;

  mutable std::mutex mu_;  // guards everything below
  std::condition_variable queue_cv_;       // writer wakeups
  std::condition_variable drained_cv_;     // Stop() waits for queue drain
  std::condition_variable ack_cv_;         // durability stage wakeups
  std::deque<WriteJob> write_queue_;
  size_t writes_in_flight_ = 0;  // dequeued, not yet acknowledged
  /// The ordered ack stream: replies the writer decided, oldest first. The
  /// durability stage finishes the front in place and pops it after the
  /// reply is sent, so an empty stream means nothing is in flight there.
  /// Admission counts it with the queue against write_queue_depth.
  std::deque<Ack> acks_;
  bool writer_done_ = false;  // the writer returned; no more acks will come
  std::vector<std::shared_ptr<ConnState>> connections_;
  /// Push routing: the opaque owner id each subscription is registered
  /// under, back to its connection. weak_ptr so a retired connection's
  /// state is not kept alive by its undelivered pushes.
  std::map<uint64_t, std::weak_ptr<ConnState>> owners_;
  uint64_t next_owner_ = 1;
  /// Connections whose reader loop has exited but whose thread handle is
  /// not yet joined; drained by ReapRetiredConnections.
  std::vector<std::shared_ptr<ConnState>> retired_connections_;
  std::condition_variable stopped_cv_;  // latecomer Stop()s wait on stopped_
  bool serving_ = false;
  bool stopping_ = false;
  /// Sticky read-only mode: set when the facade's commit health poisons
  /// (durability failure with unknowable on-disk suffix). Reads keep
  /// serving off pinned sessions; writes are rejected kUnavailable with a
  /// retryable=false hint — only reopening the database clears the poison,
  /// so retrying against this process cannot help.
  bool degraded_ = false;
  bool stopped_ = false;  // teardown finished (set by the owning Stop)

  /// Long-poll plumbing for the replica feed: each acknowledged write rings
  /// repl_cv_ (off mu_), and Stop() raises
  /// repl_stop_ so parked feed waits unwind promptly. Own mutex so a parked
  /// long-poll never holds — or waits for — mu_.
  std::mutex repl_mu_;
  std::condition_variable repl_cv_;
  std::atomic<bool> repl_stop_{false};

  // Monotonic counters behind mu_; mirrored into the metrics registry and
  // the Stats frame.
  struct Counters {
    uint64_t connections_total = 0;
    uint64_t connections_rejected = 0;
    uint64_t requests_read = 0;
    uint64_t requests_write = 0;
    uint64_t writes_applied = 0;
    uint64_t writes_rejected = 0;   // validation/integrity failures
    uint64_t rejected_overload = 0;
    uint64_t rejected_quota = 0;
    uint64_t rejected_shutdown = 0;
    uint64_t rejected_degraded = 0;  // writes refused in read-only mode
    uint64_t deadline_expired_in_queue = 0;
    uint64_t protocol_errors = 0;
    uint64_t guard_trips = 0;  // typed kDeadline/kBudget/kCancelled replies
    uint64_t dedup_hits = 0;   // retried committed writes answered from the
                               // idempotency table (original reply, no
                               // second apply)
    uint64_t feed_fetches = 0;          // kWalFetch/kWalSubscribe served
    uint64_t feed_records_shipped = 0;  // WAL records sent to replicas
    uint64_t stale_rejections = 0;      // max_staleness reads turned away
    uint64_t rejected_replica_writes = 0;  // writes refused on a replica
  } counters_;
};

}  // namespace deddb::server

#endif  // DEDDB_SERVER_SERVER_H_
