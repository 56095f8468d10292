#include "server/server.h"

#include <algorithm>
#include <utility>

#include "core/session.h"
#include "core/update_processor.h"
#include "util/strings.h"

namespace deddb::server {

namespace {

using Clock = std::chrono::steady_clock;

bool IsGuardTrip(StatusCode code) {
  return code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kBudgetExceeded ||
         code == StatusCode::kCancelled;
}

}  // namespace

/// Per-connection state. The reader thread owns session/guard exclusively
/// (write jobs only touch `conn` + `write_mu`); `pending_writes` is guarded
/// by the server's mu_. The guard is declared before the session so the
/// session (which may hold a pointer to it) dies first.
struct Server::ConnState {
  std::unique_ptr<Connection> conn;
  std::mutex write_mu;  // serializes response frames from reader + writer
  ResourceGuard guard;
  std::unique_ptr<Session> session;
  size_t pending_writes = 0;
  /// Subscription owner id (assigned at accept): the key the manager files
  /// this connection's standing queries under, and the pusher's route back.
  uint64_t owner = 0;
  /// The connection's reader thread. Assigned under mu_ right after the
  /// thread is spawned; joined by ReapRetiredConnections or Stop() once the
  /// loop has exited (the loop itself never touches this field).
  std::thread reader;
};

struct Server::WriteJob {
  enum class Kind { kApply, kProcess, kCheckpoint };
  Kind kind = Kind::kApply;
  uint64_t request_id = 0;
  std::shared_ptr<ConnState> conn;
  Transaction transaction;
  Admission admission;
  /// Idempotency token from the request (absent for v1 clients). Its
  /// presence also opts the reply into the retryable-hint extension.
  persist::CommitToken token;
  Clock::time_point admitted_at{};
  // Deadline fixed at admission (not at dequeue), so queue time counts
  // against it — the "expired mid-queue" contract.
  bool has_deadline = false;
  Clock::time_point deadline_at{};
};

/// One reply in the ordered ack stream: what the writer decided for a job,
/// sent in staging order by whichever thread acknowledges it.
struct Server::Ack {
  std::shared_ptr<ConnState> conn;
  uint64_t request_id = 0;
  bool tokened = false;  // opts error replies into the retryable hint
  /// A staged Apply: FinishApply decides between the reply below and a
  /// non-retryable error.
  std::optional<DeductiveDatabase::StagedApply> staged;
  Clock::time_point staged_at{};
  /// For any other reply, the commit version whose state it was decided
  /// in (a dedup hit: the version its original committed at). The reply
  /// stands only if no commit up to that version was lost.
  uint64_t rests_on = 0;
  /// The reply: a success frame, or kError with `error` and its hint.
  FrameType type = FrameType::kError;
  std::string payload;
  Status error;
  bool retryable = false;

  /// An ack for `job`, reply still to be decided.
  static Ack For(const WriteJob& job) {
    Ack ack;
    ack.conn = job.conn;
    ack.request_id = job.request_id;
    ack.tokened = job.token.present();
    return ack;
  }

  void Fail(Status status, bool retry) {
    type = FrameType::kError;
    error = std::move(status);
    retryable = retry;
  }
};

Server::Server(DeductiveDatabase* db, ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      metrics_(options_.obs.metrics),
      subs_(sub::SubscriptionManager::Options{options_.cdc_retain,
                                              options_.obs}) {}

Server::~Server() { Stop(); }

Status Server::Serve(std::unique_ptr<Listener> listener) {
  std::lock_guard<std::mutex> lock(mu_);
  if (serving_) return FailedPreconditionError("server already serving");
  if (stopping_) return FailedPreconditionError("server stopped");
  serving_ = true;
  listener_ = std::move(listener);
  // The facade guard is installed once, before any thread runs: the writer
  // thread re-arms it per job, and nothing else ever touches the pointer
  // (sessions strip the facade guard at BeginSession), so there is no race.
  previous_facade_guard_ = db_->resource_guard();
  db_->set_resource_guard(&writer_guard_);
  // The observer hook is armed for the server's whole lifetime; the manager
  // keeps the per-commit cost at one relaxed load until someone subscribes.
  db_->set_commit_observer(&subs_);
  writer_thread_ = std::thread(&Server::WriterLoop, this);
  acker_thread_ = std::thread(&Server::AckLoop, this);
  pusher_thread_ = std::thread(&Server::PusherLoop, this);
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  return Status::Ok();
}

void Server::Stop() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!serving_) return;
    if (stopping_) {
      // Another thread owns the teardown (two threads joining the same
      // std::thread is a data race); wait for it so every caller returns to
      // a fully stopped server.
      stopped_cv_.wait(lock, [&] { return stopped_; });
      return;
    }
    stopping_ = true;
  }
  queue_cv_.notify_all();
  repl_stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> repl_lock(repl_mu_);
  }
  repl_cv_.notify_all();
  if (listener_ != nullptr) listener_->Close();

  // Drain: every admitted write completes and gets its response before any
  // connection is torn down (a write is in flight until its ack; joining the
  // writer and the durability stage below finishes the last reply writes).
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained_cv_.wait(lock, [&] {
      return write_queue_.empty() && writes_in_flight_ == 0;
    });
  }
  if (writer_thread_.joinable()) writer_thread_.join();
  if (acker_thread_.joinable()) acker_thread_.join();
  if (accept_thread_.joinable()) accept_thread_.join();

  // The writer is gone, so no further commit can publish into the manager;
  // stop the pusher (undelivered batches drop — subscribers observe the
  // connection close, not a silent gap) and unhook the observer before any
  // post-Stop mutation of the database.
  subs_.Shutdown();
  if (pusher_thread_.joinable()) pusher_thread_.join();
  db_->set_commit_observer(nullptr);

  std::vector<std::shared_ptr<ConnState>> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections = connections_;
  }
  for (const std::shared_ptr<ConnState>& conn : connections) {
    conn->conn->Close();
  }
  // The accept thread is gone, so nothing joins concurrently with us: first
  // the still-active readers (their loops exit on the Close above), then
  // whatever retired in between.
  for (const std::shared_ptr<ConnState>& conn : connections) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  ReapRetiredConnections();
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections_.clear();
    owners_.clear();
    obs::MetricsRegistry::Set(metrics_, "server.connections_active", 0);
  }
  db_->set_resource_guard(previous_facade_guard_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  stopped_cv_.notify_all();
}

size_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_queue_.size() + writes_in_flight_;
}

size_t Server::active_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connections_.size();
}

std::string Server::StatsJson() const {
  Counters c;
  size_t depth = 0, conns = 0;
  bool degraded = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    c = counters_;
    depth = write_queue_.size() + writes_in_flight_;
    conns = connections_.size();
    degraded = degraded_;
  }
  std::string out = StrCat(
      "{\"server\":{\"queue_depth\":", depth,
      ",\"degraded\":", degraded ? 1 : 0,
      ",\"connections_active\":", conns,
      ",\"connections_total\":", c.connections_total,
      ",\"connections_rejected\":", c.connections_rejected,
      ",\"requests_read\":", c.requests_read,
      ",\"requests_write\":", c.requests_write,
      ",\"writes_applied\":", c.writes_applied,
      ",\"writes_rejected\":", c.writes_rejected,
      ",\"rejected_overload\":", c.rejected_overload,
      ",\"rejected_quota\":", c.rejected_quota,
      ",\"rejected_shutdown\":", c.rejected_shutdown,
      ",\"rejected_degraded\":", c.rejected_degraded,
      ",\"deadline_expired_in_queue\":", c.deadline_expired_in_queue,
      ",\"protocol_errors\":", c.protocol_errors,
      ",\"guard_trips\":", c.guard_trips,
      ",\"dedup_hits\":", c.dedup_hits, "}");
  const sub::ManagerStats s = subs_.Stats();
  out += StrCat(
      ",\"sub\":{\"registered_total\":", s.registered_total,
      ",\"active\":", s.active,
      ",\"queued_batches\":", s.queued_batches,
      ",\"commits_observed\":", s.commits_observed,
      ",\"deltas_queued\":", s.deltas_queued,
      ",\"deltas_pushed\":", s.deltas_pushed,
      ",\"deltas_coalesced\":", s.deltas_coalesced,
      ",\"gap_events\":", s.gap_events,
      ",\"barriers\":", s.barriers,
      ",\"resume_hits\":", s.resume_hits,
      ",\"resume_misses\":", s.resume_misses, "}");
  if (persist::PersistenceManager* persistence = db_->persistence()) {
    const persist::PersistenceManager::Stats p = persistence->stats();
    out += StrCat(
        ",\"repl\":{\"role\":\"primary\"",
        ",\"last_durable_seq\":", p.last_seq,
        ",\"settled_seq\":", persistence->settled_seq(),
        ",\"feed_fetches\":", c.feed_fetches,
        ",\"feed_records_shipped\":", c.feed_records_shipped, "}");
  } else if (options_.replica_status != nullptr) {
    const ReplicaInfo info = options_.replica_status->replica_status();
    out += StrCat(
        ",\"repl\":{\"role\":\"replica\"",
        ",\"applied_seq\":", info.applied_seq,
        ",\"primary_last_durable_seq\":", info.primary_last_durable_seq,
        ",\"lag\":", info.lag(),
        ",\"bounded\":", info.bounded ? 1 : 0,
        ",\"stale_rejections\":", c.stale_rejections,
        ",\"rejected_replica_writes\":", c.rejected_replica_writes, "}");
  }
  if (metrics_ != nullptr) {
    out += StrCat(",\"metrics\":", metrics_->ToJson());
  }
  out += "}";
  return out;
}

// ---- Accept / connection threads --------------------------------------------

void Server::AcceptLoop() {
  for (;;) {
    Result<std::unique_ptr<Connection>> accepted = listener_->Accept();
    // The accept cadence bounds the retired backlog: at most every current
    // connection can retire between two accepts.
    ReapRetiredConnections();
    if (!accepted.ok()) {
      // Closed during Stop, or the listener died; either way we are done
      // accepting (serving connections continue until Stop).
      return;
    }
    auto conn = std::make_shared<ConnState>();
    conn->conn = std::move(*accepted);
    bool over_limit = false;
    size_t active = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        conn->conn->Close();
        return;
      }
      if (connections_.size() >= options_.max_connections) {
        ++counters_.connections_rejected;
        over_limit = true;
      } else {
        ++counters_.connections_total;
        conn->owner = next_owner_++;
        owners_[conn->owner] = conn;
        connections_.push_back(conn);
        active = connections_.size();
        conn->reader = std::thread(&Server::ConnectionLoop, this, conn);
      }
    }
    if (over_limit) {
      obs::MetricsRegistry::Add(metrics_, "server.connections_rejected");
      // Turned away before any request is read; the error frame uses
      // request id 0 (no request to correlate with). Written with mu_
      // released — a peer that never drains its socket blocks only this
      // write, never the rest of the server.
      ErrorReply reply{StatusCode::kResourceExhausted,
                       StrCat("connection limit of ",
                              options_.max_connections, " reached")};
      std::string payload = EncodeErrorReply(reply);
      (void)WriteFrame(conn->conn.get(), FrameType::kError, 0, payload);
      conn->conn->Close();
      continue;
    }
    obs::MetricsRegistry::Add(metrics_, "server.connections_total");
    obs::MetricsRegistry::Set(metrics_, "server.connections_active",
                              static_cast<int64_t>(active));
  }
}

void Server::ConnectionLoop(std::shared_ptr<ConnState> conn) {
  for (;;) {
    Result<std::optional<OwnedFrame>> read =
        ReadFrame(conn->conn.get(), options_.max_frame_bytes);
    if (!read.ok()) {
      // Malformed framing is answered (best effort) before hanging up: the
      // peer is told *why* instead of seeing a bare reset.
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.protocol_errors;
      }
      obs::MetricsRegistry::Add(metrics_, "server.protocol_errors");
      SendError(conn, 0, read.status());
      break;
    }
    if (!read->has_value()) break;  // clean EOF
    if (!Dispatch(conn, **read)) break;
  }
  conn->conn->Close();
  // Retire the connection's standing queries before dropping the owner
  // route (manager mutex only — never under mu_).
  subs_.CancelOwner(conn->owner);
  {
    std::lock_guard<std::mutex> lock(mu_);
    owners_.erase(conn->owner);
    connections_.erase(
        std::remove(connections_.begin(), connections_.end(), conn),
        connections_.end());
    obs::MetricsRegistry::Set(metrics_, "server.connections_active",
                              static_cast<int64_t>(connections_.size()));
    // Hand our own thread handle to the reaper (a thread cannot join
    // itself); pushing is this loop's final act, so the eventual join
    // returns as soon as this function does.
    retired_connections_.push_back(conn);
  }
}

void Server::ReapRetiredConnections() {
  std::vector<std::shared_ptr<ConnState>> retired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    retired.swap(retired_connections_);
  }
  for (const std::shared_ptr<ConnState>& conn : retired) {
    if (conn->reader.joinable()) conn->reader.join();
  }
}

bool Server::Dispatch(const std::shared_ptr<ConnState>& conn,
                      const OwnedFrame& frame) {
  if (!IsRequestType(frame.type)) {
    // Counter bump in a narrow scope only: SendError blocks on the peer's
    // socket, and a peer that never drains must not wedge mu_ (and with it
    // the writer loop, admissions, and Stop) behind its write.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.protocol_errors;
    }
    obs::MetricsRegistry::Add(metrics_, "server.protocol_errors");
    SendError(conn, frame.request_id,
              InvalidArgumentError(StrCat(
                  "frame type ", static_cast<int>(frame.type),
                  " is a response type; clients send requests")));
    return true;
  }
  switch (frame.type) {
    case FrameType::kQuery:
      ServeQuery(conn, frame.request_id, frame.payload);
      return true;
    case FrameType::kTranslate:
      ServeTranslate(conn, frame.request_id, frame.payload);
      return true;
    case FrameType::kStats:
      ServeStats(conn, frame.request_id, frame.payload);
      return true;
    case FrameType::kApply:
    case FrameType::kProcess: {
      // Both carry {admission, transaction}; decode with the matching typed
      // decoder so a frame of one type cannot masquerade as the other.
      Admission admission;
      Transaction transaction;
      persist::CommitToken token;
      Status decoded;
      if (frame.type == FrameType::kApply) {
        Result<ApplyRequest> request =
            DecodeApplyRequest(frame.payload, &db_->symbols());
        decoded = request.status();
        if (request.ok()) {
          admission = request->admission;
          transaction = std::move(request->transaction);
          token = request->token;
        }
      } else {
        Result<ProcessRequest> request =
            DecodeProcessRequest(frame.payload, &db_->symbols());
        decoded = request.status();
        if (request.ok()) {
          admission = request->admission;
          transaction = std::move(request->transaction);
          token = request->token;
        }
      }
      if (!decoded.ok()) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++counters_.protocol_errors;
        }
        obs::MetricsRegistry::Add(metrics_, "server.protocol_errors");
        SendError(conn, frame.request_id, decoded);
        return true;
      }
      if (options_.replica_status != nullptr) {
        // Replica-serving: refuse up front with the same typed status the
        // facade's replica gate would produce, plus the non-retryable hint
        // for tokened clients — retrying here can never succeed, the write
        // belongs on the primary.
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++counters_.rejected_replica_writes;
        }
        obs::MetricsRegistry::Add(metrics_, "server.rejected_replica_writes");
        SendWriteError(conn, frame.request_id,
                       FailedPreconditionError(
                           "read-only replica: writes belong on the primary"),
                       token.present(), /*retryable=*/false);
        return true;
      }
      WriteJob job;
      job.kind = frame.type == FrameType::kApply ? WriteJob::Kind::kApply
                                                 : WriteJob::Kind::kProcess;
      job.request_id = frame.request_id;
      job.conn = conn;
      job.transaction = std::move(transaction);
      job.admission = admission;
      job.token = token;
      EnqueueWrite(conn, std::move(job));
      return true;
    }
    case FrameType::kHealth:
      ServeHealth(conn, frame.request_id, frame.payload);
      return true;
    case FrameType::kSubscribe:
      ServeSubscribe(conn, frame.request_id, frame.payload);
      return true;
    case FrameType::kUnsubscribe:
      ServeUnsubscribe(conn, frame.request_id, frame.payload);
      return true;
    case FrameType::kWalFetch:
    case FrameType::kWalSubscribe:
      ServeWalFetch(conn, frame.request_id, frame.payload,
                    frame.type == FrameType::kWalSubscribe);
      return true;
    case FrameType::kCheckpoint: {
      if (options_.replica_status != nullptr) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++counters_.rejected_replica_writes;
        }
        obs::MetricsRegistry::Add(metrics_, "server.rejected_replica_writes");
        SendError(conn, frame.request_id,
                  FailedPreconditionError(
                      "read-only replica: writes belong on the primary"));
        return true;
      }
      Result<Admission> admission = DecodeAdmissionOnly(frame.payload);
      if (!admission.ok()) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++counters_.protocol_errors;
        }
        obs::MetricsRegistry::Add(metrics_, "server.protocol_errors");
        SendError(conn, frame.request_id, admission.status());
        return true;
      }
      WriteJob job;
      job.kind = WriteJob::Kind::kCheckpoint;
      job.request_id = frame.request_id;
      job.conn = conn;
      job.admission = *admission;
      EnqueueWrite(conn, std::move(job));
      return true;
    }
    default:
      SendError(conn, frame.request_id,
                UnimplementedError("unhandled request type"));
      return true;
  }
}

// ---- Read path (connection thread) ------------------------------------------

ResourceLimits Server::LimitsFor(const Admission& admission,
                                 std::chrono::nanoseconds remaining) const {
  ResourceLimits limits;
  limits.deadline = remaining;
  limits.max_derived_facts = admission.max_derived_facts;
  limits.max_dnf_terms = admission.max_dnf_terms;
  return limits;
}

namespace {

/// Effective deadline in ms after the server-side cap: 0 = unlimited.
uint32_t EffectiveDeadlineMs(uint32_t requested, uint32_t cap) {
  if (cap == 0) return requested;
  if (requested == 0) return cap;
  return std::min(requested, cap);
}

}  // namespace

Result<const ResourceGuard*> Server::PinSession(
    const std::shared_ptr<ConnState>& conn, const Admission& admission) {
  // Re-pin when the committed version moved — the connection reads its own
  // acknowledged writes, while between commits the pinned snapshot (and its
  // query caches) is reused.
  if (conn->session == nullptr ||
      conn->session->version() != db_->version()) {
    DEDDB_ASSIGN_OR_RETURN(conn->session, db_->BeginSession());
  }
  const uint32_t deadline_ms =
      EffectiveDeadlineMs(admission.deadline_ms, options_.deadline_cap_ms);
  if (deadline_ms == 0 && admission.max_derived_facts == 0 &&
      admission.max_dnf_terms == 0) {
    conn->session->set_resource_guard(nullptr);
    return static_cast<const ResourceGuard*>(nullptr);
  }
  conn->guard.Restart(LimitsFor(
      admission, std::chrono::milliseconds(deadline_ms)));
  conn->session->set_resource_guard(&conn->guard);
  return static_cast<const ResourceGuard*>(&conn->guard);
}

void Server::ServeQuery(const std::shared_ptr<ConnState>& conn, uint64_t id,
                        std::string_view payload) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.requests_read;
  }
  obs::MetricsRegistry::Add(metrics_, "server.requests_read");
  Result<QueryRequest> request = DecodeQueryRequest(payload, &db_->symbols());
  if (!request.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.protocol_errors;
    }
    obs::MetricsRegistry::Add(metrics_, "server.protocol_errors");
    SendError(conn, id, request.status());
    return;
  }
  ReplicaInfo replica_info;
  if (options_.replica_status != nullptr) {
    replica_info = options_.replica_status->replica_status();
    if (request->max_staleness.has_value() &&
        (!replica_info.bounded ||
         replica_info.lag() > *request->max_staleness)) {
      // The bounded-staleness contract: too far behind (or unbounded with a
      // dead feed) means a typed, retryable rejection — the client backs
      // off and retries here, or falls over to a fresher server. Sending
      // max_staleness opted the client into the hint extension.
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.stale_rejections;
      }
      obs::MetricsRegistry::Add(metrics_, "server.stale_rejections");
      SendWriteError(
          conn, id,
          UnavailableError(
              replica_info.bounded
                  ? StrCat("replica lag of ", replica_info.lag(),
                           " records exceeds the requested bound of ",
                           *request->max_staleness)
                  : "replica feed is disconnected; staleness is unbounded"),
          /*tokened=*/true, /*retryable=*/true);
      return;
    }
  }
  Result<const ResourceGuard*> pinned =
      PinSession(conn, request->admission);
  if (!pinned.ok()) {
    SendError(conn, id, pinned.status());
    return;
  }
  Session& session = *conn->session;
  QueryReply reply;
  reply.version = session.version();
  if (options_.replica_status != nullptr) {
    reply.has_replica_status = true;
    reply.applied_seq = replica_info.applied_seq;
    reply.primary_last_durable_seq = replica_info.primary_last_durable_seq;
    reply.bounded = replica_info.bounded;
  }
  reply.answers.reserve(request->patterns.size());
  for (const Atom& pattern : request->patterns) {
    // Validate against the pinned schema so unknown predicates and arity
    // mismatches come back typed instead of as empty answers.
    Result<PredicateInfo> info =
        session.database().predicates().Get(pattern.predicate());
    if (!info.ok()) {
      SendError(conn, id,
                NotFoundError(StrCat(
                    "unknown predicate '",
                    db_->symbols().NameOf(pattern.predicate()), "'")));
      return;
    }
    if (info->arity != pattern.args().size()) {
      SendError(conn, id,
                InvalidArgumentError(StrCat(
                    "predicate '", db_->symbols().NameOf(pattern.predicate()),
                    "' has arity ", info->arity, ", pattern has ",
                    pattern.args().size())));
      return;
    }
    Result<std::vector<Tuple>> answers = session.Solve(pattern);
    if (!answers.ok()) {
      // Typed guard statuses (kDeadlineExceeded / kBudgetExceeded /
      // kCancelled) pass through to the error frame untouched.
      SendError(conn, id, answers.status());
      return;
    }
    reply.answers.push_back(std::move(*answers));
  }
  SendReply(conn, id, FrameType::kQueryOk,
            EncodeQueryReply(reply, db_->symbols()));
}

void Server::ServeTranslate(const std::shared_ptr<ConnState>& conn,
                            uint64_t id, std::string_view payload) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.requests_read;
  }
  obs::MetricsRegistry::Add(metrics_, "server.requests_read");
  Result<TranslateRequest> request =
      DecodeTranslateRequest(payload, &db_->symbols());
  if (!request.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.protocol_errors;
    }
    obs::MetricsRegistry::Add(metrics_, "server.protocol_errors");
    SendError(conn, id, request.status());
    return;
  }
  Result<const ResourceGuard*> pinned =
      PinSession(conn, request->admission);
  if (!pinned.ok()) {
    SendError(conn, id, pinned.status());
    return;
  }
  Session& session = *conn->session;
  for (const RequestedEvent& event : request->request.events) {
    if (!session.database().predicates().Get(event.predicate).ok()) {
      SendError(conn, id,
                NotFoundError(StrCat("unknown predicate '",
                                     db_->symbols().NameOf(event.predicate),
                                     "'")));
      return;
    }
  }
  Result<problems::DownwardResult> result =
      session.TranslateViewUpdate(request->request);
  if (!result.ok()) {
    SendError(conn, id, result.status());
    return;
  }
  TranslateReply reply;
  reply.approximate = result->approximate;
  reply.alternatives.reserve(result->translations.size());
  for (const problems::Translation& translation : result->translations) {
    reply.alternatives.push_back(translation.transaction);
  }
  SendReply(conn, id, FrameType::kTranslateOk,
            EncodeTranslateReply(reply, db_->symbols()));
}

void Server::ServeStats(const std::shared_ptr<ConnState>& conn, uint64_t id,
                        std::string_view payload) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.requests_read;
  }
  obs::MetricsRegistry::Add(metrics_, "server.requests_read");
  Result<Admission> admission = DecodeAdmissionOnly(payload);
  if (!admission.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.protocol_errors;
    }
    obs::MetricsRegistry::Add(metrics_, "server.protocol_errors");
    SendError(conn, id, admission.status());
    return;
  }
  StatsReply reply;
  reply.json = StatsJson();
  SendReply(conn, id, FrameType::kStatsOk, EncodeStatsReply(reply));
}

void Server::ServeHealth(const std::shared_ptr<ConnState>& conn, uint64_t id,
                         std::string_view payload) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.requests_read;
  }
  obs::MetricsRegistry::Add(metrics_, "server.requests_read");
  Result<HealthRequest> request = DecodeHealthRequest(payload);
  if (!request.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.protocol_errors;
    }
    obs::MetricsRegistry::Add(metrics_, "server.protocol_errors");
    SendError(conn, id, request.status());
    return;
  }
  HealthReply reply;
  {
    std::lock_guard<std::mutex> lock(mu_);
    reply.state = stopping_ ? ServerState::kStopping
                            : (degraded_ ? ServerState::kDegraded
                                         : ServerState::kServing);
    reply.queue_depth =
        static_cast<uint32_t>(write_queue_.size() + writes_in_flight_);
  }
  reply.version = db_->version();
  if (persist::PersistenceManager* persistence = db_->persistence()) {
    reply.last_durable_seq = persistence->stats().last_seq;
  }
  if (request->want_subscriptions) {
    const sub::ManagerStats stats = subs_.Stats();
    reply.has_subscriptions = true;
    reply.active_subscriptions = static_cast<uint32_t>(stats.active);
    reply.queued_deltas = stats.queued_batches;
    reply.gap_events = stats.gap_events;
  }
  if (options_.replica_status != nullptr) {
    // The small print of the staleness contract: a replica has no local
    // log, so last_durable_seq above stays 0 — the replication block is
    // where its position (and the primary horizon it knows of) becomes
    // observable, which is what makes max_staleness rejections diagnosable.
    const ReplicaInfo info = options_.replica_status->replica_status();
    reply.has_replication = true;
    reply.applied_seq = info.applied_seq;
    reply.primary_last_durable_seq = info.primary_last_durable_seq;
    reply.feed_bounded = info.bounded;
  }
  SendReply(conn, id, FrameType::kHealthOk, EncodeHealthReply(reply));
}

// ---- Standing queries (DESIGN.md §11) ---------------------------------------

void Server::ServeSubscribe(const std::shared_ptr<ConnState>& conn,
                            uint64_t id, std::string_view payload) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.requests_read;
  }
  obs::MetricsRegistry::Add(metrics_, "server.requests_read");
  Result<SubscribeRequest> request =
      DecodeSubscribeRequest(payload, &db_->symbols());
  if (!request.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.protocol_errors;
    }
    obs::MetricsRegistry::Add(metrics_, "server.protocol_errors");
    SendError(conn, id, request.status());
    return;
  }
  const Atom& pattern = request->pattern;
  // Not db_->database().predicates() directly: a concurrent commit may be
  // registering event-rule variants in the table right now.
  Result<PredicateInfo> info = db_->PredicateInfoFor(pattern.predicate());
  if (!info.ok()) {
    SendError(conn, id,
              NotFoundError(StrCat("unknown predicate '",
                                   db_->symbols().NameOf(pattern.predicate()),
                                   "'")));
    return;
  }
  if (info->variant != PredicateVariant::kOld) {
    SendError(conn, id,
              InvalidArgumentError(StrCat(
                  "cannot subscribe to decorated predicate '",
                  db_->symbols().NameOf(pattern.predicate()),
                  "'; subscribe to the state predicate itself")));
    return;
  }
  if (info->arity != pattern.args().size()) {
    SendError(conn, id,
              InvalidArgumentError(StrCat(
                  "predicate '", db_->symbols().NameOf(pattern.predicate()),
                  "' has arity ", info->arity, ", pattern has ",
                  pattern.args().size())));
    return;
  }
  if (subs_.OwnerSubscriptions(conn->owner) >=
      options_.max_subscriptions_per_connection) {
    SendError(conn, id,
              ResourceExhaustedError(StrCat(
                  "per-connection subscription quota of ",
                  options_.max_subscriptions_per_connection, " exceeded")));
    return;
  }

  sub::SubscriptionSpec spec;
  spec.predicate = pattern.predicate();
  spec.filter.reserve(pattern.args().size());
  for (const Term& term : pattern.args()) {
    if (term.is_constant()) {
      spec.filter.emplace_back(term.constant());
    } else {
      spec.filter.emplace_back(std::nullopt);
    }
  }
  spec.derived = info->kind == PredicateKind::kDerived;
  spec.policy = request->policy;
  spec.max_queued = request->max_queued != 0 ? request->max_queued
                                             : options_.sub_queue_depth;

  // Two-phase handshake (see SubscriptionManager): register first so every
  // commit from here on queues its delta, then pin the stream's start
  // point, reply, and only then activate — so no push can overtake the
  // SubscribeOk frame on the wire.
  const uint64_t sub_id = subs_.Register(spec, conn->owner);
  SubscribeReply reply;
  reply.sub_id = sub_id;
  if (request->resume_from_version != 0 &&
      subs_.TryStageResume(sub_id, request->resume_from_version)) {
    reply.version = request->resume_from_version;
    reply.resumed = true;
    SendReply(conn, id, FrameType::kSubscribeOk,
              EncodeSubscribeReply(reply, db_->symbols()));
    subs_.Activate(sub_id, request->resume_from_version);
    return;
  }
  // Fresh snapshot: evaluate the pattern against a pinned session. The
  // snapshot version fences the stream — queued deltas at or below it are
  // already contained in the snapshot and get dropped by Activate.
  Result<const ResourceGuard*> pinned = PinSession(conn, request->admission);
  if (!pinned.ok()) {
    subs_.Cancel(sub_id, conn->owner);
    SendError(conn, id, pinned.status());
    return;
  }
  Result<std::vector<Tuple>> answers = conn->session->Solve(pattern);
  if (!answers.ok()) {
    subs_.Cancel(sub_id, conn->owner);
    SendError(conn, id, answers.status());
    return;
  }
  sub::SortUnique(&*answers);
  reply.version = conn->session->version();
  reply.snapshot = std::move(*answers);
  SendReply(conn, id, FrameType::kSubscribeOk,
            EncodeSubscribeReply(reply, db_->symbols()));
  subs_.Activate(sub_id, reply.version);
}

void Server::ServeUnsubscribe(const std::shared_ptr<ConnState>& conn,
                              uint64_t id, std::string_view payload) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.requests_read;
  }
  obs::MetricsRegistry::Add(metrics_, "server.requests_read");
  Result<UnsubscribeRequest> request = DecodeUnsubscribeRequest(payload);
  if (!request.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.protocol_errors;
    }
    obs::MetricsRegistry::Add(metrics_, "server.protocol_errors");
    SendError(conn, id, request.status());
    return;
  }
  UnsubscribeReply reply;
  // Owner-checked: a connection can only cancel its own subscriptions, so
  // a guessed id from another client answers existed=false, not a cancel.
  reply.existed = subs_.Cancel(request->sub_id, conn->owner);
  SendReply(conn, id, FrameType::kUnsubscribeOk,
            EncodeUnsubscribeReply(reply));
}

void Server::PusherLoop() {
  for (;;) {
    std::optional<sub::PushItem> item = subs_.WaitPop();
    if (!item.has_value()) return;  // Shutdown()
    if (options_.pusher_stall_for_test) options_.pusher_stall_for_test();
    std::shared_ptr<ConnState> conn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = owners_.find(item->owner);
      if (it != owners_.end()) conn = it->second.lock();
    }
    if (conn == nullptr) {
      // The connection retired between pop and route; drop the rest of its
      // subscriptions too (CancelOwner is idempotent).
      subs_.CancelOwner(item->owner);
      continue;
    }
    if (item->is_gap) {
      SubGapFrame frame;
      frame.sub_id = item->sub_id;
      frame.version = item->version;
      frame.reason = item->reason;
      SendReply(conn, 0, FrameType::kSubGap, EncodeSubGapFrame(frame));
    } else {
      PushDeltaFrame frame;
      frame.sub_id = item->sub_id;
      frame.version = item->batch.version;
      frame.inserts = std::move(item->batch.inserts);
      frame.deletes = std::move(item->batch.deletes);
      SendReply(conn, 0, FrameType::kPushDelta,
                EncodePushDeltaFrame(frame, db_->symbols()));
    }
  }
}

// ---- Write path (admission queue + writer thread) ---------------------------

// ---- Replica feed (DESIGN.md §12) -------------------------------------------

void Server::ServeWalFetch(const std::shared_ptr<ConnState>& conn,
                           uint64_t id, std::string_view payload,
                           bool long_poll) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.requests_read;
  }
  obs::MetricsRegistry::Add(metrics_, "server.requests_read");
  Result<WalFetchRequest> request = DecodeWalFetchRequest(payload);
  if (!request.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.protocol_errors;
    }
    obs::MetricsRegistry::Add(metrics_, "server.protocol_errors");
    SendError(conn, id, request.status());
    return;
  }
  persist::PersistenceManager* persistence = db_->persistence();
  if (persistence == nullptr) {
    SendError(conn, id,
              FailedPreconditionError(
                  "this server has no durable log to ship (in-memory "
                  "database or replica); point the feed at the primary"));
    return;
  }
  const size_t max_records = request->max_records != 0
                                 ? request->max_records
                                 : options_.feed_max_records;
  // Bound the batch's payload bytes well under the frame cap: the reply
  // adds framing (CRCs, length prefixes, the horizon) on top.
  const uint32_t bytes_cap = kMaxFramePayloadBytes / 2;
  uint32_t max_bytes =
      request->max_bytes != 0 ? request->max_bytes : options_.feed_max_bytes;
  max_bytes = std::min(max_bytes, bytes_cap);
  if (long_poll &&
      persistence->settled_seq() <= request->from_seq) {
    // Park in bounded slices off mu_ until a write settles past the cursor,
    // the poll window lapses, or the server stops. Each acknowledged write
    // rings repl_cv_ (FinishAck); the slices bound the staleness of
    // a missed wakeup (e.g. a commit made directly on the facade).
    uint32_t window_ms = options_.feed_poll_ms;
    if (request->admission.deadline_ms != 0) {
      window_ms = std::min(window_ms, request->admission.deadline_ms);
    }
    const Clock::time_point give_up =
        Clock::now() + std::chrono::milliseconds(window_ms);
    std::unique_lock<std::mutex> repl_lock(repl_mu_);
    while (persistence->settled_seq() <= request->from_seq &&
           !repl_stop_.load(std::memory_order_acquire) &&
           Clock::now() < give_up) {
      repl_cv_.wait_for(repl_lock, std::chrono::milliseconds(50));
    }
  }
  Result<persist::PersistenceManager::FeedBatch> batch =
      persistence->ReadFeedRecords(request->from_seq, max_records, max_bytes);
  if (!batch.ok()) {
    // kNotFound: a checkpoint truncated history past the cursor — the
    // replica must re-seed from a snapshot. Typed, so the tailer can tell
    // this apart from transient failures.
    SendError(conn, id, batch.status());
    return;
  }
  WalRecordsReply reply;
  reply.primary_last_durable_seq = batch->last_durable_seq;
  reply.records.reserve(batch->records.size());
  for (persist::PersistenceManager::FeedRecord& record : batch->records) {
    reply.records.push_back(
        WalRecordsReply::Record{record.crc, std::move(record.payload)});
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.feed_fetches;
    counters_.feed_records_shipped += reply.records.size();
  }
  obs::MetricsRegistry::Add(metrics_, "server.feed_fetches");
  obs::MetricsRegistry::Add(metrics_, "server.feed_records_shipped",
                            reply.records.size());
  SendReply(conn, id,
            long_poll ? FrameType::kWalSubscribeOk : FrameType::kWalRecords,
            EncodeWalRecordsReply(reply));
}

void Server::EnqueueWrite(const std::shared_ptr<ConnState>& conn,
                          WriteJob job) {
  job.admitted_at = Clock::now();
  const uint32_t deadline_ms = EffectiveDeadlineMs(
      job.admission.deadline_ms, options_.deadline_cap_ms);
  if (deadline_ms > 0) {
    job.has_deadline = true;
    job.deadline_at = job.admitted_at + std::chrono::milliseconds(deadline_ms);
  }
  // The rejection kind travels as its own enum (not parsed back out of the
  // status text) so rewording a message can never misclassify the metric.
  enum class Reject { kNone, kShutdown, kDegraded, kQuota, kOverload };
  Reject reject = Reject::kNone;
  Status rejection;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.requests_write;
    if (stopping_) {
      ++counters_.rejected_shutdown;
      reject = Reject::kShutdown;
      rejection = FailedPreconditionError("server shutting down");
    } else if (degraded_) {
      ++counters_.rejected_degraded;
      reject = Reject::kDegraded;
      rejection = UnavailableError(
          "server is read-only: commit durability failed; reads keep "
          "serving, writes require reopening the database");
    } else if (conn->pending_writes >=
               options_.max_pending_writes_per_connection) {
      ++counters_.rejected_quota;
      reject = Reject::kQuota;
      rejection = ResourceExhaustedError(
          StrCat("per-connection write quota of ",
                 options_.max_pending_writes_per_connection, " exceeded"));
    } else if (write_queue_.size() + acks_.size() >=
               options_.write_queue_depth) {
      // Every admitted, unacknowledged write except the writer's own job
      // counts, so staged commits cannot stretch the bound.
      ++counters_.rejected_overload;
      reject = Reject::kOverload;
      rejection = ResourceExhaustedError(
          StrCat("server overloaded: write queue full at ",
                 options_.write_queue_depth));
    } else {
      ++conn->pending_writes;
      write_queue_.push_back(std::move(job));
      obs::MetricsRegistry::Set(
          metrics_, "server.queue_depth",
          static_cast<int64_t>(write_queue_.size() + writes_in_flight_));
    }
  }
  obs::MetricsRegistry::Add(metrics_, "server.requests_write");
  if (reject != Reject::kNone) {
    const char* metric = "server.rejected_overload";
    switch (reject) {
      case Reject::kShutdown: metric = "server.rejected_shutdown"; break;
      case Reject::kDegraded: metric = "server.rejected_degraded"; break;
      case Reject::kQuota: metric = "server.rejected_quota"; break;
      default: break;
    }
    obs::MetricsRegistry::Add(metrics_, metric);
    // Quota and overload are transient (capacity frees up); degradation and
    // shutdown are not — this process will never admit the write again.
    const bool retryable =
        reject == Reject::kQuota || reject == Reject::kOverload;
    SendWriteError(conn, job.request_id, rejection, job.token.present(),
                   retryable);
    return;
  }
  queue_cv_.notify_one();
}

void Server::WriterLoop() {
  for (;;) {
    WriteJob job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock,
                     [&] { return stopping_ || !write_queue_.empty(); });
      if (write_queue_.empty()) {
        // stopping_ and drained; nothing will be admitted past this point.
        writer_done_ = true;
        ack_cv_.notify_all();
        return;
      }
      job = std::move(write_queue_.front());
      write_queue_.pop_front();
      ++writes_in_flight_;
      // A checkpoint is a barrier: its snapshot must not capture a staged
      // commit whose flush may still fail, so it waits until every ack
      // ahead of it is finished (a lost commit has poisoned the facade).
      if (job.kind == WriteJob::Kind::kCheckpoint) {
        queue_cv_.wait(lock, [&] { return acks_.empty(); });
      }
      obs::MetricsRegistry::Set(
          metrics_, "server.queue_depth",
          static_cast<int64_t>(write_queue_.size() + writes_in_flight_));
    }
    const Clock::time_point start = Clock::now();
    obs::MetricsRegistry::Observe(
        metrics_, "server.queue_wait_us",
        std::chrono::duration_cast<std::chrono::microseconds>(
            start - job.admitted_at)
            .count());
    if (options_.writer_stall_for_test) options_.writer_stall_for_test();
    Ack ack = Ack::For(job);
    if (job.has_deadline && Clock::now() >= job.deadline_at) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.deadline_expired_in_queue;
      }
      obs::MetricsRegistry::Add(metrics_, "server.deadline_expired_in_queue");
      // Not retryable: the deadline was the client's whole budget for this
      // request, and it is spent.
      db_->RecordRejectedToken(job.token);
      ack.Fail(DeadlineExceededError(
                   "request deadline expired in the admission queue"),
               /*retry=*/false);
    } else {
      // Re-arm the facade guard for this job: remaining deadline (admission
      // time counts) plus the request's budgets. Only writer-thread
      // evaluations observe this guard.
      std::chrono::nanoseconds remaining{0};
      if (job.has_deadline) {
        remaining = std::max<std::chrono::nanoseconds>(
            job.deadline_at - Clock::now(), std::chrono::nanoseconds(1));
      }
      writer_guard_.Restart(LimitsFor(job.admission, remaining));
      ExecuteWrite(job, &ack);
      if (!ack.staged.has_value() && ack.rests_on == 0) {
        ack.rests_on = db_->version();
      }
      // The writer's own time: a staged Apply's durability wait is
      // server.durable_wait_us.
      obs::MetricsRegistry::Observe(
          metrics_, "server.write_exec_us",
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - start)
              .count());
    }
    Deliver(std::move(ack));
  }
}

void Server::Deliver(Ack ack) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Behind an ack still in flight the reply must wait its turn; a staged
    // Apply with more jobs queued is handed off so the writer can stage
    // them into the same fsync.
    const bool waits = ack.staged.has_value() && ack.staged->prepared;
    if (!acks_.empty() || (waits && !write_queue_.empty())) {
      acks_.push_back(std::move(ack));
      ack_cv_.notify_one();
      return;
    }
  }
  // Light load: nothing in flight, nothing to overlap — reply in place.
  FinishAck(ack);
}

void Server::AckLoop() {
  for (;;) {
    Ack ack;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ack_cv_.wait(lock, [&] { return writer_done_ || !acks_.empty(); });
      if (acks_.empty()) return;
      // The husk stays at the front while the ack is finished, so the
      // writer sees the stream busy and queues behind it.
      ack = std::move(acks_.front());
    }
    FinishAck(ack);
    {
      std::lock_guard<std::mutex> lock(mu_);
      acks_.pop_front();
      if (acks_.empty()) queue_cv_.notify_one();  // a checkpoint may wait
    }
  }
}

void Server::FinishAck(Ack& ack) {
  if (ack.staged.has_value()) {
    Status durable = db_->FinishApply(*ack.staged);
    if (ack.staged->prepared) {
      obs::MetricsRegistry::Observe(
          metrics_, "server.durable_wait_us",
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - ack.staged_at)
              .count());
    }
    if (durable.ok()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.writes_applied;
      }
      obs::MetricsRegistry::Add(metrics_, "server.writes_applied");
    } else {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.writes_rejected;
      }
      obs::MetricsRegistry::Add(metrics_, "server.writes_rejected");
      NoteCommitHealth();
      ack.Fail(std::move(durable), /*retry=*/false);
    }
  } else {
    // Every ack ahead of this one is settled: a reply decided in a state
    // that held a lost commit (a duplicate of it, a rejection or Process
    // verdict computed on top of it) gets that loss instead.
    Status lost = db_->LossBehind(ack.rests_on);
    if (!lost.ok()) ack.Fail(std::move(lost), /*retry=*/false);
  }
  // Release the job before its reply goes out, so a client that has the
  // reply never finds its quota or the queue depth still holding it.
  // (Stop() joins the writer and the durability stage after the drain, so
  // the reply is still written before Stop() returns.)
  {
    std::lock_guard<std::mutex> lock(mu_);
    --writes_in_flight_;
    if (ack.conn->pending_writes > 0) --ack.conn->pending_writes;
    obs::MetricsRegistry::Set(
        metrics_, "server.queue_depth",
        static_cast<int64_t>(write_queue_.size() + writes_in_flight_));
    drained_cv_.notify_all();
  }
  if (ack.type == FrameType::kError) {
    SendWriteError(ack.conn, ack.request_id, ack.error, ack.tokened,
                   ack.retryable);
  } else {
    SendReply(ack.conn, ack.request_id, ack.type, ack.payload);
  }
  // Wake feed long-polls: the write may have settled new records. The
  // empty lock pairs with the waiter's predicate re-check, so a wakeup
  // cannot be lost between its check and its wait.
  {
    std::lock_guard<std::mutex> repl_lock(repl_mu_);
  }
  repl_cv_.notify_all();
}

bool Server::AnswerFromDedup(const WriteJob& job, const DedupResult& dedup,
                             Ack* ack) {
  switch (dedup.verdict) {
    case DedupVerdict::kFresh:
      return false;
    case DedupVerdict::kDuplicate: {
      // A retry of a write that already committed: answer with the original
      // reply (the version its commit produced), never a second apply —
      // this is the exactly-once half the client's retry loop relies on.
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.dedup_hits;
      }
      obs::MetricsRegistry::Add(metrics_, "server.dedup_hits");
      ack->rests_on = dedup.version;
      if (job.kind == WriteJob::Kind::kApply) {
        ack->type = FrameType::kApplyOk;
        ack->payload = EncodeApplyReply(ApplyReply{dedup.version});
      } else {
        ProcessReply reply;
        reply.version = dedup.version;
        reply.accepted = true;  // only accepted commits are recorded
        ack->type = FrameType::kProcessOk;
        ack->payload = EncodeProcessReply(reply);
      }
      return true;
    }
    case DedupVerdict::kTooOld:
    case DedupVerdict::kRejected:
      ack->Fail(DedupRefusal(dedup.verdict, job.token), /*retry=*/false);
      return true;
  }
  return false;
}

void Server::ExecuteWrite(const WriteJob& job, Ack* ack_out) {
  Ack& ack = *ack_out;
  // Every rejection of a tokened write is final for its client, so the
  // token is tombstoned: a stale copy admitted later is refused, not run.
  auto rejected = [&](Status status) {
    db_->RecordRejectedToken(job.token);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.writes_rejected;
    }
    obs::MetricsRegistry::Add(metrics_, "server.writes_rejected");
    NoteCommitHealth();
    ack.Fail(std::move(status), /*retry=*/false);
  };
  switch (job.kind) {
    case WriteJob::Kind::kApply: {
      // One commit-lock hold: dedup lookup, validation, log staging and the
      // in-memory apply. The durability wait is FinishAck's.
      Result<DeductiveDatabase::StagedApply> staged =
          db_->StageApply(job.transaction, job.token);
      if (!staged.ok()) {
        rejected(staged.status());
      } else if (!AnswerFromDedup(
                     job, DedupResult{staged->verdict, staged->version},
                     &ack)) {
        ack.type = FrameType::kApplyOk;
        ack.payload = EncodeApplyReply(ApplyReply{staged->version});
        ack.staged = std::move(*staged);
        ack.staged_at = Clock::now();
      }
      return;
    }
    case WriteJob::Kind::kProcess: {
      // Synchronous: the processor's LogCommit waits for its own record,
      // which is durable only after every record staged before it.
      if (job.token.present() &&
          AnswerFromDedup(job, db_->LookupCommitToken(job.token), &ack)) {
        return;
      }
      UpdateProcessor processor(db_);
      processor.set_commit_token(job.token);
      Result<UpdateProcessor::TransactionReport> report =
          processor.ProcessTransaction(job.transaction);
      if (!report.ok()) {
        rejected(report.status());
        return;
      }
      ProcessReply reply;
      reply.version = db_->version();
      reply.accepted = report->accepted;
      ack.rests_on = reply.version;
      if (!report->accepted) {
        db_->RecordRejectedToken(job.token);
        reply.detail = report->ToString(db_->symbols());
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++counters_.writes_rejected;
        }
        obs::MetricsRegistry::Add(metrics_, "server.writes_rejected");
      } else {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++counters_.writes_applied;
        }
        obs::MetricsRegistry::Add(metrics_, "server.writes_applied");
      }
      ack.type = FrameType::kProcessOk;
      ack.payload = EncodeProcessReply(reply);
      return;
    }
    case WriteJob::Kind::kCheckpoint: {
      Status checkpointed = db_->Checkpoint();
      if (!checkpointed.ok()) {
        NoteCommitHealth();
        ack.Fail(std::move(checkpointed), /*retry=*/false);
        return;
      }
      ack.type = FrameType::kCheckpointOk;
      ack.payload = EncodeCheckpointReply(CheckpointReply{db_->version()});
      return;
    }
  }
}

// ---- Response writing -------------------------------------------------------

void Server::NoteCommitHealth() {
  if (db_->commit_health().ok()) return;
  bool entered = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!degraded_) {
      degraded_ = true;
      entered = true;
    }
  }
  if (entered) {
    obs::MetricsRegistry::Set(metrics_, "server.degraded", 1);
  }
}

void Server::SendError(const std::shared_ptr<ConnState>& conn, uint64_t id,
                       const Status& status) {
  if (IsGuardTrip(status.code())) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.guard_trips;
    }
    obs::MetricsRegistry::Add(metrics_, "server.guard_trips");
  }
  ErrorReply reply{status.code(), status.message()};
  SendReply(conn, id, FrameType::kError, EncodeErrorReply(reply));
}

void Server::SendWriteError(const std::shared_ptr<ConnState>& conn,
                            uint64_t id, const Status& status, bool tokened,
                            bool retryable) {
  if (!tokened) {
    // v1 requester: the bare error frame it knows how to parse.
    SendError(conn, id, status);
    return;
  }
  if (IsGuardTrip(status.code())) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.guard_trips;
    }
    obs::MetricsRegistry::Add(metrics_, "server.guard_trips");
  }
  ErrorReply reply{status.code(), status.message()};
  reply.set_retryable(retryable);
  SendReply(conn, id, FrameType::kError, EncodeErrorReply(reply));
}

void Server::SendReply(const std::shared_ptr<ConnState>& conn, uint64_t id,
                       FrameType type, std::string_view payload) {
  // A reply the framing cannot carry is downgraded to a typed error (error
  // frames are small, so the recursion terminates): the client learns the
  // result was too large and can narrow the request, instead of its
  // ReadFrame killing the connection over a "malformed frame".
  if (type != FrameType::kError && payload.size() > kMaxFramePayloadBytes) {
    SendError(conn, id,
              ResourceExhaustedError(StrCat(
                  "reply of ", payload.size(), " bytes exceeds the ",
                  kMaxFrameBytes, "-byte frame limit; narrow the request")));
    return;
  }
  std::lock_guard<std::mutex> lock(conn->write_mu);
  // A failed response write means the peer went away; the reader loop will
  // observe the closed stream and retire the connection.
  (void)WriteFrame(conn->conn.get(), type, id, payload);
}

}  // namespace deddb::server
