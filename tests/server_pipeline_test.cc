// The pipelined durable write path (DESIGN.md §9, §10): the writer thread
// stages Applies (validated, logged, applied in memory) while the
// durability stage waits for their fsync and sends every write reply in
// staging order, so concurrent commits share fsyncs.
//
// Every scenario is made deterministic with two seams and no sleeps: the
// writer is parked on a latch (ServerOptions::writer_stall_for_test) while
// the queue is filled in a known admission order, and the server side of
// the first accepted connection holds its writes behind a gate, which
// parks the durability stage on that connection's reply while the writer
// stages everything behind it.
//
// Contracts covered: (a) staged commits share fsyncs and get distinct,
// admission-ordered versions; (b) an fsync failure acknowledges nothing in
// or after the failed flush, degrades the server, and a reopen recovers
// exactly the acknowledged prefix; (c) a retry of an in-flight token is
// answered after, and with, its original's durability verdict; (d) Stop()
// drains staged commits, and the in-flight count and per-connection quota
// hold a write until it is acknowledged; (e) one connection's Apply,
// Process, Apply replies arrive in that order; (f) a checkpoint waits for
// the staged commits ahead of it to settle; (g) a stale copy of a rejected
// tokened write, admitted after its retry, is refused; (h) a copy of a
// committed write that is rejected on its own never turns the commit into
// a refusal; (i) a verdict decided on top of a commit whose flush then
// fails is answered with that loss.

#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/deductive_database.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/transport.h"
#include "util/resource_guard.h"
#include "util/strings.h"

namespace deddb::server {
namespace {

/// A reusable gate: Pass() blocks until Open(); Await() waits until some
/// thread is blocked in Pass().
class Gate {
 public:
  void Pass() {
    std::unique_lock<std::mutex> lock(mu_);
    ++waiting_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
    --waiting_;
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  void Await() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return waiting_ > 0 || open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int waiting_ = 0;
  bool open_ = false;
};

/// The order in which the server wrote frames, as accepted-connection
/// indexes (one entry per frame: WriteFrame issues one Write per frame).
class WriteLog {
 public:
  void Add(int conn) {
    std::lock_guard<std::mutex> lock(mu_);
    order_.push_back(conn);
  }
  std::vector<int> order() const {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<int> order_;
};

/// Server side of an accepted connection: logs each frame written and, for
/// the gated connection, holds the write until the gate opens.
class LoggedConnection : public Connection {
 public:
  LoggedConnection(std::unique_ptr<Connection> inner, int index, Gate* gate,
                   WriteLog* log)
      : inner_(std::move(inner)), index_(index), gate_(gate), log_(log) {}

  Result<size_t> Read(char* buf, size_t len) override {
    return inner_->Read(buf, len);
  }
  Status Write(const char* buf, size_t len) override {
    if (gate_ != nullptr) gate_->Pass();
    // Logged before the bytes go out, so a reader that has the frame also
    // sees its log entry.
    log_->Add(index_);
    return inner_->Write(buf, len);
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<Connection> inner_;
  int index_;
  Gate* gate_;
  WriteLog* log_;
};

/// Numbers accepted connections 0, 1, ... and gates connection 0's writes.
class LoggedListener : public Listener {
 public:
  LoggedListener(std::unique_ptr<Listener> inner, Gate* gate, WriteLog* log)
      : inner_(std::move(inner)), gate_(gate), log_(log) {}

  Result<std::unique_ptr<Connection>> Accept() override {
    DEDDB_ASSIGN_OR_RETURN(std::unique_ptr<Connection> conn,
                           inner_->Accept());
    const int index = next_++;
    return std::unique_ptr<Connection>(new LoggedConnection(
        std::move(conn), index, index == 0 ? gate_ : nullptr, log_));
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<Listener> inner_;
  Gate* gate_;
  WriteLog* log_;
  int next_ = 0;  // only the accept thread calls Accept
};

std::string ApplyPayload(Client* client, const std::string& constant,
                         uint64_t client_id, uint64_t request_seq) {
  ApplyRequest request;
  request.token = persist::CommitToken{client_id, request_seq};
  EXPECT_TRUE(
      request.transaction.AddInsert(client->GroundAtom("Q", {constant}))
          .ok());
  return EncodeApplyRequest(request, client->symbols());
}

std::string ApplyPayloadWithDeadline(Client* client,
                                     const std::string& constant,
                                     uint64_t client_id, uint64_t request_seq,
                                     uint32_t deadline_ms) {
  ApplyRequest request;
  request.admission.deadline_ms = deadline_ms;
  request.token = persist::CommitToken{client_id, request_seq};
  EXPECT_TRUE(
      request.transaction.AddInsert(client->GroundAtom("Q", {constant}))
          .ok());
  return EncodeApplyRequest(request, client->symbols());
}

std::string ProcessPayload(Client* client, const std::string& constant) {
  ProcessRequest request;
  EXPECT_TRUE(
      request.transaction.AddInsert(client->GroundAtom("Q", {constant}))
          .ok());
  return EncodeProcessRequest(request, client->symbols());
}

uint64_t ApplyVersion(const Result<OwnedFrame>& frame) {
  EXPECT_TRUE(frame.ok()) << frame.status().ToString();
  if (!frame.ok()) return 0;
  EXPECT_EQ(frame->type, FrameType::kApplyOk);
  Result<ApplyReply> reply = DecodeApplyReply(frame->payload);
  EXPECT_TRUE(reply.ok());
  return reply.ok() ? reply->version : 0;
}

/// Expects a typed, hinted non-retryable error frame.
void ExpectFinalError(const Result<OwnedFrame>& frame) {
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, FrameType::kError);
  Result<ErrorReply> error = DecodeErrorReply(frame->payload);
  ASSERT_TRUE(error.ok());
  EXPECT_NE(error->code, StatusCode::kOk);
  EXPECT_TRUE(error->has_retry_hint());
  EXPECT_FALSE(error->retryable()) << error->message;
}

uint64_t JsonCounter(const std::string& json, const std::string& key) {
  const std::string needle = StrCat("\"", key, "\":");
  size_t at = json.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

/// A persistent database with schema Q/1 (checkpointed) and one fact Q(p)
/// committed on the facade, a metrics sink on both the facade and the
/// server, and a server whose writer parks on `stall_` and whose connection
/// 0 writes pass `gate_`.
class ServerPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl = StrCat(::testing::TempDir(), "pipelineXXXXXX");
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(::mkdtemp(buf.data()), nullptr);
    dir_ = buf.data();
    OpenDb();
    ASSERT_TRUE(db_->DeclareBase("Q", 1).ok());
    ASSERT_TRUE(db_->Checkpoint().ok());
    Transaction txn;
    ASSERT_TRUE(txn.AddInsert(db_->GroundAtom("Q", {"p"}).value()).ok());
    ASSERT_TRUE(db_->Apply(txn).ok());
  }

  void TearDown() override {
    FaultInjector::Instance().Disarm();
    stall_.Open();
    gate_.Open();
    if (server_ != nullptr) server_->Stop();
    clients_.clear();
    server_.reset();
    db_.reset();
    ASSERT_EQ(std::system(StrCat("rm -rf ", dir_).c_str()), 0);
  }

  void OpenDb() {
    auto opened = DeductiveDatabase::OpenPersistent(dir_);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db_ = std::move(*opened);
    db_->set_observability({nullptr, &metrics_});
  }

  void StartServer(ServerOptions options = {}) {
    options.obs.metrics = &metrics_;
    options.writer_stall_for_test = [this] { stall_.Pass(); };
    server_ = std::make_unique<Server>(db_.get(), std::move(options));
    ASSERT_TRUE(server_
                    ->Serve(std::make_unique<LoggedListener>(
                        network_.TakeListener(), &gate_, &log_))
                    .ok());
  }

  /// Connects `n` clients; the loopback accepts in dial order, so client i
  /// is accepted connection i (connection 0 is the gated one).
  void Connect(int n) {
    for (int i = 0; i < n; ++i) {
      Result<std::unique_ptr<Connection>> conn = network_.Connect();
      ASSERT_TRUE(conn.ok());
      clients_.push_back(std::make_unique<Client>(std::move(*conn)));
    }
  }

  /// Sends one write frame and waits until it is admitted, so admission
  /// order is send order (the writer is parked, or busy behind a parked
  /// job).
  void Admit(int client, FrameType type, const std::string& payload) {
    const size_t before = server_->queue_depth();
    ASSERT_TRUE(clients_[client]->SendRaw(type, payload).ok());
    while (server_->queue_depth() < before + 1) std::this_thread::yield();
  }

  /// Sends one write frame and waits until the writer has executed it
  /// (the commit version moved). Returns the request id.
  uint64_t SendAndStage(int client, FrameType type,
                        const std::string& payload) {
    const uint64_t before = db_->version();
    Result<uint64_t> id = clients_[client]->SendRaw(type, payload);
    EXPECT_TRUE(id.ok());
    while (db_->version() <= before) std::this_thread::yield();
    return id.ok() ? *id : 0;
  }

  /// Parks the durability stage on connection 0's reply: connection 0's
  /// Apply of `constant` is staged while a write the writer rejects (Q(p)
  /// already holds, so it never reaches the log) is queued behind it, so
  /// it is handed off and made durable in a flush of its own. Everything
  /// the writer executes from here on queues behind that parked reply.
  /// `rejected_client` receives the rejection once the gate opens.
  void ParkDurabilityStage(const std::string& constant, int rejected_client) {
    Admit(0, FrameType::kApply,
          ApplyPayload(clients_[0].get(), constant, 100, 1));
    stall_.Await();
    Admit(rejected_client, FrameType::kApply,
          ApplyPayload(clients_[rejected_client].get(), "p", 999, 1));
    stall_.Open();
    gate_.Await();
  }

  /// The write log restricted to `conns`, in order.
  std::vector<int> OrderAmong(const std::vector<int>& conns) const {
    std::vector<int> out;
    for (int conn : log_.order()) {
      if (std::find(conns.begin(), conns.end(), conn) != conns.end()) {
        out.push_back(conn);
      }
    }
    return out;
  }

  bool HasQ(DeductiveDatabase* db, const std::string& constant) {
    Result<Atom> atom = db->GroundAtom("Q", {constant});
    EXPECT_TRUE(atom.ok());
    return db->database().facts().Contains(
        atom->predicate(), Tuple{atom->args()[0].constant()});
  }

  std::string dir_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<DeductiveDatabase> db_;
  Gate stall_;
  Gate gate_;
  WriteLog log_;
  LoopbackNetwork network_;
  std::unique_ptr<Server> server_;
  std::vector<std::unique_ptr<Client>> clients_;
};

TEST_F(ServerPipelineTest, FacadeStagesShareOneFsyncAndDedupInStage) {
  // The facade half of the pipeline, without a server: two stages before
  // either finish ride one flush, and a staged token answers its retry.
  Transaction a;
  ASSERT_TRUE(a.AddInsert(db_->GroundAtom("Q", {"a"}).value()).ok());
  Transaction b;
  ASSERT_TRUE(b.AddInsert(db_->GroundAtom("Q", {"b"}).value()).ok());
  const persist::CommitToken token{5, 1};
  Result<DeductiveDatabase::StagedApply> first = db_->StageApply(a, token);
  Result<DeductiveDatabase::StagedApply> second = db_->StageApply(b);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->verdict, DedupVerdict::kFresh);
  EXPECT_LT(first->version, second->version);
  Result<DeductiveDatabase::StagedApply> retry = db_->StageApply(b, token);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->verdict, DedupVerdict::kDuplicate);
  EXPECT_EQ(retry->version, first->version);
  EXPECT_FALSE(retry->prepared.has_value()) << "a duplicate stages nothing";

  const uint64_t fsyncs_before = metrics_.counter("persist.wal_fsyncs");
  EXPECT_TRUE(db_->FinishApply(*first).ok());
  EXPECT_TRUE(db_->FinishApply(*second).ok());
  EXPECT_TRUE(db_->FinishApply(*retry).ok());
  EXPECT_EQ(metrics_.counter("persist.wal_fsyncs") - fsyncs_before, 1u);
  EXPECT_EQ(db_->persistence()->settled_seq(), second->prepared->seq);
}

TEST_F(ServerPipelineTest, StagedAppliesShareFsyncsInAdmissionOrder) {
  StartServer();
  Connect(8);
  const uint64_t base = db_->version();
  Admit(0, FrameType::kApply, ApplyPayload(clients_[0].get(), "a0", 100, 1));
  stall_.Await();
  for (int i = 1; i < 8; ++i) {
    Admit(i, FrameType::kApply,
          ApplyPayload(clients_[i].get(), StrCat("a", i), 100 + i, 1));
  }
  EXPECT_EQ(server_->queue_depth(), 8u);
  const uint64_t fsyncs_before = metrics_.counter("persist.wal_fsyncs");

  // Release the writer. The durability stage finishes a0 and parks on its
  // gated reply while the writer stages a1..a7 behind it.
  stall_.Open();
  gate_.Await();
  while (db_->version() < base + 8) std::this_thread::yield();
  // a0 is released as its reply goes out (parked at the gate); a1..a7 are
  // staged, not acknowledged, and still counted.
  EXPECT_EQ(server_->queue_depth(), 7u);
  gate_.Open();

  std::vector<uint64_t> versions;
  for (int i = 0; i < 8; ++i) {
    versions.push_back(ApplyVersion(clients_[i]->ReceiveRaw()));
  }
  for (int i = 1; i < 8; ++i) {
    EXPECT_LT(versions[i - 1], versions[i]) << "admission order " << i;
  }
  const uint64_t fsyncs =
      metrics_.counter("persist.wal_fsyncs") - fsyncs_before;
  EXPECT_LT(fsyncs, 8u);
  // a0's flush, then one for everything staged behind it.
  EXPECT_LE(fsyncs, 2u);
  // Acks left in commit order across connections.
  EXPECT_EQ(log_.order(), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(server_->queue_depth(), 0u);
  EXPECT_EQ(JsonCounter(server_->StatsJson(), "writes_applied"), 8u);
  EXPECT_GT(metrics_.histogram("server.durable_wait_us").count, 0u);
}

TEST_F(ServerPipelineTest, FailedFlushAcknowledgesNothingStagedAfterIt) {
  StartServer();
  Connect(6);
  ParkDurabilityStage("j0", /*rejected_client=*/5);  // j0 is durable
  for (int i = 1; i < 5; ++i) {
    SendAndStage(i, FrameType::kApply,
                 ApplyPayload(clients_[i].get(), StrCat("j", i), 100 + i, 1));
  }
  // Every fsync from here on fails: the flush that carries j1..j4.
  FaultInjector::Instance().Arm(FaultPoint::kWalFsync, 1,
                                InternalError("injected fsync failure"));
  gate_.Open();
  ApplyVersion(clients_[0]->ReceiveRaw());
  for (int i = 1; i < 5; ++i) {
    SCOPED_TRACE(i);
    ExpectFinalError(clients_[i]->ReceiveRaw());
  }
  FaultInjector::Instance().Disarm();
  EXPECT_EQ(JsonCounter(server_->StatsJson(), "degraded"), 1u);

  // Nothing is admitted after the failure either.
  Result<std::unique_ptr<Connection>> conn = network_.Connect();
  ASSERT_TRUE(conn.ok());
  Client late(std::move(*conn));
  ASSERT_TRUE(late.SendRaw(FrameType::kApply,
                           ApplyPayload(&late, "late", 300, 1))
                  .ok());
  ExpectFinalError(late.ReceiveRaw());

  server_->Stop();
  EXPECT_FALSE(db_->Close().ok()) << "the poison stays sticky";
  server_.reset();
  db_.reset();
  OpenDb();
  // Exactly the acknowledged prefix: p and j0, none of j1..j4 or late.
  EXPECT_TRUE(HasQ(db_.get(), "p"));
  EXPECT_TRUE(HasQ(db_.get(), "j0"));
  for (const char* lost : {"j1", "j2", "j3", "j4", "late"}) {
    EXPECT_FALSE(HasQ(db_.get(), lost)) << lost;
  }
}

TEST_F(ServerPipelineTest, RetryOfInFlightTokenWaitsForItsOriginal) {
  StartServer();
  Connect(4);
  ParkDurabilityStage("w", /*rejected_client=*/3);
  const uint64_t base = db_->version();
  // The original (connection 1) and its retry (connection 2, as after a
  // re-dial) are staged behind the parked reply.
  SendAndStage(1, FrameType::kApply,
               ApplyPayload(clients_[1].get(), "t", 7, 1));
  ASSERT_TRUE(clients_[2]
                  ->SendRaw(FrameType::kApply,
                            ApplyPayload(clients_[2].get(), "t", 7, 1))
                  .ok());
  while (JsonCounter(server_->StatsJson(), "dedup_hits") < 1) {
    std::this_thread::yield();
  }
  gate_.Open();

  const uint64_t w = ApplyVersion(clients_[0]->ReceiveRaw());
  const uint64_t t = ApplyVersion(clients_[1]->ReceiveRaw());
  const uint64_t retried = ApplyVersion(clients_[2]->ReceiveRaw());
  EXPECT_LT(w, t);
  EXPECT_EQ(retried, t) << "the retry answers with the original's version";
  EXPECT_EQ(db_->version(), base + 1) << "the retry applied nothing";
  EXPECT_EQ(OrderAmong({0, 1, 2}), (std::vector<int>{0, 1, 2}));
}

TEST_F(ServerPipelineTest, RetryOfInFlightTokenGetsItsOriginalsFailure) {
  StartServer();
  Connect(4);
  ParkDurabilityStage("w", /*rejected_client=*/3);
  SendAndStage(1, FrameType::kApply,
               ApplyPayload(clients_[1].get(), "t", 7, 1));
  ASSERT_TRUE(clients_[2]
                  ->SendRaw(FrameType::kApply,
                            ApplyPayload(clients_[2].get(), "t", 7, 1))
                  .ok());
  // The retry was answered from the original's optimistic dedup entry…
  while (JsonCounter(server_->StatsJson(), "dedup_hits") < 1) {
    std::this_thread::yield();
  }
  // …and then the original's flush fails.
  FaultInjector::Instance().Arm(FaultPoint::kWalFsync, 1,
                                InternalError("injected fsync failure"));
  gate_.Open();

  ApplyVersion(clients_[0]->ReceiveRaw());
  ExpectFinalError(clients_[1]->ReceiveRaw());
  ExpectFinalError(clients_[2]->ReceiveRaw());
  FaultInjector::Instance().Disarm();
  EXPECT_EQ(OrderAmong({0, 1, 2}), (std::vector<int>{0, 1, 2}))
      << "the retry is answered after its original's verdict";
}

TEST_F(ServerPipelineTest, StopDrainsStagedCommitsAndQuotaLastsUntilAck) {
  ServerOptions options;
  options.max_pending_writes_per_connection = 1;
  StartServer(options);
  Connect(5);
  ParkDurabilityStage("s0", /*rejected_client=*/4);
  for (int i = 1; i < 4; ++i) {
    SendAndStage(i, FrameType::kApply,
                 ApplyPayload(clients_[i].get(), StrCat("s", i), 100 + i, 1));
  }
  // Staged, not acknowledged: s1..s3 and the rejected write queued behind
  // s0's parked reply are still counted and still hold their connections'
  // quotas (s0 was released as its reply went out).
  EXPECT_EQ(server_->queue_depth(), 4u);
  EXPECT_EQ(metrics_.gauge("server.queue_depth"), 4);
  ASSERT_TRUE(clients_[1]
                  ->SendRaw(FrameType::kApply,
                            ApplyPayload(clients_[1].get(), "over", 101, 2))
                  .ok());
  Result<OwnedFrame> over = clients_[1]->ReceiveRaw();
  ASSERT_TRUE(over.ok());
  ASSERT_EQ(over->type, FrameType::kError);
  Result<ErrorReply> quota = DecodeErrorReply(over->payload);
  ASSERT_TRUE(quota.ok());
  EXPECT_EQ(quota->code, StatusCode::kResourceExhausted);

  std::future<void> stopped =
      std::async(std::launch::async, [this] { server_->Stop(); });
  EXPECT_EQ(stopped.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout)
      << "Stop() returned with staged commits unacknowledged";
  gate_.Open();
  stopped.get();
  // Every admitted write got its reply before Stop() returned.
  EXPECT_EQ(server_->queue_depth(), 0u);
  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    ApplyVersion(clients_[i]->ReceiveRaw());
    EXPECT_TRUE(HasQ(db_.get(), StrCat("s", i)));
  }
  EXPECT_EQ(OrderAmong({0, 1, 2, 3, 4}),
            (std::vector<int>{1, 0, 4, 1, 2, 3}))
      << "the quota rejection skips the stream; the acks follow it in order";
}

TEST_F(ServerPipelineTest, OneConnectionsRepliesKeepRequestOrder) {
  StartServer();
  Connect(3);
  ParkDurabilityStage("g", /*rejected_client=*/2);
  // Behind the parked reply: Apply (staged), Process (synchronous on the
  // writer, durable before it returns), Apply (staged) — one connection.
  Client& client = *clients_[1];
  const uint64_t first = SendAndStage(
      1, FrameType::kApply, ApplyPayload(&client, "o1", 101, 1));
  const uint64_t second =
      SendAndStage(1, FrameType::kProcess, ProcessPayload(&client, "o2"));
  const uint64_t third = SendAndStage(
      1, FrameType::kApply, ApplyPayload(&client, "o3", 101, 2));
  gate_.Open();

  ApplyVersion(clients_[0]->ReceiveRaw());
  Result<OwnedFrame> a1 = client.ReceiveRaw();
  Result<OwnedFrame> p = client.ReceiveRaw();
  Result<OwnedFrame> a2 = client.ReceiveRaw();
  ASSERT_TRUE(a1.ok() && p.ok() && a2.ok());
  EXPECT_EQ(a1->request_id, first);
  EXPECT_EQ(p->request_id, second);
  EXPECT_EQ(a2->request_id, third);
  ASSERT_EQ(p->type, FrameType::kProcessOk);
  Result<ProcessReply> process = DecodeProcessReply(p->payload);
  ASSERT_TRUE(process.ok());
  EXPECT_TRUE(process->accepted);
  const uint64_t v1 = ApplyVersion(a1);
  const uint64_t v3 = ApplyVersion(a2);
  EXPECT_LT(v1, process->version);
  EXPECT_LT(process->version, v3);
}

TEST_F(ServerPipelineTest, CheckpointWaitsForStagedCommitsToSettle) {
  // A checkpoint queued behind a staged commit must not snapshot it before
  // its flush: if the flush then fails, the snapshot would make durable a
  // commit whose client was told it failed.
  StartServer();
  Connect(4);
  ParkDurabilityStage("c0", /*rejected_client=*/3);
  SendAndStage(1, FrameType::kApply,
               ApplyPayload(clients_[1].get(), "c1", 101, 1));
  Admit(2, FrameType::kCheckpoint, EncodeAdmissionOnly(Admission{}));
  FaultInjector::Instance().Arm(FaultPoint::kWalFsync, 1,
                                InternalError("injected fsync failure"));
  gate_.Open();

  ApplyVersion(clients_[0]->ReceiveRaw());
  ExpectFinalError(clients_[1]->ReceiveRaw());
  Result<OwnedFrame> checkpoint = clients_[2]->ReceiveRaw();
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_EQ(checkpoint->type, FrameType::kError)
      << "the checkpoint ran after the loss poisoned the facade";
  FaultInjector::Instance().Disarm();

  server_->Stop();
  server_.reset();
  db_.reset();
  OpenDb();
  EXPECT_TRUE(HasQ(db_.get(), "c0"));
  EXPECT_FALSE(HasQ(db_.get(), "c1")) << "the failed commit was recovered";
}

TEST_F(ServerPipelineTest, StaleCopyOfARejectedWriteIsRefused) {
  // A client sends Ins Q(p) on a connection it then abandons, and retries
  // on a fresh one; the retry is admitted first and rejected (Q(p) holds).
  // Another client then deletes Q(p). The stale first attempt, admitted
  // last, must not insert Q(p): its client already took the rejection.
  StartServer();
  Connect(3);
  Admit(0, FrameType::kApply, ApplyPayload(clients_[0].get(), "p", 7, 1));
  stall_.Await();
  Transaction del;
  ASSERT_TRUE(del.AddDelete(clients_[2]->GroundAtom("Q", {"p"})).ok());
  ApplyRequest request;
  request.token = persist::CommitToken{8, 1};
  request.transaction = del;
  Admit(2, FrameType::kApply,
        EncodeApplyRequest(request, clients_[2]->symbols()));
  Admit(1, FrameType::kApply, ApplyPayload(clients_[1].get(), "p", 7, 1));
  stall_.Open();
  gate_.Open();

  ExpectFinalError(clients_[0]->ReceiveRaw());  // the retry: Q(p) holds
  ApplyVersion(clients_[2]->ReceiveRaw());      // the delete
  Result<OwnedFrame> stale = clients_[1]->ReceiveRaw();
  ExpectFinalError(stale);
  Result<ErrorReply> error = DecodeErrorReply(stale->payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, StatusCode::kFailedPrecondition);
  EXPECT_NE(error->message.find("already rejected"), std::string::npos)
      << error->message;
  EXPECT_FALSE(HasQ(db_.get(), "p"));
}

TEST_F(ServerPipelineTest, CopyExpiringInQueueKeepsTheCommitOfItsToken) {
  // Attempt 1 commits; a copy sent after a re-dial expires in the queue
  // behind it. The copy's rejection must not tombstone the token over its
  // commit: attempt 3 is answered with the original version, so a client
  // that believes it never re-issues a write that already committed.
  StartServer();
  Connect(3);
  Admit(0, FrameType::kApply, ApplyPayload(clients_[0].get(), "t", 7, 1));
  stall_.Await();
  Admit(1, FrameType::kApply,
        ApplyPayloadWithDeadline(clients_[1].get(), "t", 7, 1,
                                 /*deadline_ms=*/1));
  // The copy was admitted before Admit returned, so this outlasts its
  // deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stall_.Open();
  gate_.Open();

  const uint64_t committed = ApplyVersion(clients_[0]->ReceiveRaw());
  Result<OwnedFrame> expired = clients_[1]->ReceiveRaw();
  ExpectFinalError(expired);
  Result<ErrorReply> error = DecodeErrorReply(expired->payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, StatusCode::kDeadlineExceeded) << error->message;

  ASSERT_TRUE(clients_[2]
                  ->SendRaw(FrameType::kApply,
                            ApplyPayload(clients_[2].get(), "t", 7, 1))
                  .ok());
  EXPECT_EQ(ApplyVersion(clients_[2]->ReceiveRaw()), committed);
  EXPECT_EQ(db_->version(), committed) << "no copy applied twice";
}

TEST_F(ServerPipelineTest, VerdictsOnALostCommitGetTheLoss) {
  // An Apply and a Process rejected because a staged commit's fact already
  // holds were decided in a state the log never got: once that commit's
  // flush fails, they are answered with the loss, not with "already holds".
  StartServer();
  Connect(5);
  ParkDurabilityStage("v0", /*rejected_client=*/4);
  SendAndStage(1, FrameType::kApply,
               ApplyPayload(clients_[1].get(), "v1", 101, 1));
  const uint64_t rejected_before =
      JsonCounter(server_->StatsJson(), "writes_rejected");
  ASSERT_TRUE(clients_[2]
                  ->SendRaw(FrameType::kApply,
                            ApplyPayload(clients_[2].get(), "v1", 102, 1))
                  .ok());
  ASSERT_TRUE(
      clients_[3]
          ->SendRaw(FrameType::kProcess, ProcessPayload(clients_[3].get(), "v1"))
          .ok());
  while (JsonCounter(server_->StatsJson(), "writes_rejected") <
         rejected_before + 2) {
    std::this_thread::yield();
  }
  FaultInjector::Instance().Arm(FaultPoint::kWalFsync, 1,
                                InternalError("injected fsync failure"));
  gate_.Open();

  ApplyVersion(clients_[0]->ReceiveRaw());
  ExpectFinalError(clients_[1]->ReceiveRaw());
  for (int i = 2; i < 4; ++i) {
    SCOPED_TRACE(i);
    Result<OwnedFrame> frame = clients_[i]->ReceiveRaw();
    // The untokened Process gets a bare error frame, without the hint.
    if (i == 2) ExpectFinalError(frame);
    ASSERT_TRUE(frame.ok());
    ASSERT_EQ(frame->type, FrameType::kError);
    Result<ErrorReply> error = DecodeErrorReply(frame->payload);
    ASSERT_TRUE(error.ok());
    EXPECT_NE(error->message.find("not durable"), std::string::npos)
        << error->message;
  }
  FaultInjector::Instance().Disarm();
}

}  // namespace
}  // namespace deddb::server
