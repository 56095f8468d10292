// Unit tests of the write-ahead log: append/read round trips, the torn-tail
// vs interior-corruption damage rules (the tentpole's recovery contract),
// abort records, self-healing after injected write/fsync failures, and
// concurrent group commit.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "persist/codec.h"
#include "persist/wal.h"
#include "util/resource_guard.h"
#include "util/status.h"
#include "util/strings.h"

namespace deddb::persist {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl = StrCat(::testing::TempDir(), "walXXXXXX");
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(::mkdtemp(buf.data()), nullptr);
    dir_ = buf.data();
    path_ = StrCat(dir_, "/wal.deddb");
  }

  void TearDown() override {
    FaultInjector::Instance().Disarm();
    ::unlink(path_.c_str());
    ::rmdir(dir_.c_str());
  }

  Transaction MakeTxn(const char* constant) {
    Transaction txn;
    EXPECT_TRUE(
        txn.AddInsert(symbols_.Intern("Q"), {symbols_.Intern(constant)})
            .ok());
    return txn;
  }

  std::string ReadFileBytes() {
    std::string data;
    FILE* f = ::fopen(path_.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    char buf[4096];
    size_t n;
    while ((n = ::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
    ::fclose(f);
    return data;
  }

  void WriteFileBytes(const std::string& data) {
    FILE* f = ::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(::fwrite(data.data(), 1, data.size(), f), data.size());
    ::fclose(f);
  }

  SymbolTable symbols_;
  std::string dir_;
  std::string path_;
};

TEST_F(WalTest, AppendAndReadBack) {
  auto writer = WalWriter::Create(path_, /*base_seq=*/7, {}).value();
  ASSERT_TRUE(writer
                  ->AppendDurable(EncodeCommitPayload(
                                      8, CommitOrigin::kProcessor,
                                      MakeTxn("A"), symbols_),
                                  {})
                  .ok());
  ASSERT_TRUE(writer
                  ->AppendDurable(EncodeCommitPayload(
                                      9, CommitOrigin::kDirect, MakeTxn("B"),
                                      symbols_),
                                  {})
                  .ok());
  ASSERT_TRUE(writer->AppendDurable(EncodeAbortPayload(10, 9), {}).ok());

  SymbolTable reader;
  WalContents contents = ReadWal(path_, &reader).value();
  EXPECT_EQ(contents.base_seq, 7u);
  EXPECT_FALSE(contents.torn_tail);
  ASSERT_EQ(contents.records.size(), 3u);
  EXPECT_EQ(contents.records[0].type, RecordType::kCommit);
  EXPECT_EQ(contents.records[0].seq, 8u);
  EXPECT_EQ(contents.records[0].origin, CommitOrigin::kProcessor);
  EXPECT_TRUE(contents.records[0].transaction.ContainsInsert(
      reader.Intern("Q"), {reader.Intern("A")}));
  EXPECT_EQ(contents.records[1].origin, CommitOrigin::kDirect);
  EXPECT_EQ(contents.records[2].type, RecordType::kAbort);
  EXPECT_EQ(contents.records[2].aborted_seq, 9u);
  EXPECT_EQ(contents.valid_bytes, writer->durable_size());
}

TEST_F(WalTest, EmptyLogReadsBackEmpty) {
  { auto writer = WalWriter::Create(path_, 0, {}).value(); }
  WalContents contents = ReadWal(path_, &symbols_).value();
  EXPECT_EQ(contents.base_seq, 0u);
  EXPECT_TRUE(contents.records.empty());
  EXPECT_FALSE(contents.torn_tail);
}

TEST_F(WalTest, MissingLogIsNotFound) {
  Result<WalContents> read = ReadWal(path_, &symbols_);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST_F(WalTest, TornTailAtEveryByteOffsetIsTruncatedNotFatal) {
  {
    auto writer = WalWriter::Create(path_, 0, {}).value();
    ASSERT_TRUE(writer
                    ->AppendDurable(EncodeCommitPayload(
                                        1, CommitOrigin::kDirect,
                                        MakeTxn("A"), symbols_),
                                    {})
                    .ok());
    ASSERT_TRUE(writer
                    ->AppendDurable(EncodeCommitPayload(
                                        2, CommitOrigin::kDirect,
                                        MakeTxn("B"), symbols_),
                                    {})
                    .ok());
  }
  const std::string full = ReadFileBytes();
  // Find where record 2 starts: read the full file once, valid_bytes after
  // truncating to one record gives the boundary.
  SymbolTable probe;
  WalContents intact = ReadWal(path_, &probe).value();
  ASSERT_EQ(intact.records.size(), 2u);

  // Chop the file at EVERY byte length from "header only" to "one byte
  // short of complete": the reader must never error — it reports the
  // longest valid prefix and flags the rest as torn.
  for (size_t cut = kWalHeaderSize; cut < full.size(); ++cut) {
    WriteFileBytes(full.substr(0, cut));
    SymbolTable reader;
    Result<WalContents> read = ReadWal(path_, &reader);
    ASSERT_TRUE(read.ok()) << "cut=" << cut << ": " << read.status();
    EXPECT_EQ(read->torn_tail, cut > read->valid_bytes) << "cut=" << cut;
    EXPECT_LE(read->valid_bytes, cut);
    // Whole records only.
    for (const WalRecord& r : read->records) {
      EXPECT_EQ(r.type, RecordType::kCommit);
    }
    EXPECT_LE(read->records.size(), 2u);
  }

  // A file shorter than the header is an interrupted creation: empty, torn.
  WriteFileBytes(full.substr(0, kWalHeaderSize - 3));
  SymbolTable reader;
  WalContents read = ReadWal(path_, &reader).value();
  EXPECT_TRUE(read.torn_tail);
  EXPECT_EQ(read.valid_bytes, 0u);
  EXPECT_TRUE(read.records.empty());
}

TEST_F(WalTest, CorruptTailRecordIsTornNotFatal) {
  {
    auto writer = WalWriter::Create(path_, 0, {}).value();
    ASSERT_TRUE(writer
                    ->AppendDurable(EncodeCommitPayload(
                                        1, CommitOrigin::kDirect,
                                        MakeTxn("A"), symbols_),
                                    {})
                    .ok());
  }
  std::string bytes = ReadFileBytes();
  bytes.back() ^= 0x5A;  // flip a bit in the LAST record's payload
  WriteFileBytes(bytes);
  WalContents read = ReadWal(path_, &symbols_).value();
  EXPECT_TRUE(read.torn_tail);
  EXPECT_TRUE(read.records.empty());
  EXPECT_EQ(read.valid_bytes, kWalHeaderSize);
}

TEST_F(WalTest, CorruptInteriorRecordIsTypedCorruption) {
  size_t first_record_end;
  {
    auto writer = WalWriter::Create(path_, 0, {}).value();
    ASSERT_TRUE(writer
                    ->AppendDurable(EncodeCommitPayload(
                                        1, CommitOrigin::kDirect,
                                        MakeTxn("A"), symbols_),
                                    {})
                    .ok());
    first_record_end = writer->durable_size();
    ASSERT_TRUE(writer
                    ->AppendDurable(EncodeCommitPayload(
                                        2, CommitOrigin::kDirect,
                                        MakeTxn("B"), symbols_),
                                    {})
                    .ok());
  }
  std::string bytes = ReadFileBytes();
  bytes[first_record_end - 1] ^= 0x5A;  // damage record 1, record 2 follows
  WriteFileBytes(bytes);
  Result<WalContents> read = ReadWal(path_, &symbols_);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
}

TEST_F(WalTest, BadMagicOrHeaderCrcIsCorruption) {
  { auto writer = WalWriter::Create(path_, 3, {}).value(); }
  std::string bytes = ReadFileBytes();
  {
    std::string patched = bytes;
    patched[0] = 'X';
    WriteFileBytes(patched);
    Result<WalContents> read = ReadWal(path_, &symbols_);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
  }
  {
    std::string patched = bytes;
    patched[10] ^= 0xFF;  // base_seq byte: header CRC must catch it
    WriteFileBytes(patched);
    Result<WalContents> read = ReadWal(path_, &symbols_);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
  }
}

TEST_F(WalTest, InjectedAppendFailureSelfHealsToDurablePrefix) {
  for (FaultPoint point : {FaultPoint::kWalAppend, FaultPoint::kWalFsync}) {
    SCOPED_TRACE(FaultPointName(point));
    ::unlink(path_.c_str());
    auto writer = WalWriter::Create(path_, 0, {}).value();
    ASSERT_TRUE(writer
                    ->AppendDurable(EncodeCommitPayload(
                                        1, CommitOrigin::kDirect,
                                        MakeTxn("A"), symbols_),
                                    {})
                    .ok());
    const uint64_t durable_before = writer->durable_size();

    FaultInjector::Instance().Arm(point, /*trigger_at=*/1,
                                  InternalError("injected io failure"));
    Status failed = writer->AppendDurable(
        EncodeCommitPayload(2, CommitOrigin::kDirect, MakeTxn("B"),
                            symbols_),
        {});
    FaultInjector::Instance().Disarm();
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(writer->durable_size(), durable_before);

    // The file equals the crash-at-that-instruction state: exactly the
    // acknowledged prefix, and the writer keeps working afterwards.
    SymbolTable reader;
    WalContents read = ReadWal(path_, &reader).value();
    EXPECT_FALSE(read.torn_tail);
    ASSERT_EQ(read.records.size(), 1u);
    EXPECT_EQ(read.records[0].seq, 1u);

    ASSERT_TRUE(writer
                    ->AppendDurable(EncodeCommitPayload(
                                        3, CommitOrigin::kDirect,
                                        MakeTxn("C"), symbols_),
                                    {})
                    .ok());
    SymbolTable reader2;
    WalContents after = ReadWal(path_, &reader2).value();
    ASSERT_EQ(after.records.size(), 2u);
    EXPECT_EQ(after.records[1].seq, 3u);
  }
}

TEST_F(WalTest, LostAppliedEarlyRecordFencesLaterEnqueues) {
  // A record whose caller applies it before it is durable (the facade's
  // staged Apply) is lost with its flush: every record enqueued after the
  // loss would be computed against state the log no longer has, so the
  // writer refuses them rather than let one land after the gap.
  for (FaultPoint point : {FaultPoint::kWalAppend, FaultPoint::kWalFsync}) {
    SCOPED_TRACE(FaultPointName(point));
    ::unlink(path_.c_str());
    auto writer = WalWriter::Create(path_, 0, {}).value();
    WalWriter::Ticket a =
        writer
            ->Enqueue(EncodeCommitPayload(1, CommitOrigin::kDirect,
                                          MakeTxn("A"), symbols_),
                      /*applied_early=*/true)
            .value();
    // Staged behind A, in pending_ when A's flush fails: dropped too.
    WalWriter::Ticket b =
        writer
            ->Enqueue(EncodeCommitPayload(2, CommitOrigin::kDirect,
                                          MakeTxn("B"), symbols_),
                      /*applied_early=*/true)
            .value();
    FaultInjector::Instance().Arm(point, 1,
                                  InternalError("injected io failure"));
    EXPECT_FALSE(writer->WaitDurable(a, {}).ok());
    FaultInjector::Instance().Disarm();
    EXPECT_FALSE(writer->WaitDurable(b, {}).ok());

    Result<WalWriter::Ticket> after = writer->Enqueue(
        EncodeCommitPayload(3, CommitOrigin::kProcessor, MakeTxn("C"),
                            symbols_));
    ASSERT_FALSE(after.ok());
    EXPECT_NE(after.status().ToString().find("fenced"), std::string::npos)
        << after.status().ToString();
    EXPECT_FALSE(writer
                     ->AppendDurable(EncodeAbortPayload(4, 1), {})
                     .ok());
    SymbolTable reader;
    EXPECT_TRUE(ReadWal(path_, &reader).value().records.empty());
  }
}

TEST_F(WalTest, LostRecordAppliedOnlyWhenDurableDoesNotFence) {
  // The processor path applies nothing before its record is durable, so
  // losing one leaves memory and log in step: later records are fine.
  auto writer = WalWriter::Create(path_, 0, {}).value();
  WalWriter::Ticket a =
      writer
          ->Enqueue(EncodeCommitPayload(1, CommitOrigin::kProcessor,
                                        MakeTxn("A"), symbols_))
          .value();
  FaultInjector::Instance().Arm(FaultPoint::kWalFsync, 1,
                                InternalError("injected fsync failure"));
  EXPECT_FALSE(writer->WaitDurable(a, {}).ok());
  FaultInjector::Instance().Disarm();
  ASSERT_TRUE(writer
                  ->AppendDurable(EncodeCommitPayload(
                                      2, CommitOrigin::kDirect,
                                      MakeTxn("B"), symbols_),
                                  {})
                  .ok());
  SymbolTable reader;
  WalContents read = ReadWal(path_, &reader).value();
  ASSERT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.records[0].seq, 2u);
}

TEST_F(WalTest, ConcurrentGroupCommitKeepsEveryRecord) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  auto writer =
      WalWriter::Create(path_, 0, WalWriter::Options{true}).value();
  obs::MetricsRegistry metrics;
  // Seqs must be unique but the file accepts any increasing enqueue order;
  // give each thread a disjoint range and check the set read back. To keep
  // ReadWal's monotonicity check satisfied, each thread's payloads carry
  // seqs from a global counter under the writer's own append ordering —
  // here we simply use one atomic pre-assignment.
  std::atomic<uint64_t> next_seq{1};
  // The mutex covers seq assignment AND the append, like the manager's —
  // that is what keeps the file's seqs increasing. AppendDurable itself is
  // what the unordered test below exercises concurrently.
  std::mutex seq_mu;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        std::string name = StrCat("c", t, "_", i);
        std::lock_guard<std::mutex> lock(seq_mu);
        uint64_t seq = next_seq.fetch_add(1);
        Transaction txn;
        // Symbol interning is not thread-safe; it happens under the lock.
        ASSERT_TRUE(
            txn.AddInsert(symbols_.Intern("Q"), {symbols_.Intern(name)})
                .ok());
        ASSERT_TRUE(writer
                        ->AppendDurable(
                            EncodeCommitPayload(seq, CommitOrigin::kDirect,
                                                txn, symbols_),
                            obs::ObsContext{nullptr, &metrics})
                        .ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  SymbolTable reader;
  WalContents read = ReadWal(path_, &reader).value();
  EXPECT_FALSE(read.torn_tail);
  ASSERT_EQ(read.records.size(),
            static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 0; i < read.records.size(); ++i) {
    EXPECT_EQ(read.records[i].seq, i + 1);
  }
}

TEST_F(WalTest, ConcurrentUnorderedAppendsAllBecomeDurable) {
  // Without external ordering, records may interleave arbitrarily — the
  // writer must still make every acknowledged record durable and intact.
  // (Out-of-order seqs fail ReadWal's monotonicity rule, so this test
  // checks durability through the writer's own accounting.)
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  auto writer =
      WalWriter::Create(path_, 0, WalWriter::Options{true}).value();
  std::atomic<uint64_t> payload_bytes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        std::string payload = StrCat("thread ", t, " record ", i);
        payload_bytes.fetch_add(payload.size());
        ASSERT_TRUE(writer->AppendDurable(std::move(payload), {}).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(writer->durable_size(),
            kWalHeaderSize +
                payload_bytes.load() +
                static_cast<uint64_t>(kThreads * kPerThread) *
                    kWalFrameSize);
  EXPECT_GE(writer->fsyncs(), 1u);
  EXPECT_LE(writer->fsyncs(),
            static_cast<uint64_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace deddb::persist
