// CommitDedup: the bounded exactly-once memory behind the server's
// idempotency tokens. Fresh/duplicate/rejected/too-old classification, the
// per-client ring-window eviction (a seq is retained until a later commit
// reuses its slot), and wholesale LRU eviction of the least recently used
// client.

#include "core/commit_dedup.h"

#include <gtest/gtest.h>

#include "util/strings.h"

namespace deddb {
namespace {

persist::CommitToken Token(uint64_t client, uint64_t seq) {
  persist::CommitToken token;
  token.client_id = client;
  token.request_seq = seq;
  return token;
}

TEST(CommitDedupTest, FreshThenDuplicateWithRecordedVersion) {
  CommitDedup dedup;
  EXPECT_EQ(dedup.Lookup(Token(1, 1)).verdict, DedupVerdict::kFresh);
  dedup.Record(Token(1, 1), 41);
  DedupResult hit = dedup.Lookup(Token(1, 1));
  EXPECT_EQ(hit.verdict, DedupVerdict::kDuplicate);
  EXPECT_EQ(hit.version, 41u);
  // A different seq of the same client, and the same seq of a different
  // client, are both fresh.
  EXPECT_EQ(dedup.Lookup(Token(1, 2)).verdict, DedupVerdict::kFresh);
  EXPECT_EQ(dedup.Lookup(Token(2, 1)).verdict, DedupVerdict::kFresh);
}

TEST(CommitDedupTest, RerecordingIsIdempotent) {
  CommitDedup dedup;
  dedup.Record(Token(1, 1), 41);
  dedup.Record(Token(1, 1), 41);  // WAL replay records each token once more
  DedupResult hit = dedup.Lookup(Token(1, 1));
  EXPECT_EQ(hit.verdict, DedupVerdict::kDuplicate);
  EXPECT_EQ(hit.version, 41u);
}

TEST(CommitDedupTest, RejectedSeqIsRefusedNotFresh) {
  // A rejection is final for the client: the token stays rejected, so a
  // stale copy of the write can never run later against a newer state.
  CommitDedup dedup;
  dedup.RecordRejected(Token(1, 1));
  EXPECT_EQ(dedup.Lookup(Token(1, 1)).verdict, DedupVerdict::kRejected);
  EXPECT_EQ(dedup.Lookup(Token(1, 2)).verdict, DedupVerdict::kFresh);
  dedup.Record(Token(1, 2), 12);
  EXPECT_EQ(dedup.Lookup(Token(1, 1)).verdict, DedupVerdict::kRejected);
  EXPECT_EQ(dedup.Lookup(Token(1, 2)).verdict, DedupVerdict::kDuplicate);
  EXPECT_FALSE(DedupRefusal(DedupVerdict::kRejected, Token(1, 1)).ok());
  EXPECT_TRUE(DedupRefusal(DedupVerdict::kDuplicate, Token(1, 2)).ok());
}

TEST(CommitDedupTest, RejectedCopyNeverDowngradesACommit) {
  // A copy of a committed write can be rejected on its own (its deadline
  // expired in the queue); the seq still committed, so later copies must
  // keep getting the original version, not a refusal.
  CommitDedup dedup;
  dedup.Record(Token(1, 1), 41);
  dedup.RecordRejected(Token(1, 1));
  DedupResult hit = dedup.Lookup(Token(1, 1));
  EXPECT_EQ(hit.verdict, DedupVerdict::kDuplicate);
  EXPECT_EQ(hit.version, 41u);
}

TEST(CommitDedupTest, UncommittedSeqBelowHighWaterIsTooOld) {
  // Seq 2 was never recorded (say it was rejected), but seq 3 committed:
  // a later retry of 2 is ambiguous only once it leaves the window — while
  // the window still covers it, the miss proves it never committed... except
  // the table cannot distinguish "rejected" from "evicted", so anything at
  // or below the high-water mark that misses reports kTooOld.
  CommitDedup dedup;
  dedup.Record(Token(1, 1), 10);
  dedup.Record(Token(1, 3), 11);
  EXPECT_EQ(dedup.Lookup(Token(1, 2)).verdict, DedupVerdict::kTooOld);
  EXPECT_EQ(dedup.Lookup(Token(1, 4)).verdict, DedupVerdict::kFresh);
}

TEST(CommitDedupTest, WindowEvictsTheSeqWhoseSlotIsReused) {
  CommitDedup::Options options;
  options.window_per_client = 8;
  CommitDedup dedup(options);
  for (uint64_t seq = 1; seq <= 8; ++seq) dedup.Record(Token(1, seq), seq);
  // Seq 9 lands on seq 1's slot (9 mod 8 == 1 mod 8): 1 is evicted, 2..8
  // stay.
  dedup.Record(Token(1, 9), 9);
  EXPECT_EQ(dedup.Lookup(Token(1, 1)).verdict, DedupVerdict::kTooOld);
  for (uint64_t seq = 2; seq <= 9; ++seq) {
    DedupResult hit = dedup.Lookup(Token(1, seq));
    EXPECT_EQ(hit.verdict, DedupVerdict::kDuplicate) << "seq " << seq;
    EXPECT_EQ(hit.version, seq);
  }
}

TEST(CommitDedupTest, DenselyNumberedClientRetainsExactlyTheWindow) {
  CommitDedup::Options options;
  options.window_per_client = 16;
  CommitDedup dedup(options);
  for (uint64_t seq = 1; seq <= 100; ++seq) dedup.Record(Token(1, seq), seq);
  for (uint64_t seq = 1; seq <= 84; ++seq) {
    EXPECT_EQ(dedup.Lookup(Token(1, seq)).verdict, DedupVerdict::kTooOld)
        << "seq " << seq;
  }
  for (uint64_t seq = 85; seq <= 100; ++seq) {
    EXPECT_EQ(dedup.Lookup(Token(1, seq)).verdict, DedupVerdict::kDuplicate)
        << "seq " << seq;
  }
}

TEST(CommitDedupTest, LeastRecentlyUsedClientIsEvictedWholesale) {
  CommitDedup::Options options;
  options.max_clients = 2;
  CommitDedup dedup(options);
  dedup.Record(Token(1, 1), 10);
  dedup.Record(Token(2, 1), 20);
  dedup.Lookup(Token(1, 1));  // touch client 1, making client 2 the LRU
  dedup.Record(Token(3, 1), 30);
  EXPECT_EQ(dedup.client_count(), 2u);
  EXPECT_EQ(dedup.Lookup(Token(1, 1)).verdict, DedupVerdict::kDuplicate);
  EXPECT_EQ(dedup.Lookup(Token(3, 1)).verdict, DedupVerdict::kDuplicate);
  // Client 2 lost its whole window *including* the high-water mark, so its
  // old seq reads as fresh — the documented cost of client-cap eviction.
  EXPECT_EQ(dedup.Lookup(Token(2, 1)).verdict, DedupVerdict::kFresh);
}

}  // namespace
}  // namespace deddb
