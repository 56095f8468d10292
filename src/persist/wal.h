#ifndef DEDDB_PERSIST_WAL_H_
#define DEDDB_PERSIST_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "storage/transaction.h"
#include "util/status.h"

namespace deddb::persist {

/// On-disk layout of a log file:
///
///   header:  8-byte magic "DWAL0001" | u64 base_seq | u32 crc(magic+seq)
///   record:  u32 payload_len | u32 crc(payload) | payload
///
/// `base_seq` is the sequence number of the snapshot this log follows; every
/// record in the file carries a seq strictly greater. Records are appended
/// only — a checkpoint installs a whole fresh file (rename) rather than
/// rewriting this one.
inline constexpr char kWalMagic[8] = {'D', 'W', 'A', 'L', '0', '0', '0', '1'};
inline constexpr size_t kWalHeaderSize = 8 + 8 + 4;
inline constexpr size_t kWalFrameSize = 4 + 4;

enum class RecordType : uint8_t {
  kCommit = 1,  // a committed transaction's base event set
  kAbort = 2,   // compensation: the commit with `aborted_seq` was rolled back
};

/// Which apply path produced a commit record. Replay must take the same
/// path: processor commits re-derive induced view deltas through the upward
/// interpretation; direct commits touch base facts only.
enum class CommitOrigin : uint8_t {
  kProcessor = 0,  // UpdateProcessor::ApplyAtomically
  kDirect = 1,     // DeductiveDatabase::Apply
};

/// Client-supplied idempotency token carried by a commit: `(client_id,
/// request_seq)` names the *logical* write, so a retransmitted request whose
/// first attempt already committed can be recognized and answered with the
/// original result instead of applying twice. `client_id == 0` means "no
/// token" (an untokened v1 write); tokened commits ride in the WAL record so
/// recovery — and, later, replicas — rebuild the dedup table for free.
struct CommitToken {
  uint64_t client_id = 0;
  uint64_t request_seq = 0;

  bool present() const { return client_id != 0; }
  friend bool operator==(const CommitToken& a, const CommitToken& b) {
    return a.client_id == b.client_id && a.request_seq == b.request_seq;
  }
};

struct WalRecord {
  RecordType type = RecordType::kCommit;
  uint64_t seq = 0;
  CommitOrigin origin = CommitOrigin::kProcessor;  // commit records only
  Transaction transaction;                         // commit records only
  CommitToken token;                               // commit records only
  uint64_t aborted_seq = 0;                        // abort records only
};

struct WalContents {
  uint64_t base_seq = 0;
  std::vector<WalRecord> records;
  /// Length of the valid prefix (header + every intact record). Anything
  /// past it is a torn tail the caller should truncate away.
  uint64_t valid_bytes = 0;
  bool torn_tail = false;
};

/// Payload builders (the framing is the writer's job). A present token is
/// appended as a tagged trailing extension (u8 tag 1 | u64 client_id |
/// u64 request_seq) after the transaction; logs written before tokens
/// existed decode unchanged, and an absent token encodes to the identical
/// bytes they used — the on-disk format is extended, not versioned away.
std::string EncodeCommitPayload(uint64_t seq, CommitOrigin origin,
                                const Transaction& txn,
                                const SymbolTable& symbols,
                                const CommitToken& token = {});
std::string EncodeAbortPayload(uint64_t seq, uint64_t aborted_seq);

/// Reads and validates a whole log file.
///
/// The damage rules (the tentpole's recovery contract):
///  * a record that runs past EOF, or whose checksum fails while it extends
///    exactly to EOF, is a torn tail — reported, never an error;
///  * a checksum or structural failure with more bytes after the record is
///    interior corruption — kCorruption;
///  * a bad header (magic/crc) is kCorruption; a file shorter than the
///    header is treated as an interrupted creation (empty log, torn).
Result<WalContents> ReadWal(const std::string& path, SymbolTable* symbols);

/// Decodes one record payload (the bytes EncodeCommitPayload/
/// EncodeAbortPayload produce). All damage — unknown type, short fields,
/// trailing bytes, a reserved token id — is kCorruption: the caller has
/// already checked the frame checksum, so a structural failure means the
/// bytes themselves are wrong, not torn. This is the decoder ReadWal uses,
/// exposed so a replica can decode records shipped over the wire through
/// the identical path recovery takes (DESIGN.md §12).
Result<WalRecord> DecodeWalRecordPayload(std::string_view payload,
                                         SymbolTable* symbols);

/// The fixed prefix of a record payload, readable without a symbol table:
/// enough to route and filter records (by seq, by commit/abort) without
/// interning any names.
struct WalRecordHeader {
  RecordType type = RecordType::kCommit;
  uint64_t seq = 0;
  uint64_t aborted_seq = 0;  // abort records only
};

/// Parses just the header fields of a record payload (kCorruption on an
/// unknown type or a payload too short to carry them).
Result<WalRecordHeader> PeekWalRecordHeader(std::string_view payload);

/// One raw record as framed on disk: the undecoded payload plus the frame
/// checksum that protected it, and the header fields peeked out of it. The
/// replica feed ships exactly these bytes so the receiving side re-verifies
/// the same CRC the primary's disk was protected by.
struct RawWalRecord {
  WalRecordHeader header;
  uint32_t crc = 0;     // Crc32(payload), as stored in the frame
  std::string payload;  // EncodeCommitPayload/EncodeAbortPayload bytes
};

struct RawWalContents {
  uint64_t base_seq = 0;
  std::vector<RawWalRecord> records;
};

/// Reads a log file without decoding transactions (no symbol interning):
/// the record-iteration primitive under the replica feed. Same damage rules
/// as ReadWal — a torn tail is silently dropped (those records are not yet
/// durable and must not ship), interior damage is kCorruption. Records with
/// `header.seq <= from_seq` are skipped before any allocation.
Result<RawWalContents> ReadWalRaw(const std::string& path, uint64_t from_seq);

/// Append-only log writer with leader-based group commit.
///
/// AppendDurable frames a payload and returns once the record is fsynced.
/// Under concurrency, one caller becomes the flush leader and writes+syncs
/// every pending record in a single write/fsync pair; the rest wait — the
/// group-commit path that batches fsyncs (bench_wal_throughput measures the
/// difference; `group_commit=false` degrades to one fsync per record).
///
/// Failure atomicity: if a write/fsync fails (really, or via FaultInjector's
/// kWalAppend/kWalFsync points), no record of that batch is acknowledged and
/// the writer self-heals by truncating the file back to the durable prefix —
/// so the file never exposes an acknowledged-but-lost or half-acknowledged
/// state, which is exactly the file state a crash at that instruction would
/// leave behind. If even the truncate fails the writer poisons itself and
/// every later append reports the original error.
class WalWriter {
 public:
  struct Options {
    bool group_commit = true;
  };

  /// Creates/truncates `path` and durably writes the header.
  static Result<std::unique_ptr<WalWriter>> Create(const std::string& path,
                                                   uint64_t base_seq,
                                                   Options options);

  /// Opens an existing, already-validated log whose valid prefix is `size`
  /// bytes (from ReadWal; the caller must have truncated any torn tail).
  static Result<std::unique_ptr<WalWriter>> OpenForAppend(
      const std::string& path, uint64_t size, Options options);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  Status AppendDurable(std::string payload, obs::ObsContext obs);

  /// Handle for a record enqueued with Enqueue(), redeemable for its
  /// durability verdict via WaitDurable().
  struct Ticket {
    uint64_t target = 0;  // next_offset_ after this record
    uint64_t epoch = 0;   // flush epoch the record was enqueued under
  };

  /// Two-phase variant of AppendDurable for commit pipelines that must not
  /// hold their own locks across the fsync: Enqueue() frames and stages the
  /// record (cheap, called under the caller's commit lock), WaitDurable()
  /// joins the group flush (called after the caller has released its locks,
  /// so concurrent committers batch fsyncs end-to-end). Records become
  /// durable in Enqueue order — exactly the order the caller staged them.
  ///
  /// `applied_early` marks a record whose effects the caller applies before
  /// it is durable (the facade's direct Apply). A failed flush that drops
  /// such a record fences the writer: every later Enqueue/AppendDurable is
  /// refused, because a record staged after the loss would be computed
  /// against state the log no longer has and would replay against the wrong
  /// state. Records that are applied only once durable (the processor path,
  /// abort markers) never fence: their loss leaves memory and log in step.
  /// The fence lasts for this writer's life — a checkpoint, whose snapshot
  /// covers every applied commit, installs a fresh writer.
  Result<Ticket> Enqueue(std::string payload, bool applied_early = false);

  /// Blocks until the enqueued record is durable (possibly leading the
  /// flush). Returns the flush error if the record's batch was dropped; the
  /// record is then NOT in the log (self-heal truncated it away).
  Status WaitDurable(const Ticket& ticket, obs::ObsContext obs);

  /// Bytes known durable (header + fsynced records).
  uint64_t durable_size() const;

  /// Durably flushes anything pending (no-op when idle).
  Status Sync(obs::ObsContext obs);

  uint64_t group_batches() const;
  uint64_t fsyncs() const;

 private:
  WalWriter(int fd, std::string path, uint64_t size, Options options)
      : fd_(fd), path_(std::move(path)), options_(options),
        file_size_(size), durable_size_(size), next_offset_(size) {}

  /// Leader body: write + fsync one batch (fault points live here).
  Status WriteAndSync(const std::string& batch);
  /// Drops the non-durable suffix after a failed flush (mu_ held);
  /// `batch_applied_early` says whether the failed batch itself held an
  /// applied-early record (pending_ tracks its own).
  void SelfHealLocked(const Status& cause, bool batch_applied_early);

  int fd_;
  std::string path_;
  Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::string pending_;          // framed records not yet handed to write()
  uint64_t file_size_;           // bytes handed to write() (may exceed durable)
  uint64_t durable_size_;        // bytes fsynced
  uint64_t next_offset_;         // durable + in-flight + pending bytes
  bool flushing_ = false;
  uint64_t flush_epoch_ = 0;     // bumped when a failed flush drops a batch
  Status last_flush_error_;      // cause of the latest epoch bump
  Status poisoned_;              // sticky: self-heal itself failed
  Status fenced_;                // sticky: a flush dropped applied-early records
  uint64_t group_batches_ = 0;   // flushes that covered > 1 record
  uint64_t fsyncs_ = 0;
  uint64_t pending_records_ = 0;
  bool pending_applied_early_ = false;  // pending_ holds an applied-early record
};

}  // namespace deddb::persist

#endif  // DEDDB_PERSIST_WAL_H_
