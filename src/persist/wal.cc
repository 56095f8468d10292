#include "persist/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "persist/codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc32.h"
#include "util/resource_guard.h"
#include "util/strings.h"

namespace deddb::persist {

namespace {

// An absurd single-record bound: a length field past it is damage, not data.
constexpr uint32_t kMaxRecordBytes = uint32_t{1} << 30;

// Tag byte introducing the optional trailing CommitToken extension of a
// commit record.
constexpr uint8_t kCommitTokenTag = 1;

Status ErrnoError(std::string_view op, const std::string& path) {
  return InternalError(StrCat(op, " failed for '", path, "': ",
                              std::strerror(errno)));
}

// The write/fsync fault points model "the process dies at this instruction";
// they are poked explicitly (not via DEDDB_FAULT_POINT) so the caller can
// run its self-heal/rollback path rather than returning straight out.
Status Poke(FaultPoint point) {
  FaultInjector& injector = FaultInjector::Instance();
  return injector.armed() ? injector.Poke(point) : Status::Ok();
}

Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write", path);
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

std::string FrameRecord(std::string_view payload) {
  ByteSink sink;
  sink.PutU32(static_cast<uint32_t>(payload.size()));
  sink.PutU32(Crc32(payload));
  std::string out = sink.Take();
  out.append(payload);
  return out;
}

std::string EncodeHeader(uint64_t base_seq) {
  ByteSink sink;
  for (char c : kWalMagic) sink.PutU8(static_cast<uint8_t>(c));
  sink.PutU64(base_seq);
  sink.PutU32(Crc32(sink.bytes()));
  return sink.Take();
}

}  // namespace

Result<WalRecord> DecodeWalRecordPayload(std::string_view payload,
                                         SymbolTable* symbols) {
  ByteSource source(payload);
  WalRecord record;
  DEDDB_ASSIGN_OR_RETURN(uint8_t type, source.GetU8());
  DEDDB_ASSIGN_OR_RETURN(record.seq, source.GetU64());
  switch (type) {
    case static_cast<uint8_t>(RecordType::kCommit): {
      record.type = RecordType::kCommit;
      DEDDB_ASSIGN_OR_RETURN(uint8_t origin, source.GetU8());
      if (origin > static_cast<uint8_t>(CommitOrigin::kDirect)) {
        return CorruptionError(StrCat("unknown commit origin ", int{origin}));
      }
      record.origin = static_cast<CommitOrigin>(origin);
      DEDDB_ASSIGN_OR_RETURN(record.transaction,
                             DecodeTransaction(&source, symbols));
      // Optional tagged extension: an idempotency token. Absent in records
      // written before tokens existed (and for untokened writes), so an
      // exhausted source here is a complete record, not a short one.
      if (!source.exhausted()) {
        DEDDB_ASSIGN_OR_RETURN(uint8_t tag, source.GetU8());
        if (tag != kCommitTokenTag) {
          return CorruptionError(
              StrCat("unknown commit-record extension tag ", int{tag}));
        }
        DEDDB_ASSIGN_OR_RETURN(record.token.client_id, source.GetU64());
        DEDDB_ASSIGN_OR_RETURN(record.token.request_seq, source.GetU64());
        if (!record.token.present()) {
          return CorruptionError(
              "commit-record token extension with reserved client id 0");
        }
      }
      break;
    }
    case static_cast<uint8_t>(RecordType::kAbort): {
      record.type = RecordType::kAbort;
      DEDDB_ASSIGN_OR_RETURN(record.aborted_seq, source.GetU64());
      break;
    }
    default:
      return CorruptionError(StrCat("unknown WAL record type ", int{type}));
  }
  if (!source.exhausted()) {
    return CorruptionError("WAL record payload has trailing bytes");
  }
  return record;
}

Result<WalRecordHeader> PeekWalRecordHeader(std::string_view payload) {
  ByteSource source(payload);
  WalRecordHeader header;
  uint8_t type = 0;
  {
    Result<uint8_t> got = source.GetU8();
    if (!got.ok()) return CorruptionError("WAL record shorter than its type");
    type = *got;
  }
  {
    Result<uint64_t> got = source.GetU64();
    if (!got.ok()) return CorruptionError("WAL record shorter than its seq");
    header.seq = *got;
  }
  switch (type) {
    case static_cast<uint8_t>(RecordType::kCommit):
      header.type = RecordType::kCommit;
      break;
    case static_cast<uint8_t>(RecordType::kAbort): {
      header.type = RecordType::kAbort;
      Result<uint64_t> got = source.GetU64();
      if (!got.ok()) {
        return CorruptionError("WAL abort record shorter than aborted_seq");
      }
      header.aborted_seq = *got;
      break;
    }
    default:
      return CorruptionError(StrCat("unknown WAL record type ", int{type}));
  }
  return header;
}

std::string EncodeCommitPayload(uint64_t seq, CommitOrigin origin,
                                const Transaction& txn,
                                const SymbolTable& symbols,
                                const CommitToken& token) {
  ByteSink sink;
  sink.PutU8(static_cast<uint8_t>(RecordType::kCommit));
  sink.PutU64(seq);
  sink.PutU8(static_cast<uint8_t>(origin));
  EncodeTransaction(txn, symbols, &sink);
  if (token.present()) {
    sink.PutU8(kCommitTokenTag);
    sink.PutU64(token.client_id);
    sink.PutU64(token.request_seq);
  }
  return sink.Take();
}

std::string EncodeAbortPayload(uint64_t seq, uint64_t aborted_seq) {
  ByteSink sink;
  sink.PutU8(static_cast<uint8_t>(RecordType::kAbort));
  sink.PutU64(seq);
  sink.PutU64(aborted_seq);
  return sink.Take();
}

namespace {

Result<std::string> ReadFileAll(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return NotFoundError(StrCat("no log at '", path, "'"));
    }
    return ErrnoError("open", path);
  }
  std::string data;
  char buffer[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return ErrnoError("read", path);
    }
    if (n == 0) break;
    data.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return data;
}

}  // namespace

Result<WalContents> ReadWal(const std::string& path, SymbolTable* symbols) {
  DEDDB_ASSIGN_OR_RETURN(std::string data, ReadFileAll(path));

  WalContents contents;
  if (data.size() < kWalHeaderSize) {
    // An interrupted log creation: no header means no record was ever
    // durable, so the whole file is a torn tail.
    contents.torn_tail = !data.empty();
    contents.valid_bytes = 0;
    return contents;
  }
  {
    ByteSource header(std::string_view(data).substr(0, kWalHeaderSize));
    bool magic_ok = true;
    for (char expected : kWalMagic) {
      auto c = header.GetU8();
      if (!c.ok() || static_cast<char>(*c) != expected) magic_ok = false;
    }
    if (!magic_ok) {
      return CorruptionError(StrCat("'", path, "' is not a deddb WAL file"));
    }
    DEDDB_ASSIGN_OR_RETURN(contents.base_seq, header.GetU64());
    DEDDB_ASSIGN_OR_RETURN(uint32_t crc, header.GetU32());
    if (crc != Crc32(std::string_view(data).substr(0, kWalHeaderSize - 4))) {
      return CorruptionError(StrCat("WAL header checksum mismatch in '",
                                    path, "'"));
    }
  }

  size_t pos = kWalHeaderSize;
  contents.valid_bytes = pos;
  while (pos < data.size()) {
    if (data.size() - pos < kWalFrameSize) break;  // torn frame header
    ByteSource frame(std::string_view(data).substr(pos, kWalFrameSize));
    DEDDB_ASSIGN_OR_RETURN(uint32_t len, frame.GetU32());
    DEDDB_ASSIGN_OR_RETURN(uint32_t crc, frame.GetU32());
    if (len > kMaxRecordBytes || pos + kWalFrameSize + len > data.size()) {
      break;  // record runs past EOF: torn tail
    }
    std::string_view payload =
        std::string_view(data).substr(pos + kWalFrameSize, len);
    const bool is_last = pos + kWalFrameSize + len == data.size();
    if (Crc32(payload) != crc) {
      if (is_last) break;  // damaged tail record: torn
      return CorruptionError(
          StrCat("WAL record at offset ", pos, " of '", path,
                 "' failed its checksum with ",
                 data.size() - pos - kWalFrameSize - len,
                 " valid bytes after it"));
    }
    // The checksum passed, so these are the bytes that were written; a
    // structural failure now is corruption regardless of position.
    DEDDB_ASSIGN_OR_RETURN(WalRecord record,
                           DecodeWalRecordPayload(payload, symbols));
    if (record.seq <= contents.base_seq ||
        (!contents.records.empty() &&
         record.seq <= contents.records.back().seq)) {
      return CorruptionError(
          StrCat("WAL sequence numbers not increasing at offset ", pos,
                 " of '", path, "'"));
    }
    contents.records.push_back(std::move(record));
    pos += kWalFrameSize + len;
    contents.valid_bytes = pos;
  }
  contents.torn_tail = contents.valid_bytes < data.size();
  return contents;
}

Result<RawWalContents> ReadWalRaw(const std::string& path,
                                  uint64_t from_seq) {
  DEDDB_ASSIGN_OR_RETURN(std::string data, ReadFileAll(path));

  RawWalContents contents;
  if (data.size() < kWalHeaderSize) return contents;  // interrupted creation
  {
    ByteSource header(std::string_view(data).substr(0, kWalHeaderSize));
    for (char expected : kWalMagic) {
      auto c = header.GetU8();
      if (!c.ok() || static_cast<char>(*c) != expected) {
        return CorruptionError(StrCat("'", path, "' is not a deddb WAL file"));
      }
    }
    DEDDB_ASSIGN_OR_RETURN(contents.base_seq, header.GetU64());
    DEDDB_ASSIGN_OR_RETURN(uint32_t crc, header.GetU32());
    if (crc != Crc32(std::string_view(data).substr(0, kWalHeaderSize - 4))) {
      return CorruptionError(StrCat("WAL header checksum mismatch in '",
                                    path, "'"));
    }
  }

  size_t pos = kWalHeaderSize;
  uint64_t last_seq = contents.base_seq;
  while (pos < data.size()) {
    if (data.size() - pos < kWalFrameSize) break;  // torn frame header
    ByteSource frame(std::string_view(data).substr(pos, kWalFrameSize));
    DEDDB_ASSIGN_OR_RETURN(uint32_t len, frame.GetU32());
    DEDDB_ASSIGN_OR_RETURN(uint32_t crc, frame.GetU32());
    if (len > kMaxRecordBytes || pos + kWalFrameSize + len > data.size()) {
      break;  // record runs past EOF: torn tail
    }
    std::string_view payload =
        std::string_view(data).substr(pos + kWalFrameSize, len);
    const bool is_last = pos + kWalFrameSize + len == data.size();
    if (Crc32(payload) != crc) {
      if (is_last) break;  // damaged tail record: torn, not yet durable
      return CorruptionError(
          StrCat("WAL record at offset ", pos, " of '", path,
                 "' failed its checksum"));
    }
    DEDDB_ASSIGN_OR_RETURN(WalRecordHeader header,
                           PeekWalRecordHeader(payload));
    if (header.seq <= last_seq) {
      return CorruptionError(
          StrCat("WAL sequence numbers not increasing at offset ", pos,
                 " of '", path, "'"));
    }
    last_seq = header.seq;
    if (header.seq > from_seq) {
      RawWalRecord record;
      record.header = header;
      record.crc = crc;
      record.payload = std::string(payload);
      contents.records.push_back(std::move(record));
    }
    pos += kWalFrameSize + len;
  }
  return contents;
}

// ---- WalWriter --------------------------------------------------------------

Result<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path,
                                                     uint64_t base_seq,
                                                     Options options) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) return ErrnoError("open", path);
  std::string header = EncodeHeader(base_seq);
  Status status = WriteAll(fd, header.data(), header.size(), path);
  if (status.ok() && ::fsync(fd) != 0) status = ErrnoError("fsync", path);
  if (!status.ok()) {
    ::close(fd);
    return status;
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(fd, path, header.size(), options));
}

Result<std::unique_ptr<WalWriter>> WalWriter::OpenForAppend(
    const std::string& path, uint64_t size, Options options) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoError("open", path);
  if (::lseek(fd, static_cast<off_t>(size), SEEK_SET) < 0) {
    ::close(fd);
    return ErrnoError("lseek", path);
  }
  return std::unique_ptr<WalWriter>(new WalWriter(fd, path, size, options));
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

uint64_t WalWriter::durable_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_size_;
}

uint64_t WalWriter::group_batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return group_batches_;
}

uint64_t WalWriter::fsyncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fsyncs_;
}

Status WalWriter::WriteAndSync(const std::string& batch) {
  DEDDB_RETURN_IF_ERROR(Poke(FaultPoint::kWalAppend));
  DEDDB_RETURN_IF_ERROR(WriteAll(fd_, batch.data(), batch.size(), path_));
  DEDDB_RETURN_IF_ERROR(Poke(FaultPoint::kWalFsync));
  if (::fsync(fd_) != 0) return ErrnoError("fsync", path_);
  return Status::Ok();
}

void WalWriter::SelfHealLocked(const Status& cause,
                               bool batch_applied_early) {
  ++flush_epoch_;
  last_flush_error_ = cause;
  if ((batch_applied_early || pending_applied_early_) && fenced_.ok()) {
    fenced_ = InternalError(
        StrCat("WAL fenced: a failed flush ('", cause.ToString(),
               "') dropped commits already applied in memory; reopen the "
               "database to re-converge"));
  }
  pending_.clear();
  pending_records_ = 0;
  pending_applied_early_ = false;
  // The batch may be partially (or, after a failed fsync, fully) in the
  // file but is not durable: drop it so the on-disk prefix matches what a
  // crash at the failed instruction would have preserved.
  if (::ftruncate(fd_, static_cast<off_t>(durable_size_)) != 0 ||
      ::lseek(fd_, static_cast<off_t>(durable_size_), SEEK_SET) < 0) {
    poisoned_ = InternalError(
        StrCat("WAL self-heal truncation failed after '", cause.ToString(),
               "': ", std::strerror(errno), "; reopen the database to "
               "recover"));
  }
  file_size_ = durable_size_;
  next_offset_ = durable_size_;
}

Result<WalWriter::Ticket> WalWriter::Enqueue(std::string payload,
                                             bool applied_early) {
  std::string frame = FrameRecord(payload);
  std::lock_guard<std::mutex> lock(mu_);
  if (!poisoned_.ok()) return poisoned_;
  if (!fenced_.ok()) return fenced_;
  Ticket ticket;
  ticket.epoch = flush_epoch_;
  pending_ += frame;
  ++pending_records_;
  pending_applied_early_ |= applied_early;
  next_offset_ += frame.size();
  ticket.target = next_offset_;
  return ticket;
}

Status WalWriter::WaitDurable(const Ticket& ticket, obs::ObsContext obs) {
  std::unique_lock<std::mutex> lock(mu_);
  // durable_size_ must be checked before the epoch: a record can be durable
  // even if a *later* batch failed and bumped the epoch.
  while (durable_size_ < ticket.target) {
    if (flush_epoch_ != ticket.epoch) {
      // A failed flush dropped every record not yet durable, this one
      // included (SelfHealLocked clears both the in-flight batch and
      // pending_).
      return last_flush_error_;
    }
    if (flushing_) {
      // A leader is writing; this record is either in its batch or in
      // pending_ behind it. Wait for the verdict, then re-evaluate.
      cv_.wait(lock);
      continue;
    }
    flushing_ = true;
    std::string batch = std::move(pending_);
    uint64_t batch_records = pending_records_;
    const bool batch_applied_early = pending_applied_early_;
    pending_.clear();
    pending_records_ = 0;
    pending_applied_early_ = false;
    lock.unlock();
    Status status = WriteAndSync(batch);
    lock.lock();
    flushing_ = false;
    if (status.ok()) {
      file_size_ += batch.size();
      durable_size_ = file_size_;
      ++fsyncs_;
      if (batch_records > 1) ++group_batches_;
      obs::MetricsRegistry::Add(obs.metrics, "persist.wal_fsyncs");
      obs::MetricsRegistry::Add(obs.metrics, "persist.wal_bytes",
                                batch.size());
      if (batch_records > 1) {
        obs::MetricsRegistry::Add(obs.metrics, "persist.group_batches");
      }
    } else {
      SelfHealLocked(status, batch_applied_early);
      cv_.notify_all();
      return status;
    }
    cv_.notify_all();
  }
  return Status::Ok();
}

Status WalWriter::AppendDurable(std::string payload, obs::ObsContext obs) {
  if (options_.group_commit) {
    DEDDB_ASSIGN_OR_RETURN(Ticket ticket, Enqueue(std::move(payload)));
    return WaitDurable(ticket, obs);
  }

  std::string frame = FrameRecord(payload);
  std::unique_lock<std::mutex> lock(mu_);
  if (!poisoned_.ok()) return poisoned_;

  {
    // Degraded mode for the throughput comparison: one write+fsync per
    // record, serialized.
    while (flushing_) cv_.wait(lock);
    if (!poisoned_.ok()) return poisoned_;
    flushing_ = true;
    lock.unlock();
    Status status = WriteAndSync(frame);
    lock.lock();
    flushing_ = false;
    if (status.ok()) {
      file_size_ += frame.size();
      durable_size_ = file_size_;
      next_offset_ = file_size_;
      ++fsyncs_;
      obs::MetricsRegistry::Add(obs.metrics, "persist.wal_fsyncs");
      obs::MetricsRegistry::Add(obs.metrics, "persist.wal_bytes",
                                frame.size());
    } else {
      SelfHealLocked(status, /*batch_applied_early=*/false);
    }
    cv_.notify_all();
    return status;
  }
}

Status WalWriter::Sync(obs::ObsContext obs) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!poisoned_.ok()) return poisoned_;
  while (flushing_) cv_.wait(lock);
  if (pending_.empty()) return Status::Ok();
  std::string batch = std::move(pending_);
  const bool batch_applied_early = pending_applied_early_;
  pending_.clear();
  pending_records_ = 0;
  pending_applied_early_ = false;
  flushing_ = true;
  lock.unlock();
  Status status = WriteAndSync(batch);
  lock.lock();
  flushing_ = false;
  if (status.ok()) {
    file_size_ += batch.size();
    durable_size_ = file_size_;
    ++fsyncs_;
    obs::MetricsRegistry::Add(obs.metrics, "persist.wal_fsyncs");
  } else {
    SelfHealLocked(status, batch_applied_early);
  }
  cv_.notify_all();
  return status;
}

}  // namespace deddb::persist
