#ifndef DEDDB_CORE_COMMIT_DEDUP_H_
#define DEDDB_CORE_COMMIT_DEDUP_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "persist/wal.h"
#include "util/status.h"

namespace deddb {

/// What a dedup lookup concluded about a tokened write (see CommitDedup).
enum class DedupVerdict {
  kFresh,      // never seen: execute it
  kDuplicate,  // already committed: answer with the recorded version
  kTooOld,     // older than the client's retained window: ambiguous, reject
  kRejected,   // answered with a rejection before: refuse it, never execute
};

struct DedupResult {
  DedupVerdict verdict = DedupVerdict::kFresh;
  uint64_t version = 0;  // commit version, kDuplicate only
};

/// Bounded memory of committed tokened writes, the server side of the
/// exactly-once contract: a retried `(client_id, request_seq)` whose first
/// attempt committed is recognized here and answered with the original
/// commit version instead of being applied again.
///
/// Committed writes are recorded with their version. Rejected writes are
/// recorded too, as tombstones: the client took the rejection as final, so
/// a stale copy of the same write must not run later against a newer state.
/// Such a copy exists when an earlier attempt, sent on a connection the
/// client has since abandoned, is admitted after the retry was answered.
///
/// Each client's window is a fixed ring keyed by `request_seq mod window`,
/// so Record and Lookup are allocation-free O(1) on the writer thread's
/// commit path — a commit evicts exactly the seq that reused its slot.
///
/// Bounds (both caps evict silently, so the table cannot grow with client
/// churn):
///   * per client, a committed seq stays retained until a later commit lands
///     on its slot (seq + k*window for some k>0). For clients that number
///     requests densely this is exactly the most recent `window_per_client`
///     seqs. A seq at or below the client's high-water mark that is no
///     longer retained is ambiguous — it may or may not have committed — and
///     reports kTooOld so the caller rejects it as non-retryable rather than
///     guessing. Clients that keep in-flight counts below the window never
///     hit this.
///   * at most `max_clients` clients are tracked; the least recently used
///     is dropped. A dropped client that returns loses its high-water mark,
///     so its stale retries are indistinguishable from fresh writes — size
///     the cap to the population, not the connection count.
///
/// Not internally synchronized: DeductiveDatabase guards it with commit_mu_
/// like the rest of the commit state.
class CommitDedup {
 public:
  struct Options {
    size_t window_per_client = 256;
    size_t max_clients = 1024;
  };

  CommitDedup() : CommitDedup(Options{}) {}
  explicit CommitDedup(Options options) : options_(options) {}

  /// Classifies `token` (which must be present()).
  DedupResult Lookup(const persist::CommitToken& token) const;

  /// Records that `token`'s write committed at `version`. Recording an
  /// already-recorded token is a no-op (replay idempotence).
  void Record(const persist::CommitToken& token, uint64_t version);

  /// Records that `token`'s write was answered with a rejection and applied
  /// nothing: later lookups report kRejected. A seq already recorded as
  /// committed stays committed (the rejected request was a copy of it).
  void RecordRejected(const persist::CommitToken& token);

  size_t client_count() const { return clients_.size(); }

 private:
  struct Slot {
    uint64_t seq = 0;
    uint64_t version = 0;
    bool used = false;
    bool rejected = false;  // a tombstone: `version` is meaningless
  };
  struct ClientWindow {
    std::vector<Slot> slots;  // ring of window_per_client, indexed seq % size
    uint64_t max_seq = 0;     // high-water mark
    uint64_t last_touch = 0;  // LRU tick
  };

  void Touch(ClientWindow* window) const;
  void Store(const persist::CommitToken& token, uint64_t version,
             bool rejected);

  Options options_;
  std::unordered_map<uint64_t, ClientWindow> clients_;
  mutable uint64_t tick_ = 0;
};

/// The non-retryable kFailedPrecondition a tokened write gets when its
/// lookup says kTooOld or kRejected; Ok for kFresh and kDuplicate.
Status DedupRefusal(DedupVerdict verdict, const persist::CommitToken& token);

}  // namespace deddb

#endif  // DEDDB_CORE_COMMIT_DEDUP_H_
