#include "core/commit_dedup.h"

#include <cassert>

#include "util/strings.h"

namespace deddb {

void CommitDedup::Touch(ClientWindow* window) const {
  window->last_touch = ++tick_;
}

DedupResult CommitDedup::Lookup(const persist::CommitToken& token) const {
  assert(token.present());
  auto it = clients_.find(token.client_id);
  if (it == clients_.end()) return DedupResult{DedupVerdict::kFresh, 0};
  const ClientWindow& window = it->second;
  Touch(const_cast<ClientWindow*>(&window));
  const Slot& slot = window.slots[token.request_seq % window.slots.size()];
  if (slot.used && slot.seq == token.request_seq) {
    if (slot.rejected) return DedupResult{DedupVerdict::kRejected, 0};
    return DedupResult{DedupVerdict::kDuplicate, slot.version};
  }
  if (token.request_seq <= window.max_seq) {
    // At or below the high-water mark but not retained: either it committed
    // and its slot was reused, or it never committed. Refuse to guess.
    return DedupResult{DedupVerdict::kTooOld, 0};
  }
  return DedupResult{DedupVerdict::kFresh, 0};
}

void CommitDedup::Record(const persist::CommitToken& token, uint64_t version) {
  Store(token, version, /*rejected=*/false);
}

void CommitDedup::RecordRejected(const persist::CommitToken& token) {
  Store(token, 0, /*rejected=*/true);
}

void CommitDedup::Store(const persist::CommitToken& token, uint64_t version,
                        bool rejected) {
  assert(token.present());
  auto it = clients_.find(token.client_id);
  if (it == clients_.end()) {
    if (clients_.size() >= options_.max_clients) {
      // Evict the least recently used client wholesale.
      auto victim = clients_.begin();
      for (auto cand = clients_.begin(); cand != clients_.end(); ++cand) {
        if (cand->second.last_touch < victim->second.last_touch) {
          victim = cand;
        }
      }
      clients_.erase(victim);
    }
    it = clients_.emplace(token.client_id, ClientWindow{}).first;
    it->second.slots.resize(options_.window_per_client);
  }
  ClientWindow& window = it->second;
  Touch(&window);
  Slot& slot = window.slots[token.request_seq % window.slots.size()];
  // Never let an out-of-order re-record (replay idempotence) clobber a
  // newer commit that already owns the slot, and never let a rejection of
  // a copy overwrite the commit of the same seq: that write did commit.
  const bool keeps_commit = rejected && slot.used &&
                            slot.seq == token.request_seq && !slot.rejected;
  if (!keeps_commit && (!slot.used || token.request_seq >= slot.seq)) {
    slot.seq = token.request_seq;
    slot.version = version;
    slot.used = true;
    slot.rejected = rejected;
  }
  if (token.request_seq > window.max_seq) window.max_seq = token.request_seq;
}

Status DedupRefusal(DedupVerdict verdict, const persist::CommitToken& token) {
  switch (verdict) {
    case DedupVerdict::kFresh:
    case DedupVerdict::kDuplicate:
      return Status::Ok();
    case DedupVerdict::kTooOld:
      // The seq fell out of the bounded window, so committed-vs-not is
      // unknowable — ambiguity must surface, not resolve to a guess.
      return FailedPreconditionError(
          StrCat("request_seq ", token.request_seq, " of client ",
                 token.client_id,
                 " predates the idempotency window; outcome unknown"));
    case DedupVerdict::kRejected:
      return FailedPreconditionError(
          StrCat("request_seq ", token.request_seq, " of client ",
                 token.client_id, " was already rejected; nothing applied"));
  }
  return Status::Ok();
}

}  // namespace deddb
