// The paper's running example (§5.1) at 20k people, served two ways:
//
//   employment_oltp  4 clients, each 80% ground point queries on
//                    Unemp/Alert/Ic1 over all people, 15% tokened Process
//                    transactions (hire/fire on its own people; every fifth
//                    one built to violate Ic1), 5% Translate of
//                    δUnemp(p)/ιUnemp(p) on its own people.
//   durable_writes   3 clients sending back-to-back tokened Apply
//                    transactions (1-4 toggles on disjoint people) and one
//                    connection holding a standing query on Unemp.
//
// The answer model is a per-person flag history indexed by commit version;
// it evaluates Unemp/Alert/Ic1 and the expected view-update translations
// itself, sharing no code with the engine's evaluator or interpreters.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <set>
#include <thread>

#include "core/update_processor.h"
#include "eval/fact_provider.h"
#include "eval/query_engine.h"
#include "parser/parser.h"
#include "persist/wal.h"
#include "server/protocol.h"
#include "workload.h"

namespace perfbench {

using deddb::Atom;
using deddb::DeductiveDatabase;
using deddb::RequestedEvent;
using deddb::Status;
using deddb::SymbolId;
using deddb::SymbolTable;
using deddb::Term;
using deddb::Transaction;
using deddb::UpdateRequest;
using deddb::server::Client;

namespace {

constexpr size_t kPeople = 20000;
constexpr int kOltpClients = 4;
constexpr int kDurableWriters = 3;
/// The subscriber's queued-delta bound. The server default (64) is 30 to
/// 110 ms of commits here: a shared machine that parks the single pusher
/// thread that long ends the stream with an overflow gap, which is the
/// policy working, not a lost delta. With room for every commit of a run,
/// a gap, a lost or a repeated push is a fault of the CDC path.
constexpr uint32_t kSubscriberQueue = 1u << 20;
constexpr unsigned kQueryPct = 80;
constexpr unsigned kProcessPct = 15;  // the rest (5%) translates
constexpr uint64_t kViolateEvery = 5;  // every 5th Process violates Ic1

constexpr const char* kSchema = R"(
  base La/1.
  base Works/1.
  base U_benefit/1.
  base Skilled/1.
  view Unemp/1.
  ic Ic1/1.
  ic Ic2/1.
  condition Alert/1.

  Unemp(x) <- La(x) & not Works(x).
  Ic1(x) <- Unemp(x) & not U_benefit(x).
  Ic2(x) <- Works(x) & U_benefit(x).
  Alert(x) <- Unemp(x) & Skilled(x).
)";

enum Flag : uint8_t { kLa = 1, kWorks = 2, kBenefit = 4, kSkilled = 8 };
constexpr const char* kBaseNames[4] = {"La", "Works", "U_benefit", "Skilled"};
constexpr uint8_t kBaseFlags[4] = {kLa, kWorks, kBenefit, kSkilled};
constexpr const char* kQueryNames[3] = {"Unemp", "Alert", "Ic1"};

bool IsUnemp(uint8_t f) { return (f & kLa) != 0 && (f & kWorks) == 0; }

bool Expected(int query, uint8_t f) {
  switch (query) {
    case 0: return IsUnemp(f);
    case 1: return IsUnemp(f) && (f & kSkilled) != 0;
    default: return IsUnemp(f) && (f & kBenefit) == 0;
  }
}

std::string PersonName(size_t i) { return "P" + std::to_string(i); }

/// "P<i>" -> i; anything else -> -1.
long PersonIndex(const std::string& name) {
  if (name.size() < 2 || name[0] != 'P') return -1;
  long v = 0;
  for (size_t i = 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    v = v * 10 + (name[i] - '0');
  }
  return v;
}

/// The answer model: every person's base flags as a function of the commit
/// version. Entry 0 is the loaded state; each acknowledged commit appends
/// (version, flags) for the people it touched. During a run only a person's
/// owning client appends, and other threads read only after the join.
class Population {
 public:
  /// People plus one sentinel slot (index kPeople, initially empty) that
  /// durable_writes commits last to mark the end of its push stream.
  void Generate(uint64_t seed) {
    Gen gen(StreamSeed(seed, 1));
    history_.assign(kPeople + 1, {});
    for (size_t p = 0; p < kPeople; ++p) {
      bool la = gen.Chance(80);
      bool works = la && gen.Chance(60);
      bool skilled = gen.Chance(30);
      uint8_t f = (la ? kLa : 0) | (works ? kWorks : 0) |
                  (la && !works ? kBenefit : 0) | (skilled ? kSkilled : 0);
      history_[p].emplace_back(0, f);
    }
    history_[kPeople].emplace_back(0, 0);
  }

  size_t size() const { return history_.size(); }
  uint8_t Current(size_t p) const { return history_[p].back().second; }
  uint8_t Initial(size_t p) const { return history_[p].front().second; }
  void Commit(size_t p, uint64_t version, uint8_t flags) {
    history_[p].emplace_back(version, flags);
  }
  /// Flags as of commit `version`.
  uint8_t At(size_t p, uint64_t version) const {
    const auto& h = history_[p];
    auto it = std::upper_bound(
        h.begin(), h.end(), version,
        [](uint64_t v, const std::pair<uint64_t, uint8_t>& e) {
          return v < e.first;
        });
    return (it == h.begin() ? h.front() : *(it - 1)).second;
  }

 private:
  std::vector<std::vector<std::pair<uint64_t, uint8_t>>> history_;
};

Status LoadEmployment(DeductiveDatabase* db, const Population& pop) {
  DEDDB_RETURN_IF_ERROR(deddb::LoadProgram(db, kSchema).status());
  for (size_t p = 0; p < pop.size(); ++p) {
    std::string name = PersonName(p);
    for (int b = 0; b < 4; ++b) {
      if ((pop.Initial(p) & kBaseFlags[b]) == 0) continue;
      DEDDB_ASSIGN_OR_RETURN(Atom atom, db->GroundAtom(kBaseNames[b], {name}));
      DEDDB_RETURN_IF_ERROR(db->AddFact(atom));
    }
  }
  return Status::Ok();
}

// ---- Generated operations ---------------------------------------------------

/// One base-fact change: set or clear flag `base` of `person`.
struct Event {
  size_t person = 0;
  int base = 0;
  bool insert = true;
};

struct WriteOp {
  std::vector<Event> events;
  bool violates = false;  // built to violate Ic1 (expect rejection)
};

/// A client's own people: those with index ≡ client (mod clients).
size_t OwnPerson(Gen& gen, int client, int clients) {
  size_t slots = (kPeople - client + clients - 1) / clients;
  return client + static_cast<size_t>(clients) * gen.Below(slots);
}

/// A random own person not yet in `chosen` whose flags satisfy `want`, or
/// kPeople when none turns up in a bounded number of draws.
template <typename Want>
size_t PickOwn(Gen& gen, const Population& pop, int client, int clients,
               const std::vector<size_t>& chosen, Want want) {
  for (int tries = 0; tries < 200; ++tries) {
    size_t p = OwnPerson(gen, client, clients);
    if (!want(pop.Current(p))) continue;
    if (std::find(chosen.begin(), chosen.end(), p) != chosen.end()) continue;
    return p;
  }
  return kPeople;
}

/// 1-4 hire/fire actions on distinct labour-age own people, all keeping
/// Ic1/Ic2; when `violate`, the first is a fire without benefit (Ic1). Hire
/// and fire are equally likely, so the employed share does not drift over a
/// run and the cost of an operation stays the same from start to end.
WriteOp HireFire(Gen& gen, const Population& pop, int client, int clients,
                 bool violate) {
  WriteOp op;
  op.violates = violate;
  size_t want = 1 + gen.Below(4);
  std::vector<size_t> chosen;
  while (chosen.size() < want) {
    bool fire = (violate && chosen.empty()) || gen.Chance(50);
    size_t p = PickOwn(gen, pop, client, clients, chosen, [fire](uint8_t f) {
      return (f & kLa) != 0 && ((f & kWorks) != 0) == fire;
    });
    if (p == kPeople) break;
    chosen.push_back(p);
    if (fire) {
      op.events.push_back({p, 1, false});
      if (!(violate && chosen.size() == 1)) op.events.push_back({p, 2, true});
    } else {
      op.events.push_back({p, 1, true});
      if (pop.Current(p) & kBenefit) op.events.push_back({p, 2, false});
    }
  }
  return op;
}

/// 1-4 base-fact changes on distinct own people (durable_writes). Each picks
/// a relation, then insert or delete with equal chance, then a person for
/// whom that change is valid, so no relation's size drifts over a run.
WriteOp Toggles(Gen& gen, const Population& pop, int client, int clients) {
  WriteOp op;
  size_t want = 1 + gen.Below(4);
  std::vector<size_t> chosen;
  while (chosen.size() < want) {
    int b = static_cast<int>(gen.Below(4));
    bool insert = gen.Chance(50);
    size_t p = PickOwn(gen, pop, client, clients, chosen, [&](uint8_t f) {
      return ((f & kBaseFlags[b]) == 0) == insert;
    });
    if (p == kPeople) continue;
    chosen.push_back(p);
    op.events.push_back({p, b, insert});
  }
  return op;
}

uint8_t Applied(uint8_t f, const Event& e) {
  return e.insert ? (f | kBaseFlags[e.base]) : (f & ~kBaseFlags[e.base]);
}

/// Records an acknowledged commit in the model; returns the Unemp delta it
/// implies as (person, inserted) pairs.
std::vector<std::pair<size_t, bool>> CommitToModel(Population* pop,
                                                   const WriteOp& op,
                                                   uint64_t version) {
  std::map<size_t, uint8_t> after;
  for (const Event& e : op.events) {
    auto it = after.find(e.person);
    uint8_t f = it == after.end() ? pop->Current(e.person) : it->second;
    after[e.person] = Applied(f, e);
  }
  std::vector<std::pair<size_t, bool>> delta;
  for (const auto& [p, f] : after) {
    bool was = IsUnemp(pop->Current(p));
    if (IsUnemp(f) != was) delta.emplace_back(p, !was);
    pop->Commit(p, version, f);
  }
  return delta;
}

/// Builds the transaction for `op` with atoms from `make`.
template <typename MakeAtom>
Transaction BuildTxn(const WriteOp& op, MakeAtom make) {
  Transaction txn;
  for (const Event& e : op.events) {
    Atom atom = make(kBaseNames[e.base], PersonName(e.person));
    CheckOk(e.insert ? txn.AddInsert(atom) : txn.AddDelete(atom), "txn");
  }
  return txn;
}

// ---- Translations -----------------------------------------------------------

/// Canonical text of one alternative: sorted "+Pred(P1)"/"-Pred(P1)".
std::string Canonical(const Transaction& txn, const SymbolTable& symbols) {
  std::vector<std::string> parts;
  auto add = [&](char sign, SymbolId pred, const deddb::Tuple& t) {
    std::string s(1, sign);
    s += symbols.NameOf(pred) + "(";
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) s += ",";
      s += symbols.NameOf(t[i]);
    }
    parts.push_back(s + ")");
  };
  txn.inserts().ForEach([&](SymbolId p, const deddb::Tuple& t) { add('+', p, t); });
  txn.deletes().ForEach([&](SymbolId p, const deddb::Tuple& t) { add('-', p, t); });
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (const std::string& s : parts) out += (out.empty() ? "" : ",") + s;
  return out;
}

std::string CanonicalSet(std::vector<std::string> alternatives) {
  std::sort(alternatives.begin(), alternatives.end());
  std::string out;
  for (const std::string& s : alternatives) out += "{" + s + "}";
  return out;
}

/// The request this benchmark sends for person p in state f: δUnemp(p) when
/// p is unemployed, ιUnemp(p) otherwise.
bool TranslateIsDeletion(uint8_t f) { return IsUnemp(f); }

/// Minimal translations of that request under Unemp(x) <- La(x) & ¬Works(x)
/// (Example 5.2 for the deletion).
std::string ExpectedTranslations(size_t p, uint8_t f) {
  std::string n = "(" + PersonName(p) + ")";
  if (IsUnemp(f)) return CanonicalSet({"-La" + n, "+Works" + n});
  bool la = f & kLa, works = f & kWorks;
  if (!la && !works) return CanonicalSet({"+La" + n});
  if (la && works) return CanonicalSet({"-Works" + n});
  return CanonicalSet({"+La" + n + ",-Works" + n});
}

UpdateRequest UnempRequest(SymbolTable* symbols, size_t p, bool deletion) {
  RequestedEvent event;
  event.positive = true;
  event.is_insert = !deletion;
  event.predicate = symbols->Intern("Unemp");
  event.args = {Term::MakeConstant(symbols->Intern(PersonName(p)))};
  UpdateRequest request;
  request.events.push_back(std::move(event));
  return request;
}

Atom MakeGround(SymbolTable* symbols, const char* pred, const std::string& c) {
  return Atom(symbols->Intern(pred),
              {Term::MakeConstant(symbols->Intern(c))});
}

// ---- The oltp operation stream ---------------------------------------------

enum class OpKind { kQuery, kProcess, kTranslate };

struct OltpOp {
  OpKind kind = OpKind::kQuery;
  size_t person = 0;
  int query = 0;  // index into kQueryNames
  WriteOp write;
};

/// One client's generated operation stream; `pop` supplies the current state
/// of the client's own people, so every write is valid when generated.
class OltpStream {
 public:
  OltpStream(uint64_t seed, int client) : gen_(StreamSeed(seed, 2, client)), client_(client) {}

  OltpOp Next(const Population& pop) {
    OltpOp op;
    unsigned r = static_cast<unsigned>(gen_.Below(100));
    if (r < kQueryPct) {
      op.kind = OpKind::kQuery;
      op.person = gen_.Below(kPeople);
      op.query = static_cast<int>(gen_.Below(3));
    } else if (r < kQueryPct + kProcessPct) {
      op.kind = OpKind::kProcess;
      bool violate = ++processes_ % kViolateEvery == 0;
      op.write = HireFire(gen_, pop, client_, kOltpClients, violate);
    } else {
      op.kind = OpKind::kTranslate;
      op.person = OwnPerson(gen_, client_, kOltpClients);
    }
    return op;
  }

 private:
  Gen gen_;
  int client_;
  uint64_t processes_ = 0;
};

struct QueryObs {
  uint32_t person;
  uint8_t query;
  bool answer;
  uint64_t version;
};

/// Per-client outcome of a concurrent run, merged after the join.
struct ClientLog {
  std::map<std::string, Samples> latency;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t commits = 0;
  std::vector<QueryObs> queries;
  std::set<uint64_t> versions;
  std::map<std::string, uint64_t> checks;
  std::vector<std::string> wrong;
  std::string first_error;

  void Fail(const Status& status) {
    ++failed;
    if (first_error.empty()) first_error = status.ToString();
  }
};

void Merge(std::vector<ClientLog>& logs, Phase* phase, RunResult* out) {
  for (ClientLog& log : logs) {
    for (auto& [cls, samples] : log.latency) phase->latency[cls].Append(samples);
    phase->attempted += log.attempted;
    phase->failed += log.failed;
    phase->commits += log.commits;
    phase->repins += log.versions.size();
    for (auto& [name, n] : log.checks) out->checks[name] += n;
    for (auto& w : log.wrong) out->Wrong(w);
    if (!log.first_error.empty()) out->info["first_error"] = log.first_error;
  }
}

void CheckBaseFacts(DeductiveDatabase* db, const Population& pop,
                    RunResult* out) {
  const deddb::FactStore& facts = db->database().facts();
  SymbolTable& symbols = db->symbols();
  SymbolId preds[4];
  for (int b = 0; b < 4; ++b) {
    preds[b] = Unwrap(db->database().FindPredicate(kBaseNames[b]), "pred");
  }
  for (size_t p = 0; p < pop.size(); ++p) {
    deddb::Tuple t{symbols.Intern(PersonName(p))};
    for (int b = 0; b < 4; ++b) {
      bool want = (pop.Current(p) & kBaseFlags[b]) != 0;
      if (facts.Contains(preds[b], t) != want) {
        out->Wrong("recovered " + std::string(kBaseNames[b]) + "(" +
                   PersonName(p) + ") " + (want ? "missing" : "unexpected"));
      }
      ++out->checks["recovered_facts"];
    }
  }
}

/// Commits `count` toggle transactions straight through the facade.
void ToggleFixture(DeductiveDatabase* db, Population* pop, uint64_t seed,
                   int count) {
  Gen gen(StreamSeed(seed, 9));
  for (int i = 0; i < count; ++i) {
    WriteOp op = Toggles(gen, *pop, 0, 1);
    Transaction txn = BuildTxn(op, [&](const char* pred, const std::string& c) {
      return Unwrap(db->GroundAtom(pred, {c}), "atom");
    });
    CheckOk(db->Apply(txn), "fixture apply");
    CommitToModel(pop, op, db->version());
  }
}

// ---- Per-layer replay -------------------------------------------------------

/// Serial replay of one client's generated stream on an in-memory twin of
/// the served state, with the benchmark's spans around each public call the
/// server makes for that operation.
class EmploymentReplay {
 public:
  EmploymentReplay(uint64_t seed, const std::string& scratch, LayerStats* L,
                   RunResult* out)
      : seed_(seed), L_(L), out_(out) {
    pop_.Generate(seed);
    main_ = MakeTwin();
    direct_ = MakeTwin();
    session_ = Unwrap(main_->BeginSession(), "twin session");
    std::filesystem::create_directories(scratch);
    wal_ = Unwrap(deddb::persist::WalWriter::Create(scratch + "/replay.wal", 0,
                                                     {}),
                  "replay wal");
  }

  /// Client 0's employment_oltp stream.
  void RunOltp(int max_ops) {
    OltpStream stream(seed_, 0);
    auto begin = Clock::now();
    for (int i = 0; i < max_ops && SecondsSince(begin) < kBudgetS; ++i) {
      OltpOp op = stream.Next(pop_);
      switch (op.kind) {
        case OpKind::kQuery: Query(op.person, op.query); break;
        case OpKind::kProcess: Process(op.write); break;
        case OpKind::kTranslate: Translate(op.person); break;
      }
    }
    Finish();
  }

  /// Writer 0's durable_writes stream.
  void RunDurable(int max_ops) {
    Gen gen(StreamSeed(seed_, 3, 0));
    auto begin = Clock::now();
    for (int i = 0; i < max_ops && SecondsSince(begin) < kBudgetS; ++i) {
      WriteOp op = Toggles(gen, pop_, 0, kDurableWriters);
      ApplyDirect(op);
      // The standing query's answer is Unemp; probe it on the touched
      // people once the fresh pin has answered its first request.
      for (const Event& e : op.events) Query(e.person, 0);
    }
    Finish();
  }

 private:
  static constexpr double kBudgetS = 4.0;

  std::unique_ptr<DeductiveDatabase> MakeTwin() {
    auto twin = std::make_unique<DeductiveDatabase>();
    CheckOk(LoadEmployment(twin.get(), pop_), "twin load");
    CheckOk(twin->Compiled().status(), "twin compile");
    CheckOk(twin->IsConsistent().status(), "twin consistency");
    return twin;
  }

  SymbolTable* server_syms() { return &main_->symbols(); }

  void Query(size_t person, int query) {
    using namespace deddb::server;  // NOLINT
    Wire wire;
    QueryRequest req;
    req.patterns.push_back(
        MakeGround(&client_syms_, kQueryNames[query], PersonName(person)));
    QueryRequest got = RoundTrip(
        req, FrameType::kQuery,
        [&](const QueryRequest& r) { return EncodeQueryRequest(r, client_syms_); },
        [&](std::string_view b) { return DecodeQueryRequest(b, server_syms()); },
        &wire);
    const Atom& goal = got.patterns[0];
    auto t0 = Clock::now();
    bool holds = Unwrap(session_->Holds(goal), "holds");
    double eval_us = MicrosBetween(t0, Clock::now());
    if (warm_) L_->Span("eval.point_query_us", eval_us);
    warm_ = true;
    QueryReply reply;
    reply.version = session_->version();
    reply.answers.emplace_back();
    if (holds) reply.answers[0].push_back({goal.args()[0].constant()});
    RoundTrip(
        reply, FrameType::kQueryOk,
        [&](const QueryReply& r) { return EncodeQueryReply(r, *server_syms()); },
        [&](std::string_view b) { return DecodeQueryReply(b, &client_syms_); },
        &wire);
    if (holds != Expected(query, pop_.Current(person))) {
      out_->Wrong("replay: " + std::string(kQueryNames[query]) + "(" +
                  PersonName(person) + ") answered " + (holds ? "true" : "false"));
    }
    ++out_->checks["replay_query"];
    Wired(wire);
    L_->Span("self.query", wire.us + eval_us);
  }

  void Process(const WriteOp& op) {
    using namespace deddb::server;  // NOLINT
    Wire wire;
    ProcessRequest req;
    req.transaction = ClientTxn(op);
    req.token = {1, ++seq_};
    ProcessRequest got = RoundTrip(
        req, FrameType::kProcess,
        [&](const ProcessRequest& r) { return EncodeProcessRequest(r, client_syms_); },
        [&](std::string_view b) { return DecodeProcessRequest(b, server_syms()); },
        &wire);
    TimePreState(got.transaction);
    deddb::UpdateProcessor processor(main_.get());
    auto t0 = Clock::now();
    auto report =
        Unwrap(processor.ProcessTransaction(got.transaction), "process");
    double process_us = MicrosBetween(t0, Clock::now());
    L_->Span("core.process_us", process_us);
    if (report.accepted == op.violates) {
      out_->Wrong("replay: Process accepted=" +
                  std::string(report.accepted ? "true" : "false"));
    }
    ++out_->checks["replay_process"];
    ProcessReply reply;
    reply.accepted = report.accepted;
    reply.version = main_->version();
    RoundTrip(
        reply, FrameType::kProcessOk,
        [&](const ProcessReply& r) { return EncodeProcessReply(r); },
        [&](std::string_view b) { return DecodeProcessReply(b); }, &wire);
    double self = wire.us + process_us;
    if (report.accepted) {
      // The same commit through the direct path, on the twin kept for it
      // (a raw Apply on `main_` would drop its consistency cache).
      TimedDirectApply(op);
      CommitToModel(&pop_, op, main_->version());
      self += Committed(got.transaction, deddb::persist::CommitOrigin::kProcessor);
    }
    Wired(wire);
    L_->Span("self.process", self);
  }

  void ApplyDirect(const WriteOp& op) {
    using namespace deddb::server;  // NOLINT
    Wire wire;
    ApplyRequest req;
    req.transaction = ClientTxn(op);
    req.token = {1, ++seq_};
    ApplyRequest got = RoundTrip(
        req, FrameType::kApply,
        [&](const ApplyRequest& r) { return EncodeApplyRequest(r, client_syms_); },
        [&](std::string_view b) { return DecodeApplyRequest(b, server_syms()); },
        &wire);
    TimePreState(got.transaction);
    // Timed on the twin no session pins, as on the server this mix runs
    // against (no reader, so no copy-on-write clone at commit); `main_`
    // follows untimed so its sessions can probe the committed state.
    double apply_us = TimedDirectApply(op);
    CheckOk(main_->Apply(got.transaction), "apply");
    CommitToModel(&pop_, op, main_->version());
    ApplyReply reply{main_->version()};
    RoundTrip(
        reply, FrameType::kApplyOk,
        [&](const ApplyReply& r) { return EncodeApplyReply(r); },
        [&](std::string_view b) { return DecodeApplyReply(b); }, &wire);
    double self = wire.us + apply_us +
                  Committed(got.transaction, deddb::persist::CommitOrigin::kDirect);
    Wired(wire);
    L_->Span("self.apply", self);
  }

  void Translate(size_t person) {
    using namespace deddb::server;  // NOLINT
    Wire wire;
    bool deletion = TranslateIsDeletion(pop_.Current(person));
    TranslateRequest req;
    req.request = UnempRequest(&client_syms_, person, deletion);
    TranslateRequest got = RoundTrip(
        req, FrameType::kTranslate,
        [&](const TranslateRequest& r) { return EncodeTranslateRequest(r, client_syms_); },
        [&](std::string_view b) { return DecodeTranslateRequest(b, server_syms()); },
        &wire);
    auto t0 = Clock::now();
    auto result =
        Unwrap(session_->TranslateViewUpdate(got.request), "translate");
    double down_us = MicrosBetween(t0, Clock::now());
    L_->Span("interp.downward_us", down_us);
    warm_ = true;
    TranslateReply reply;
    for (const auto& t : result.translations) {
      reply.alternatives.push_back(t.transaction);
    }
    TranslateReply back = RoundTrip(
        reply, FrameType::kTranslateOk,
        [&](const TranslateReply& r) { return EncodeTranslateReply(r, *server_syms()); },
        [&](std::string_view b) { return DecodeTranslateReply(b, &client_syms_); },
        &wire);
    std::vector<std::string> alts;
    for (const Transaction& t : back.alternatives) {
      alts.push_back(Canonical(t, client_syms_));
    }
    if (CanonicalSet(alts) != ExpectedTranslations(person, pop_.Current(person))) {
      out_->Wrong("replay: translate " + PersonName(person) + " gave " +
                  CanonicalSet(alts));
    }
    ++out_->checks["replay_translate"];
    Wired(wire);
    L_->Span("self.translate", wire.us + down_us);
    // Sessions strip the facade's sinks, so the DNF size counter comes from
    // the same request on the direct twin with a registry attached.
    direct_->set_observability({.tracer = nullptr, .metrics = &dnf_metrics_});
    CheckOk(direct_->TranslateViewUpdate(
                    UnempRequest(&direct_->symbols(), person, deletion))
                .status(),
            "dnf count");
    direct_->set_observability({});
    ++translates_;
  }

  /// DeductiveDatabase::Apply of `op` on `direct_`; returns its time.
  double TimedDirectApply(const WriteOp& op) {
    Transaction txn = BuildTxn(op, [&](const char* p, const std::string& c) {
      return Unwrap(direct_->GroundAtom(p, {c}), "atom");
    });
    auto t0 = Clock::now();
    CheckOk(direct_->Apply(txn), "direct apply");
    double us = MicrosBetween(t0, Clock::now());
    L_->Span("core.apply_us", us);
    return us;
  }

  Transaction ClientTxn(const WriteOp& op) {
    return BuildTxn(op, [&](const char* p, const std::string& c) {
      return MakeGround(&client_syms_, p, c);
    });
  }

  /// Upward interpretation and the copy-on-write apply of a write, both
  /// against the state it is about to change.
  void TimePreState(const Transaction& txn) {
    auto t0 = Clock::now();
    CheckOk(session_->InducedEvents(txn).status(), "upward");
    L_->Span("interp.upward_us", MicrosBetween(t0, Clock::now()));
    t0 = Clock::now();
    deddb::FactStore next = txn.ApplyTo(session_->database().facts());
    L_->Span("storage.txn_apply_us", MicrosBetween(t0, Clock::now()));
  }

  /// Commit-side layers of one committed write: WAL append+sync, snapshot
  /// clone, re-pin, first Domain(), first open Unemp(x) on a fresh session.
  /// Returns the append+sync time (part of the write's self time).
  double Committed(const Transaction& txn, deddb::persist::CommitOrigin origin) {
    auto t0 = Clock::now();
    CheckOk(wal_->AppendDurable(deddb::persist::EncodeCommitPayload(
                                    seq_, origin, txn, main_->symbols()),
                                {}),
            "wal append");
    double append_us = MicrosBetween(t0, Clock::now());
    L_->Span("persist.append_sync_us", append_us);

    t0 = Clock::now();
    std::unique_ptr<deddb::Database> clone = main_->database().CloneSnapshot();
    L_->Span("storage.clone_us", MicrosBetween(t0, Clock::now()));
    clone.reset();

    t0 = Clock::now();
    session_ = Unwrap(main_->BeginSession(), "re-pin");
    L_->Span("core.pin_us", MicrosBetween(t0, Clock::now()));
    warm_ = false;

    t0 = Clock::now();
    CheckOk(main_->Domain().status(), "domain");
    L_->Span("interp.domain_us", MicrosBetween(t0, Clock::now()));

    auto fresh = Unwrap(main_->BeginSession(), "fixpoint session");
    t0 = Clock::now();
    CheckOk(fresh->Solve(OpenUnemp()).status(), "fixpoint");
    L_->Span("eval.fixpoint_us", MicrosBetween(t0, Clock::now()));
    return append_us;
  }

  Atom OpenUnemp() {
    return Atom(Unwrap(main_->database().FindPredicate("Unemp"), "pred"),
                {main_->Variable("x")});
  }

  void Wired(const Wire& wire) {
    L_->Span("server.codec_us", wire.us);
    L_->Span("server.frame_bytes", static_cast<double>(wire.bytes));
  }

  void Finish() {
    if (translates_ > 0) {
      L_->values["interp.dnf_disjuncts"] = Ratio(
          static_cast<double>(dnf_metrics_.histogram("dnf.result_disjuncts").sum),
          static_cast<double>(translates_));
    }
    CountFixpoint(main_->database(), OpenUnemp(), L_);
  }

  uint64_t seed_;
  LayerStats* L_;
  RunResult* out_;
  Population pop_;
  std::unique_ptr<DeductiveDatabase> main_;    // processor path + sessions
  std::unique_ptr<DeductiveDatabase> direct_;  // direct Apply path
  std::unique_ptr<deddb::Session> session_;
  bool warm_ = false;  // session_ has answered since its pin
  std::unique_ptr<deddb::persist::WalWriter> wal_;
  uint64_t seq_ = 0;
  SymbolTable client_syms_;
  deddb::obs::MetricsRegistry dnf_metrics_;
  size_t translates_ = 0;
};

constexpr int kReplayOps = 400;

// ---- employment_oltp --------------------------------------------------------

class EmploymentOltp : public Workload {
 public:
  explicit EmploymentOltp(uint64_t seed) : seed_(seed) {}

  int connections() const override { return kOltpClients; }
  const char* read_class() const override { return kQuery; }
  const char* write_class() const override { return kProcess; }

  void Generate() override { pop_.Generate(seed_); }
  Status Load(DeductiveDatabase* db) const override {
    return LoadEmployment(db, pop_);
  }
  Status Prepare(DeductiveDatabase* db) const override {
    // Event-rule compilation and the first consistency proof are paid once
    // per process by any deployment; keep them out of the measured window.
    DEDDB_RETURN_IF_ERROR(db->Compiled().status());
    return db->IsConsistent().status();
  }

  void Warmup(Service* svc, RunResult* out) override {
    for (int c = 0; c < kOltpClients; ++c) {
      Client& client = *svc->clients[c];
      size_t p = static_cast<size_t>(c);
      auto reply = client.Query({client.GroundAtom("Unemp", {PersonName(p)})});
      CheckOk(reply.status(), "warm-up query");
      if ((reply->answers[0].size() == 1) != IsUnemp(pop_.Initial(p))) {
        out->Wrong("warm-up Unemp(" + PersonName(p) + ")");
      }
      ++out->checks["query"];
    }
  }

  Phase Run(Service* svc, double seconds, RunResult* out) override {
    std::vector<ClientLog> logs(kOltpClients);
    Phase phase;
    RunClients(kOltpClients, seconds, &phase, [&](int c, Clock::time_point deadline) {
      RunClient(*svc->clients[c], c, deadline, &logs[c]);
    });
    // Reads of other clients' people are checked against the model as of
    // the version each reply carries, once every commit is known.
    for (const ClientLog& log : logs) {
      for (const QueryObs& q : log.queries) {
        if (q.answer != Expected(q.query, pop_.At(q.person, q.version))) {
          out->Wrong(std::string(kQueryNames[q.query]) + "(" +
                     PersonName(q.person) + ")@" + std::to_string(q.version) +
                     " answered " + (q.answer ? "true" : "false"));
        }
        ++out->checks["query"];
      }
    }
    Merge(logs, &phase, out);
    return phase;
  }

  void CheckRecovered(DeductiveDatabase* db, RunResult* out) override {
    CheckBaseFacts(db, pop_, out);
  }

  void CommitFixture(DeductiveDatabase* db, int count) override {
    ToggleFixture(db, &pop_, seed_, count);
  }

  void Replay(const std::string& scratch, LayerStats* L,
              RunResult* out) override {
    EmploymentReplay(seed_, scratch, L, out).RunOltp(kReplayOps);
  }

  void Describe(RunResult* out) const override {
    out->info["people"] = std::to_string(kPeople);
    out->info["clients"] = std::to_string(kOltpClients) + " closed-loop";
    out->info["mix"] = "80% query Unemp/Alert/Ic1, 15% Process (1 in " +
                       std::to_string(kViolateEvery) +
                       " violates Ic1), 5% Translate";
  }

 private:
  void RunClient(Client& client, int c, Clock::time_point deadline,
                 ClientLog* log) {
    OltpStream stream(seed_, c);
    while (Clock::now() < deadline) {
      OltpOp op = stream.Next(pop_);
      ++log->attempted;
      auto t0 = Clock::now();
      if (op.kind == OpKind::kQuery) {
        auto reply = client.Query({client.GroundAtom(
            kQueryNames[op.query], {PersonName(op.person)})});
        if (!reply.ok()) { log->Fail(reply.status()); continue; }
        auto done = Clock::now();
        log->latency[kQuery].Add(MicrosBetween(t0, done), done);
        log->queries.push_back({static_cast<uint32_t>(op.person),
                                static_cast<uint8_t>(op.query),
                                reply->answers.size() == 1 &&
                                    reply->answers[0].size() == 1,
                                reply->version});
        log->versions.insert(reply->version);
      } else if (op.kind == OpKind::kProcess) {
        Transaction txn = BuildTxn(op.write, [&](const char* p, const std::string& n) {
          return client.GroundAtom(p, {n});
        });
        auto reply = client.Process(txn);
        if (!reply.ok()) {
          // The outcome is unknown, so this client's people leave the model;
          // stop the client rather than check answers it cannot predict.
          log->Fail(reply.status());
          return;
        }
        auto done = Clock::now();
        log->latency[kProcess].Add(MicrosBetween(t0, done), done);
        if (reply->accepted == op.write.violates) {
          log->wrong.push_back("Process accepted=" +
                               std::string(reply->accepted ? "true" : "false") +
                               " for a transaction that " +
                               (op.write.violates ? "violates" : "keeps") + " Ic1");
        }
        ++log->checks["process"];
        if (reply->accepted) {
          CommitToModel(&pop_, op.write, reply->version);
          ++log->commits;
        }
      } else {
        uint8_t f = pop_.Current(op.person);
        auto reply = client.Translate(
            UnempRequest(&client.symbols(), op.person, TranslateIsDeletion(f)));
        if (!reply.ok()) { log->Fail(reply.status()); continue; }
        auto done = Clock::now();
        log->latency[kTranslate].Add(MicrosBetween(t0, done), done);
        std::vector<std::string> alts;
        for (const Transaction& t : reply->alternatives) {
          alts.push_back(Canonical(t, client.symbols()));
        }
        if (CanonicalSet(alts) != ExpectedTranslations(op.person, f)) {
          log->wrong.push_back("Translate " + PersonName(op.person) + " gave " +
                               CanonicalSet(alts));
        }
        ++log->checks["translate"];
      }
    }
  }

  uint64_t seed_;
  Population pop_;
};

// ---- durable_writes ---------------------------------------------------------

struct CommitRec {
  uint64_t version = 0;
  Clock::time_point sent;
  std::vector<std::pair<size_t, bool>> delta;  // expected Unemp change
};

struct PushRec {
  uint64_t version = 0;
  Clock::time_point received;
  bool gap = false;
  std::vector<size_t> inserts;
  std::vector<size_t> deletes;
};

class DurableWrites : public Workload {
 public:
  explicit DurableWrites(uint64_t seed) : seed_(seed) {}

  int connections() const override { return kDurableWriters + 1; }
  const char* read_class() const override { return kNotify; }
  const char* write_class() const override { return kApply; }

  void Generate() override { pop_.Generate(seed_); }
  Status Load(DeductiveDatabase* db) const override {
    return LoadEmployment(db, pop_);
  }

  void Warmup(Service* svc, RunResult* out) override {
    Client& sub = *svc->clients[kDurableWriters];
    Client::SubscribeOptions options;
    options.max_queued = kSubscriberQueue;
    auto reply =
        sub.Subscribe(sub.MakeAtom("Unemp", {sub.Variable("x")}), options);
    CheckOk(reply.status(), "subscribe");
    view_.clear();
    for (const deddb::Tuple& t : reply->snapshot) {
      view_.insert(PersonIndex(sub.symbols().NameOf(t.back())));
    }
    std::set<long> want;
    for (size_t p = 0; p < pop_.size(); ++p) {
      if (IsUnemp(pop_.Initial(p))) want.insert(static_cast<long>(p));
    }
    if (view_ != want) out->Wrong("subscription snapshot differs from Unemp");
    ++out->checks["subscription_snapshot"];
  }

  Phase Run(Service* svc, double seconds, RunResult* out) override {
    std::vector<ClientLog> logs(kDurableWriters);
    std::vector<std::vector<CommitRec>> commits(kDurableWriters + 1);
    std::vector<PushRec> pushes;
    std::string sub_error;
    std::thread subscriber([&] {
      Client& sub = *svc->clients[kDurableWriters];
      for (;;) {
        auto event = sub.AwaitPush();
        auto received = Clock::now();
        if (!event.ok()) { sub_error = event.status().ToString(); return; }
        PushRec rec;
        rec.received = received;
        rec.gap = event->is_gap;
        rec.version = event->is_gap ? event->gap.version : event->delta.version;
        bool sentinel = false;
        for (const deddb::Tuple& t : event->delta.inserts) {
          long p = PersonIndex(sub.symbols().NameOf(t.back()));
          rec.inserts.push_back(static_cast<size_t>(p));
          sentinel |= p == static_cast<long>(kPeople);
        }
        for (const deddb::Tuple& t : event->delta.deletes) {
          rec.deletes.push_back(static_cast<size_t>(
              PersonIndex(sub.symbols().NameOf(t.back()))));
        }
        pushes.push_back(std::move(rec));
        if (sentinel || event->is_gap) return;
      }
    });

    Phase phase;
    RunClients(kDurableWriters, seconds, &phase, [&](int c, Clock::time_point deadline) {
      RunWriter(*svc->clients[c], c, deadline, &logs[c], &commits[c]);
    });

    // End of stream: one last commit that inserts the sentinel into Unemp.
    {
      Client& client = *svc->clients[0];
      WriteOp op;
      op.events.push_back({kPeople, 0, true});
      CommitRec rec;
      rec.sent = Clock::now();
      auto reply = client.Apply(BuildTxn(op, [&](const char* p, const std::string& n) {
        return client.GroundAtom(p, {n});
      }));
      CheckOk(reply.status(), "sentinel commit");
      rec.version = reply->version;
      rec.delta = CommitToModel(&pop_, op, reply->version);
      commits[kDurableWriters].push_back(std::move(rec));
    }
    // A lost push would leave the subscriber waiting forever; stopping the
    // server ends its read, and the missing pushes then fail the check.
    std::atomic<bool> done{false};
    std::thread watchdog([&] {
      auto until = Clock::now() + std::chrono::seconds(30);
      while (!done.load() && Clock::now() < until) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (!done.load()) svc->server->Stop();
    });
    subscriber.join();
    done.store(true);
    watchdog.join();
    if (!sub_error.empty()) out->Wrong("subscriber: " + sub_error);

    CheckPushes(commits, pushes, &phase, out);
    uint64_t gaps = svc->metrics.counter("sub.gap_events");
    if (gaps != 0) out->Wrong("sub.gap_events = " + std::to_string(gaps));
    ++out->checks["gap_events"];
    Merge(logs, &phase, out);
    return phase;
  }

  void CheckRecovered(DeductiveDatabase* db, RunResult* out) override {
    CheckBaseFacts(db, pop_, out);
    auto session = Unwrap(db->BeginSession(), "recovered session");
    auto rows = Unwrap(session->Solve(Unwrap(
                           db->MakeAtom("Unemp", {db->Variable("x")}), "atom")),
                       "recovered Unemp");
    std::set<long> recovered;
    for (const deddb::Tuple& t : rows) {
      recovered.insert(PersonIndex(db->symbols().NameOf(t.back())));
    }
    if (recovered != view_) {
      out->Wrong("recovered Unemp differs from the subscriber's view");
    }
    ++out->checks["recovered_view"];
  }

  void CommitFixture(DeductiveDatabase* db, int count) override {
    ToggleFixture(db, &pop_, seed_, count);
  }

  void Replay(const std::string& scratch, LayerStats* L,
              RunResult* out) override {
    EmploymentReplay(seed_, scratch, L, out).RunDurable(kReplayOps / 2);
    // No Process or Translate in this mix: those layers come from the
    // employment_oltp stream on its own twin.
    LayerStats probe;
    EmploymentReplay(seed_, scratch + "/probe", &probe, out).RunOltp(kReplayOps / 2);
    for (const char* name : {"core.process_us", "interp.downward_us"}) {
      L->spans[name] = probe.spans[name];
      L->source[name] = "employment_oltp stream";
    }
    L->values["interp.dnf_disjuncts"] = probe.values["interp.dnf_disjuncts"];
    L->source["interp.dnf_disjuncts"] = "employment_oltp stream";
  }

  void Describe(RunResult* out) const override {
    out->info["people"] = std::to_string(kPeople);
    out->info["clients"] = std::to_string(kDurableWriters) +
                           " closed-loop writers + 1 subscriber";
    out->info["mix"] = "100% tokened Apply of 1-4 toggles; standing query Unemp(x)";
  }

 private:
  void RunWriter(Client& client, int c, Clock::time_point deadline,
                 ClientLog* log, std::vector<CommitRec>* commits) {
    Gen gen(StreamSeed(seed_, 3, c));
    while (Clock::now() < deadline) {
      WriteOp op = Toggles(gen, pop_, c, kDurableWriters);
      ++log->attempted;
      CommitRec rec;
      rec.sent = Clock::now();
      auto reply = client.Apply(BuildTxn(op, [&](const char* p, const std::string& n) {
        return client.GroundAtom(p, {n});
      }));
      if (!reply.ok()) { log->Fail(reply.status()); return; }
      auto done = Clock::now();
      log->latency[kApply].Add(MicrosBetween(rec.sent, done), done);
      rec.version = reply->version;
      rec.delta = CommitToModel(&pop_, op, reply->version);
      commits->push_back(std::move(rec));
      ++log->commits;
    }
  }

  /// Every commit that changes Unemp has exactly one push, at its version,
  /// carrying exactly its change; pushes arrive in version order; applying
  /// them to the snapshot gives the model's final Unemp.
  void CheckPushes(const std::vector<std::vector<CommitRec>>& commits,
                   const std::vector<PushRec>& pushes, Phase* phase,
                   RunResult* out) {
    std::map<uint64_t, const CommitRec*> by_version;
    size_t expected_pushes = 0;
    for (const auto& list : commits) {
      for (const CommitRec& rec : list) {
        by_version[rec.version] = &rec;
        if (!rec.delta.empty()) ++expected_pushes;
      }
    }
    uint64_t last = 0;
    size_t matched = 0;
    for (const PushRec& push : pushes) {
      ++out->checks["push"];
      if (push.gap) { out->Wrong("gap push at " + std::to_string(push.version)); continue; }
      if (push.version <= last) out->Wrong("push out of order at " + std::to_string(push.version));
      last = push.version;
      auto it = by_version.find(push.version);
      if (it == by_version.end()) {
        out->Wrong("push for unknown version " + std::to_string(push.version));
        continue;
      }
      std::vector<size_t> ins, del;
      for (const auto& [p, inserted] : it->second->delta) {
        (inserted ? ins : del).push_back(p);
      }
      std::vector<size_t> got_ins = push.inserts, got_del = push.deletes;
      std::sort(got_ins.begin(), got_ins.end());
      std::sort(got_del.begin(), got_del.end());
      if (got_ins != ins || got_del != del) {
        out->Wrong("push at " + std::to_string(push.version) + " differs from its commit");
      }
      ++matched;
      for (size_t p : push.inserts) {
        if (!view_.insert(static_cast<long>(p)).second) out->Wrong("push inserts present row");
      }
      for (size_t p : push.deletes) {
        if (view_.erase(static_cast<long>(p)) == 0) out->Wrong("push deletes absent row");
      }
      if (push.inserts.size() == 1 && push.inserts[0] == kPeople) continue;
      phase->latency[kNotify].Add(MicrosBetween(it->second->sent, push.received),
                                 push.received);
    }
    if (matched != expected_pushes) {
      out->Wrong("expected " + std::to_string(expected_pushes) + " pushes, got " +
                 std::to_string(matched));
    }
    std::set<long> want;
    for (size_t p = 0; p < pop_.size(); ++p) {
      if (IsUnemp(pop_.Current(p))) want.insert(static_cast<long>(p));
    }
    if (view_ != want) out->Wrong("subscriber view differs from the model's Unemp");
    ++out->checks["subscriber_view"];
  }

  uint64_t seed_;
  Population pop_;
  std::set<long> view_;  // the subscriber's client-side Unemp
};

}  // namespace

std::unique_ptr<Workload> MakeEmploymentOltp(uint64_t seed) {
  return std::make_unique<EmploymentOltp>(seed);
}

std::unique_ptr<Workload> MakeDurableWrites(uint64_t seed) {
  return std::make_unique<DurableWrites>(seed);
}

void CountFixpoint(const deddb::Database& db, const Atom& goal,
                   LayerStats* L) {
  deddb::obs::MetricsRegistry metrics;
  deddb::EvaluationOptions options;
  options.obs.metrics = &metrics;
  deddb::FactStoreProvider edb(&db.facts());
  deddb::QueryEngine engine(db.program(), db.symbols(), edb, options);
  CheckOk(engine.SolvePattern(goal).status(), "fixpoint count");
  L->values["eval.rounds"] = metrics.counter("eval.rounds");
  L->values["eval.rule_firings"] = metrics.counter("eval.rule_firings");
  L->values["eval.derived_facts"] = metrics.counter("eval.derived_facts");
  double indexed = metrics.counter("planner.indexed_steps");
  double scanned = metrics.counter("planner.scanned_steps");
  L->values["eval.indexed_step_ratio"] = Ratio(indexed, indexed + scanned);
}

void ReplayEmploymentProbe(uint64_t seed, const std::string& scratch,
                           LayerStats* L, RunResult* out) {
  EmploymentReplay(seed, scratch, L, out).RunOltp(kReplayOps / 2);
}

}  // namespace perfbench
