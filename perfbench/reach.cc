// reach_recursive: a recursive derived relation that no cache survives.
//
//   base Edge/2, derived Reach/2 (transitive closure) over a layered DAG of
//   250 nodes (10 layers of 25, 3 edges from each node into the next
//   layer), whose closure is ~16k facts. 3 clients, each 98% open
//   Reach(a, y) queries from a uniformly drawn node and 2% tokened Apply
//   moving one edge out of the client's own nodes. Every commit
//   invalidates every connection's materialized closure, so the first query
//   of each connection after a commit recomputes the fixpoint.
//
// The answer model is the edge log by commit version plus a breadth-first
// search; it shares no code with the engine's evaluator.

#include <algorithm>
#include <filesystem>
#include <set>

#include "parser/parser.h"
#include "persist/wal.h"
#include "server/protocol.h"
#include "workload.h"

namespace perfbench {

using deddb::Atom;
using deddb::DeductiveDatabase;
using deddb::Status;
using deddb::SymbolTable;
using deddb::Term;
using deddb::Transaction;
using deddb::server::Client;

namespace {

constexpr int kLayers = 10;
constexpr int kWidth = 25;
constexpr int kNodes = kLayers * kWidth;
constexpr int kOutDegree = 3;  // successors of every node outside the last layer
// Three, not four: with four clients on a four-core machine every commit
// sets four fixpoints running at once, the single writer waits for a core,
// and write latency measures the scheduler (its p90 spread 1.2 across seeds,
// 0.17 with three).
constexpr int kClients = 3;
constexpr unsigned kQueryPct = 98;  // the rest (2%) edge moves

constexpr const char* kSchema = R"(
  base Edge/2.
  derived Reach/2.
  Reach(x, y) <- Edge(x, y).
  Reach(x, y) <- Edge(x, z) & Reach(z, y).
)";

std::string NodeName(int n) { return "N" + std::to_string(n); }

int NodeIndex(const std::string& name) {
  if (name.size() < 2 || name[0] != 'N') return -1;
  int v = 0;
  for (size_t i = 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    v = v * 10 + (name[i] - '0');
  }
  return v < kNodes ? v : -1;
}

int LayerOf(int n) { return n / kWidth; }

/// Adjacency matrix of the DAG. Rows are written only by the client that
/// owns the source node (u mod clients).
using Adjacency = std::vector<std::vector<uint8_t>>;

Adjacency GenerateEdges(uint64_t seed) {
  Gen gen(StreamSeed(seed, 21));
  Adjacency adj(kNodes, std::vector<uint8_t>(kNodes, 0));
  for (int u = 0; u < kNodes - kWidth; ++u) {
    int next = (LayerOf(u) + 1) * kWidth;
    for (int placed = 0; placed < kOutDegree;) {
      int v = next + static_cast<int>(gen.Below(kWidth));
      if (!adj[u][v]) {
        adj[u][v] = 1;
        ++placed;
      }
    }
  }
  return adj;
}

/// Nodes reachable from `a` by one or more edges, ascending.
std::vector<int> Reachable(const Adjacency& adj, int a) {
  std::vector<uint8_t> seen(kNodes, 0);
  std::vector<int> stack{a};
  std::vector<int> out;
  while (!stack.empty()) {
    int u = stack.back();
    stack.pop_back();
    for (int v = 0; v < kNodes; ++v) {
      if (adj[u][v] && !seen[v]) {
        seen[v] = 1;
        out.push_back(v);
        stack.push_back(v);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t Fingerprint(const std::vector<int>& nodes) {
  uint64_t h = 1469598103934665603ull;
  for (int n : nodes) {
    h ^= static_cast<uint64_t>(n) + 1;
    h *= 1099511628211ull;
  }
  return h;
}

Status LoadReach(DeductiveDatabase* db, const Adjacency& adj) {
  DEDDB_RETURN_IF_ERROR(deddb::LoadProgram(db, kSchema).status());
  for (int u = 0; u < kNodes; ++u) {
    for (int v = 0; v < kNodes; ++v) {
      if (!adj[u][v]) continue;
      DEDDB_ASSIGN_OR_RETURN(Atom atom,
                             db->GroundAtom("Edge", {NodeName(u), NodeName(v)}));
      DEDDB_RETURN_IF_ERROR(db->AddFact(atom));
    }
  }
  return Status::Ok();
}

/// Moves one edge: u's edge to `from` is replaced by one to `to`, both in
/// the next layer, so every node keeps its out-degree and the closure's
/// size does not drift over a run.
struct Move {
  int u = 0;
  int from = 0;
  int to = 0;
};

/// A move out of a node the client owns.
Move NextMove(Gen& gen, const Adjacency& adj, int client, int clients) {
  int sources = kNodes - kWidth;  // the last layer has no successors
  int slots = (sources - client + clients - 1) / clients;
  Move m;
  m.u = client + clients * static_cast<int>(gen.Below(slots));
  int next = (LayerOf(m.u) + 1) * kWidth;
  do {
    m.from = next + static_cast<int>(gen.Below(kWidth));
  } while (!adj[m.u][m.from]);
  do {
    m.to = next + static_cast<int>(gen.Below(kWidth));
  } while (adj[m.u][m.to]);
  return m;
}

void ApplyMove(Adjacency* adj, const Move& m) {
  (*adj)[m.u][m.from] = 0;
  (*adj)[m.u][m.to] = 1;
}

template <typename MakeAtom>
Transaction MoveTxn(const Move& m, MakeAtom make) {
  Transaction txn;
  CheckOk(txn.AddDelete(make(NodeName(m.u), NodeName(m.from))), "txn");
  CheckOk(txn.AddInsert(make(NodeName(m.u), NodeName(m.to))), "txn");
  return txn;
}

/// The y column of Reach(a, y) answer rows, as node indices (ascending);
/// -1 entries mark names the model does not know.
std::vector<int> Column(const std::vector<deddb::Tuple>& rows,
                        const SymbolTable& symbols) {
  std::vector<int> out;
  out.reserve(rows.size());
  for (const deddb::Tuple& t : rows) out.push_back(NodeIndex(symbols.NameOf(t.back())));
  std::sort(out.begin(), out.end());
  return out;
}

struct Observed {
  int source = 0;
  uint64_t version = 0;
  uint64_t fingerprint = 0;
  size_t count = 0;
};

struct Logged {
  uint64_t version = 0;
  Move move;
};

struct ClientLog {
  Samples query, apply;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Observed> queries;
  std::vector<Logged> commits;
  std::set<uint64_t> versions;
  std::string first_error;

  void Fail(const Status& status) {
    ++failed;
    if (first_error.empty()) first_error = status.ToString();
  }
};

class ReachRecursive : public Workload {
 public:
  explicit ReachRecursive(uint64_t seed) : seed_(seed) {}

  int connections() const override { return kClients; }
  const char* read_class() const override { return kQuery; }
  const char* write_class() const override { return kApply; }

  void Generate() override {
    initial_ = GenerateEdges(seed_);
    adj_ = initial_;
  }
  Status Load(DeductiveDatabase* db) const override { return LoadReach(db, initial_); }

  void Warmup(Service* svc, RunResult* out) override {
    for (int c = 0; c < kClients; ++c) {
      Client& client = *svc->clients[c];
      int a = c;
      auto reply = client.Query(
          {client.MakeAtom("Reach", {client.Constant(NodeName(a)), client.Variable("y")})});
      CheckOk(reply.status(), "warm-up query");
      if (Column(reply->answers[0], client.symbols()) != Reachable(initial_, a)) {
        out->Wrong("warm-up Reach(" + NodeName(a) + ", y)");
      }
      ++out->checks["query"];
    }
  }

  Phase Run(Service* svc, double seconds, RunResult* out) override {
    std::vector<ClientLog> logs(kClients);
    Phase phase;
    RunClients(kClients, seconds, &phase, [&](int c, Clock::time_point deadline) {
      RunClient(*svc->clients[c], c, deadline, &logs[c]);
    });

    std::vector<Logged> commits;
    std::vector<Observed> queries;
    for (ClientLog& log : logs) {
      phase.latency[kQuery].Append(log.query);
      phase.latency[kApply].Append(log.apply);
      phase.attempted += log.attempted;
      phase.failed += log.failed;
      phase.commits += log.commits.size();
      phase.repins += log.versions.size();
      commits.insert(commits.end(), log.commits.begin(), log.commits.end());
      queries.insert(queries.end(), log.queries.begin(), log.queries.end());
      if (!log.first_error.empty()) out->info["first_error"] = log.first_error;
    }
    Check(commits, queries, out);
    return phase;
  }

  void CheckRecovered(DeductiveDatabase* db, RunResult* out) override {
    const deddb::FactStore& facts = db->database().facts();
    auto edge = Unwrap(db->database().FindPredicate("Edge"), "pred");
    size_t want = 0;
    for (int u = 0; u < kNodes; ++u) {
      for (int v = 0; v < kNodes; ++v) {
        want += adj_[u][v];
        if (LayerOf(v) != LayerOf(u) + 1) continue;
        deddb::Tuple t{db->symbols().Intern(NodeName(u)),
                       db->symbols().Intern(NodeName(v))};
        if (facts.Contains(edge, t) != (adj_[u][v] != 0)) {
          out->Wrong("recovered Edge(" + NodeName(u) + ", " + NodeName(v) + ")");
        }
        ++out->checks["recovered_facts"];
      }
    }
    const deddb::Relation* rel = facts.Find(edge);
    if ((rel == nullptr ? 0 : rel->size()) != want) out->Wrong("recovered Edge count");
  }

  void CommitFixture(DeductiveDatabase* db, int count) override {
    Gen gen(StreamSeed(seed_, 29));
    for (int i = 0; i < count; ++i) {
      Move m = NextMove(gen, adj_, 0, 1);
      CheckOk(db->Apply(MoveTxn(m, [&](const std::string& a, const std::string& b) {
                return Unwrap(db->GroundAtom("Edge", {a, b}), "atom");
              })),
              "fixture apply");
      ApplyMove(&adj_, m);
    }
  }

  void Replay(const std::string& scratch, LayerStats* L, RunResult* out) override;

  void Describe(RunResult* out) const override {
    out->info["nodes"] = std::to_string(kNodes) + " (" + std::to_string(kLayers) +
                         " layers of " + std::to_string(kWidth) + ")";
    out->info["clients"] = std::to_string(kClients) + " closed-loop";
    out->info["mix"] = "98% open Reach(a, y), 2% Apply moving one Edge";
  }

 private:
  void RunClient(Client& client, int c, Clock::time_point deadline, ClientLog* log) {
    Gen gen(StreamSeed(seed_, 22, c));
    while (Clock::now() < deadline) {
      ++log->attempted;
      if (gen.Below(100) < kQueryPct) {
        int a = static_cast<int>(gen.Below(kNodes));
        auto t0 = Clock::now();
        auto reply = client.Query(
            {client.MakeAtom("Reach", {client.Constant(NodeName(a)), client.Variable("y")})});
        if (!reply.ok()) { log->Fail(reply.status()); continue; }
        auto done = Clock::now();
        log->query.Add(MicrosBetween(t0, done), done);
        std::vector<int> ys = Column(reply->answers[0], client.symbols());
        log->queries.push_back({a, reply->version, Fingerprint(ys), ys.size()});
        log->versions.insert(reply->version);
      } else {
        Move m = NextMove(gen, adj_, c, kClients);
        auto t0 = Clock::now();
        auto reply = client.Apply(MoveTxn(m, [&](const std::string& a, const std::string& b) {
          return client.GroundAtom("Edge", {a, b});
        }));
        if (!reply.ok()) {
          log->Fail(reply.status());
          return;  // outcome unknown: the model can no longer follow
        }
        auto done = Clock::now();
        log->apply.Add(MicrosBetween(t0, done), done);
        ApplyMove(&adj_, m);
        log->commits.push_back({reply->version, m});
      }
    }
  }

  /// Replays the merged edge log in version order and compares each
  /// answer with a search over the edges as of the version it carries.
  void Check(std::vector<Logged>& commits, std::vector<Observed>& queries,
             RunResult* out) const {
    std::sort(commits.begin(), commits.end(),
              [](const Logged& a, const Logged& b) { return a.version < b.version; });
    std::sort(queries.begin(), queries.end(),
              [](const Observed& a, const Observed& b) { return a.version < b.version; });
    Adjacency adj = initial_;
    size_t next = 0;
    uint64_t memo_version = ~0ull;
    std::map<int, std::pair<uint64_t, size_t>> memo;
    for (const Observed& q : queries) {
      while (next < commits.size() && commits[next].version <= q.version) {
        ApplyMove(&adj, commits[next++].move);
      }
      if (q.version != memo_version) {
        memo.clear();
        memo_version = q.version;
      }
      auto it = memo.find(q.source);
      if (it == memo.end()) {
        std::vector<int> ys = Reachable(adj, q.source);
        it = memo.emplace(q.source, std::make_pair(Fingerprint(ys), ys.size())).first;
      }
      if (it->second.first != q.fingerprint || it->second.second != q.count) {
        out->Wrong("Reach(" + NodeName(q.source) + ", y)@" + std::to_string(q.version) +
                   " returned " + std::to_string(q.count) + " nodes, expected " +
                   std::to_string(it->second.second));
      }
      ++out->checks["query"];
    }
  }

  uint64_t seed_;
  Adjacency initial_;
  Adjacency adj_;  // current model; row u written only by u's owner
};

// ---- Per-layer replay -------------------------------------------------------

constexpr int kReplayOps = 2000;
constexpr double kReplayBudgetS = 4.0;

void ReachRecursive::Replay(const std::string& scratch, LayerStats* L, RunResult* out) {
  using namespace deddb::server;  // NOLINT
  Adjacency adj = GenerateEdges(seed_);
  auto twin = std::make_unique<DeductiveDatabase>();
  CheckOk(LoadReach(twin.get(), adj), "twin load");
  std::filesystem::create_directories(scratch);
  auto wal = Unwrap(deddb::persist::WalWriter::Create(scratch + "/replay.wal", 0, {}),
                    "replay wal");
  auto session = Unwrap(twin->BeginSession(), "twin session");
  bool cold = true;  // next Solve on `session` materializes the closure
  SymbolTable client_syms;
  SymbolTable* server_syms = &twin->symbols();
  Gen gen(StreamSeed(seed_, 22, 0));
  uint64_t seq = 0;
  auto begin = Clock::now();
  for (int i = 0; i < kReplayOps && SecondsSince(begin) < kReplayBudgetS; ++i) {
    Wire wire;
    if (gen.Below(100) < kQueryPct) {
      int a = static_cast<int>(gen.Below(kNodes));
      QueryRequest req;
      req.patterns.push_back(Atom(client_syms.Intern("Reach"),
                                  {Term::MakeConstant(client_syms.Intern(NodeName(a))),
                                   Term::MakeVariable(client_syms.InternVar("y"))}));
      QueryRequest got = RoundTrip(
          req, FrameType::kQuery,
          [&](const QueryRequest& r) { return EncodeQueryRequest(r, client_syms); },
          [&](std::string_view b) { return DecodeQueryRequest(b, server_syms); }, &wire);
      auto t0 = Clock::now();
      QueryReply reply;
      reply.version = session->version();
      reply.answers.push_back(Unwrap(session->Solve(got.patterns[0]), "solve"));
      double solve_us = MicrosBetween(t0, Clock::now());
      if (cold) L->Span("eval.fixpoint_us", solve_us);
      cold = false;
      QueryReply back = RoundTrip(
          reply, FrameType::kQueryOk,
          [&](const QueryReply& r) { return EncodeQueryReply(r, *server_syms); },
          [&](std::string_view b) { return DecodeQueryReply(b, &client_syms); }, &wire);
      if (Column(back.answers[0], client_syms) != Reachable(adj, a)) {
        out->Wrong("replay: Reach(" + NodeName(a) + ", y)");
      }
      ++out->checks["replay_query"];
      L->Span("self.query", wire.us + solve_us);
      // A ground probe on the now-warm session.
      Atom ground(got.patterns[0].predicate(),
                  {got.patterns[0].args()[0],
                   Term::MakeConstant(twin->symbols().Intern(
                       NodeName(static_cast<int>(gen.Below(kNodes)))))});
      t0 = Clock::now();
      CheckOk(session->Holds(ground).status(), "holds");
      L->Span("eval.point_query_us", MicrosBetween(t0, Clock::now()));
    } else {
      Move m = NextMove(gen, adj, 0, kClients);
      ApplyRequest req;
      req.transaction = MoveTxn(m, [&](const std::string& a, const std::string& b) {
        return Atom(client_syms.Intern("Edge"), {Term::MakeConstant(client_syms.Intern(a)),
                                                  Term::MakeConstant(client_syms.Intern(b))});
      });
      req.token = {1, ++seq};
      ApplyRequest got = RoundTrip(
          req, FrameType::kApply,
          [&](const ApplyRequest& r) { return EncodeApplyRequest(r, client_syms); },
          [&](std::string_view b) { return DecodeApplyRequest(b, server_syms); }, &wire);
      auto t0 = Clock::now();
      deddb::FactStore next = got.transaction.ApplyTo(session->database().facts());
      L->Span("storage.txn_apply_us", MicrosBetween(t0, Clock::now()));
      t0 = Clock::now();
      CheckOk(twin->Apply(got.transaction), "apply");
      double apply_us = MicrosBetween(t0, Clock::now());
      L->Span("core.apply_us", apply_us);
      ApplyMove(&adj, m);
      t0 = Clock::now();
      CheckOk(wal->AppendDurable(deddb::persist::EncodeCommitPayload(
                                     seq, deddb::persist::CommitOrigin::kDirect,
                                     got.transaction, twin->symbols()),
                                 {}),
              "wal append");
      double append_us = MicrosBetween(t0, Clock::now());
      L->Span("persist.append_sync_us", append_us);
      t0 = Clock::now();
      auto clone = twin->database().CloneSnapshot();
      L->Span("storage.clone_us", MicrosBetween(t0, Clock::now()));
      clone.reset();
      t0 = Clock::now();
      session = Unwrap(twin->BeginSession(), "re-pin");
      L->Span("core.pin_us", MicrosBetween(t0, Clock::now()));
      cold = true;
      t0 = Clock::now();
      CheckOk(twin->Domain().status(), "domain");
      L->Span("interp.domain_us", MicrosBetween(t0, Clock::now()));
      ApplyReply reply{twin->version()};
      RoundTrip(
          reply, FrameType::kApplyOk, [&](const ApplyReply& r) { return EncodeApplyReply(r); },
          [&](std::string_view b) { return DecodeApplyReply(b); }, &wire);
      L->Span("self.apply", wire.us + apply_us + append_us);
    }
    L->Span("server.codec_us", wire.us);
    L->Span("server.frame_bytes", static_cast<double>(wire.bytes));
  }
  Atom open(Unwrap(twin->database().FindPredicate("Reach"), "pred"),
            {twin->Variable("x"), twin->Variable("y")});
  CountFixpoint(twin->database(), open, L);

  // The event rules reject recursive programs, so upward/downward
  // interpretation and the processor cannot run on this schema; those
  // layers are measured on the employment_oltp stream instead.
  LayerStats probe;
  ReplayEmploymentProbe(seed_, scratch + "/probe", &probe, out);
  for (const char* name : {"core.process_us", "interp.upward_us", "interp.downward_us"}) {
    L->spans[name] = probe.spans[name];
    L->source[name] = "employment_oltp stream";
  }
  L->values["interp.dnf_disjuncts"] = probe.values["interp.dnf_disjuncts"];
  L->source["interp.dnf_disjuncts"] = "employment_oltp stream";
}

}  // namespace

std::unique_ptr<Workload> MakeReachRecursive(uint64_t seed) {
  return std::make_unique<ReachRecursive>(seed);
}

}  // namespace perfbench
