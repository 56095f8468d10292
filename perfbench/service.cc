#include "service.h"

#include <sys/vfs.h>

#include <filesystem>

#include "server/tcp.h"

namespace perfbench {

using deddb::DeductiveDatabase;
using deddb::server::Client;
using deddb::server::ClientOptions;

void Service::Crash() {
  clients.clear();
  if (server != nullptr) server->Stop();
  server.reset();
  db.reset();
}

std::unique_ptr<Service> StartService(const SetupSpec& spec, double* seconds) {
  auto start = Clock::now();
  auto svc = std::make_unique<Service>();
  svc->db = Unwrap(DeductiveDatabase::OpenPersistent(spec.dir), "open");
  CheckOk(spec.load(svc->db.get()), "load");
  CheckOk(svc->db->Checkpoint(), "checkpoint");
  if (spec.prepare) CheckOk(spec.prepare(svc->db.get()), "prepare");
  if (spec.traced) {
    svc->db->set_observability(deddb::obs::ObsContext{
        .tracer = nullptr, .metrics = &svc->metrics});
  }

  deddb::server::ServerOptions options;
  options.obs.metrics = &svc->metrics;
  auto listener = Unwrap(deddb::server::TcpListener::Listen(0), "listen");
  const uint16_t port = listener->bound_port();
  svc->server =
      std::make_unique<deddb::server::Server>(svc->db.get(), std::move(options));
  CheckOk(svc->server->Serve(std::move(listener)), "serve");

  for (int i = 0; i < spec.clients; ++i) {
    ClientOptions client_options;
    client_options.client_id = spec.client_id_base + static_cast<uint64_t>(i);
    // One attempt per request: a refusal or transport failure is counted,
    // never hidden behind a retry.
    client_options.max_attempts = 1;
    auto client = std::make_unique<Client>(
        [port] { return deddb::server::TcpConnect("127.0.0.1", port); },
        client_options);
    CheckOk(client->Health().status(), "connect");
    svc->clients.push_back(std::move(client));
  }
  if (spec.warmup) spec.warmup(svc.get());
  *seconds = SecondsSince(start);
  return svc;
}

std::unique_ptr<DeductiveDatabase> Reopen(const std::string& dir,
                                          double* seconds) {
  auto start = Clock::now();
  auto db = Unwrap(DeductiveDatabase::OpenPersistent(dir), "reopen");
  *seconds = SecondsSince(start);
  return db;
}

void RemoveTree(const std::string& dir) {
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs;
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlay";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

}  // namespace perfbench
