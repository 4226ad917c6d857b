#include "stack.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "common.h"
#include "net/real/wire.h"
#include "server/client.h"
#include "server/protocol.h"

namespace perfbench {
namespace {

using compreg::net::real::MsgType;

// Pause between readiness polls: fine enough that a set-up of a few
// tens of milliseconds is measured to a fraction of a percent.
constexpr auto kPollPause = std::chrono::microseconds(100);

// Client id of the daemon probe; workload connections use 1..4.
constexpr std::uint32_t kProbeClient = 1000000;

std::int64_t epoch_ns(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

// True when a Unix-domain listener at `path` accepts a connection.
bool uds_accepts(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const bool ok =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
      0;
  ::close(fd);
  return ok;
}

}  // namespace

Stack::Stack(std::string server_bin, std::string dir, std::uint64_t seed)
    : server_bin_(std::move(server_bin)),
      dir_(std::move(dir)),
      seed_(seed),
      epoch_(std::chrono::steady_clock::now()),
      sup_(epoch_) {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
  std::filesystem::create_directories(front_dir(), ec);
}

Stack::~Stack() {
  stop_server();
  stop_fleet();
}

bool Stack::start_fleet(std::chrono::milliseconds limit) {
  for (int node = 0; node < kReplicas; ++node) {
    sup_.spawn(node, {server_bin_, "--replica", "--node",
                      std::to_string(node), "--f", std::to_string(kF),
                      "--dir", dir_, "--kind", "uds", "--epoch-ns",
                      std::to_string(epoch_ns(epoch_)), "--seed",
                      std::to_string(mix_seed(seed_, 100 + node))});
  }
  const auto until = std::chrono::steady_clock::now() + limit;
  for (int node = 0; node < kReplicas; ++node) {
    const std::string sock =
        dir_ + "/replica-" + std::to_string(node) + ".sock";
    while (!uds_accepts(sock)) {
      if (std::chrono::steady_clock::now() >= until) return false;
      std::this_thread::sleep_for(kPollPause);
    }
  }
  return true;
}

bool Stack::start_server(std::chrono::milliseconds limit) {
  sup_.spawn(kServerNode,
             {server_bin_, "--kind", "uds", "--f", std::to_string(kF),
              "--dir", dir_, "--front-dir", front_dir(), "--seed",
              std::to_string(seed_), "--epoch-ns",
              std::to_string(epoch_ns(epoch_)), "--stats-out",
              stats_path()});
  std::uint64_t ts = 0;
  return read_through_server(limit, ts);
}

bool Stack::read_through_server(std::chrono::milliseconds limit,
                                std::uint64_t& ts) {
  using compreg::server::ClientConfig;
  using compreg::server::ServerClient;
  ClientConfig cfg;
  cfg.front_dir = front_dir();
  cfg.id = kProbeClient;
  ServerClient probe(cfg);
  const auto until = std::chrono::steady_clock::now() + limit;
  std::uint64_t seq = 0;
  while (std::chrono::steady_clock::now() < until) {
    // connect(0) tries once and never sleeps; the pause is ours.
    if (!probe.connected() && !probe.connect(std::chrono::milliseconds(0))) {
      std::this_thread::sleep_for(kPollPause);
      continue;
    }
    if (!probe.send(compreg::server::make_read_req(kProbeClient, ++seq))) {
      probe.close();
      continue;
    }
    // Busy or Unavailable (the daemon still seeding its timestamp) are
    // retried at once; a missing answer within the slice is retried too.
    while (auto m = probe.recv(std::chrono::milliseconds(200))) {
      if (m->op != seq) continue;
      if (m->type == MsgType::kReadOk) {
        ts = m->ts;
        return true;
      }
      break;
    }
  }
  return false;
}

double Stack::peak_rss_mb() const {
  double mb = 0;
  for (int node = 0; node <= kServerNode; ++node) {
    if (sup_.alive(node)) mb += perfbench::peak_rss_mb(sup_.pid_of(node));
  }
  return mb;
}

void Stack::stop_server() {
  sup_.terminate(kServerNode, std::chrono::milliseconds(15000));
}

void Stack::stop_fleet() {
  sup_.terminate_all(std::chrono::milliseconds(5000));
}

}  // namespace perfbench
