#include "net/real/replica.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>

#include "net/abd.h"
#include "net/real/durable_file.h"
#include "net/real/fault_transport.h"
#include "util/assert.h"

namespace compreg::net::real {
namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_term(int /*sig*/) { g_stop = 1; }

void install_sigterm() {
  struct sigaction sa = {};
  sa.sa_handler = &on_term;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
}

std::int64_t ns_since(std::chrono::steady_clock::time_point epoch) {
  const auto d = std::chrono::steady_clock::now() - epoch;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

}  // namespace

void audit_append(const std::string& path, const std::string& line) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  COMPREG_CHECK(fd >= 0, "open(%s) failed (errno %d)", path.c_str(), errno);
  std::string buf = line;
  buf.push_back('\n');
  // One write per line: O_APPEND makes concurrent appenders (several
  // replicas share one audit log) interleave at line granularity.
  ssize_t off = 0;
  const ssize_t len = static_cast<ssize_t>(buf.size());
  while (off < len) {
    const ssize_t n =
        ::write(fd, buf.data() + off, static_cast<std::size_t>(len - off));
    if (n < 0 && errno == EINTR) continue;
    COMPREG_CHECK(n > 0, "write(%s) failed (errno %d)", path.c_str(), errno);
    off += n;
  }
  ::close(fd);
}

int run_replica(const ReplicaConfig& cfg) {
  constexpr auto kSyncRetry = std::chrono::milliseconds(50);
  constexpr auto kPollSlice = std::chrono::milliseconds(25);
  const int node = cfg.transport.self;
  COMPREG_CHECK(cfg.transport.replicas == 2 * cfg.f + 1,
                "replica fleet must be 2f+1");
  install_sigterm();

  FileDurable durable(cfg.data_dir + "/replica-" + std::to_string(node) +
                      ".dur");
  const std::string audit = cfg.data_dir + "/audit.log";

  SocketTransport socket(cfg.transport);
  FaultyTransport net(socket, cfg.plan, cfg.seed, cfg.epoch);

  {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "start node=%d durable_ts=%" PRIu64 " existed=%d t_ns=%"
                  PRId64,
                  node, durable.ts(), durable.existed() ? 1 : 0,
                  ns_since(cfg.epoch));
    audit_append(audit, line);
  }

  abd::Replica<std::uint64_t> rep(node, cfg.f, 0);
  rep.rejoin(durable, static_cast<std::uint64_t>(ns_since(cfg.epoch)) ^
                          (static_cast<std::uint64_t>(::getpid()) << 32));
  const auto log_serving = [&] {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "serving node=%d ts=%" PRIu64 " t_ns=%" PRId64, node,
                  rep.state().ts, ns_since(cfg.epoch));
    audit_append(audit, line);
  };
  if (rep.serving()) log_serving();

  const auto self = static_cast<std::uint32_t>(node);
  const auto reply = [&](int dst, MsgType type, std::uint64_t op,
                         const abd::Stamped<std::uint64_t>& s) {
    net.send(dst, WireMsg{type, self, op, s.ts, s.val});
  };
  Deadline next_sync;  // default = already due
  while (g_stop == 0) {
    if (!rep.serving() && next_sync.expired()) {
      for (int peer = 0; peer < cfg.transport.replicas; ++peer) {
        if (peer != node) {
          reply(peer, MsgType::kSyncReq, rep.incarnation(), rep.state());
        }
      }
      next_sync = Deadline::after(kSyncRetry);
    }

    const std::optional<Delivery> d = net.poll(Deadline::after(kPollSlice));
    if (!d) continue;
    const WireMsg& m = d->msg;
    if (m.type == MsgType::kStore) {
      if (const auto ts = rep.on_store(durable, m.ts, m.val)) {
        reply(d->src, MsgType::kStoreAck, m.op, {*ts, 0});
      }
    } else if (m.type == MsgType::kQuery || m.type == MsgType::kSyncReq) {
      if (const auto state = rep.on_query()) {
        reply(d->src,
              m.type == MsgType::kQuery ? MsgType::kQueryReply
                                        : MsgType::kSyncReply,
              m.op, *state);
      }
    } else if (m.type == MsgType::kSyncReply) {
      if (rep.on_sync_reply(durable, m.op, d->src, m.ts, m.val)) {
        log_serving();
      }
    }
    // Client-role and service-layer frames are stray here: ignored.
  }
  return 0;
}

}  // namespace compreg::net::real
