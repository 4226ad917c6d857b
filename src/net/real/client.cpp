#include "net/real/client.h"

namespace compreg::net::real {

struct RealAbdClient::Io {
  RealAbdClient& c;

  void broadcast(abd::Kind kind, std::uint64_t op,
                 const abd::Stamped<std::uint64_t>& req) {
    const bool store = kind == abd::Kind::kStore;
    c.want_ = store ? MsgType::kStoreAck : MsgType::kQueryReply;
    const WireMsg msg{store ? MsgType::kStore : MsgType::kQuery,
                      static_cast<std::uint32_t>(c.net_.self()), op, req.ts,
                      req.val};
    for (int r = 0; r < c.replicas_; ++r) c.net_.send(r, msg);
  }
  bool await(std::uint64_t ms) {
    return c.drain(Deadline::after(std::chrono::milliseconds(ms)));
  }
};

RealAbdClient::RealAbdClient(Transport& net, const RealClientConfig& cfg,
                             std::chrono::steady_clock::time_point epoch)
    : net_(net),
      replicas_(cfg.replicas()),
      epoch_(epoch),
      core_(cfg.f,
            abd::RetryPolicy{
                static_cast<std::uint64_t>(cfg.attempt_timeout.count()),
                cfg.max_attempts, kBackoffBaseMs, kBackoffCapMs},
            cfg.jitter_seed, net.self(), stats_) {}

bool RealAbdClient::drain(const Deadline& deadline) {
  while (!core_.has_quorum()) {
    const std::optional<Delivery> d = net_.poll(deadline);
    if (!d) return false;
    const WireMsg& m = d->msg;
    if (m.type != want_) continue;  // stray frame
    const abd::Offer got = core_.offer(m.op, d->src, m.ts, m.val);
    if (got != abd::Offer::kStale && m.type == MsgType::kStoreAck &&
        ack_hook_) {
      const auto t = std::chrono::steady_clock::now() - epoch_;
      ack_hook_(d->src, m.ts,
                std::chrono::duration_cast<std::chrono::nanoseconds>(t)
                    .count());
    }
  }
  return true;
}

bool RealAbdClient::try_write(std::uint64_t ts, std::uint64_t val) {
  Io io{*this};
  return core_.write(io, ts, val);
}

RealReadResult RealAbdClient::try_read() {
  Io io{*this};
  const std::optional<abd::Stamped<std::uint64_t>> got = core_.read(io);
  if (!got) return {};
  return RealReadResult{true, got->ts, got->val};
}

}  // namespace compreg::net::real
