// Thread-per-connection accept loop for the loopback servers beside the
// epoll front-end: repl::ShipServer (one long session per follower) and
// cluster::RegistryServer (one short session per client call). Every turn
// of the loop joins the sessions that have finished, so connection churn
// holds only the threads of live sessions.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "net/socket.hpp"

namespace ilc::net {

class Acceptor {
 public:
  Acceptor() = default;
  ~Acceptor() { stop(); }
  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  /// Listen on 127.0.0.1:`port` (0 = ephemeral) and run `session` on a
  /// thread of its own for each accepted connection. False when the port
  /// cannot be bound. Call at most once.
  bool start(std::uint16_t port, std::function<void(Fd)> session);
  std::uint16_t port() const { return port_; }
  /// Set once stop() begins; sessions poll it to end promptly.
  const std::atomic<bool>& stopping() const { return stop_; }
  /// Stop accepting and join every session. Idempotent.
  void stop();

 private:
  struct Session {
    std::thread thread;
    std::unique_ptr<std::atomic<bool>> done;  // set as the session returns
  };
  void loop();

  std::function<void(Fd)> session_;
  Fd listen_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::vector<Session> sessions_;  // the accept thread's, until stop()
  std::thread thread_;
};

}  // namespace ilc::net
