#include "net/acceptor.hpp"

#include <system_error>

namespace ilc::net {

bool Acceptor::start(std::uint16_t port, std::function<void(Fd)> session) {
  try {
    listen_ = listen_tcp(port, port_);
  } catch (const std::exception&) {
    return false;
  }
  session_ = std::move(session);
  thread_ = std::thread(&Acceptor::loop, this);
  return true;
}

void Acceptor::stop() {
  if (stop_.exchange(true)) return;
  if (thread_.joinable()) thread_.join();
  for (Session& s : sessions_) s.thread.join();
  sessions_.clear();
  listen_.reset();
}

void Acceptor::loop() {
  while (!stop_.load()) {
    std::erase_if(sessions_, [](Session& s) {
      if (!s.done->load(std::memory_order_acquire)) return false;
      s.thread.join();
      return true;
    });
    if (!wait_readable(listen_.get(), 50)) continue;
    bool dropped = false;
    Fd conn = accept_conn(listen_.get(), &dropped);
    if (!conn.valid()) continue;
    Session& s = sessions_.emplace_back(
        Session{{}, std::make_unique<std::atomic<bool>>(false)});
    try {
      s.thread = std::thread(
          [this, done = s.done.get(), fd = std::move(conn)]() mutable {
            session_(std::move(fd));
            done->store(true, std::memory_order_release);
          });
    } catch (const std::system_error&) {
      // Out of threads: drop this connection, keep serving the others.
      sessions_.pop_back();
    }
  }
}

}  // namespace ilc::net
