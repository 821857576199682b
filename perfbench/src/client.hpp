// A persistent loopback connection to the tuning server, on the cluster
// line-IO helpers: one request out, one response line back (a closed loop
// per connection).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "cluster/lineio.hpp"

namespace pb {

class LineClient {
 public:
  /// Connects to 127.0.0.1:`port`; throws std::runtime_error on failure.
  explicit LineClient(std::uint16_t port)
      : fd_(connect(port)), reader_(fd_.get()) {}

  /// Send `lines` (newline-terminated) and return the next response line
  /// without its terminator. Throws on a socket error, on EOF, or when no
  /// response arrives within the timeout.
  std::string exchange(const std::string& lines) {
    std::string line, err;
    if (!ilc::cluster::write_all(fd_.get(), lines, kTimeoutMs, &err) ||
        !reader_.next(line, kTimeoutMs, &err))
      throw std::runtime_error(err);
    return line;
  }

 private:
  static constexpr int kTimeoutMs = 30000;

  static ilc::net::Fd connect(std::uint16_t port) {
    ilc::repl::Endpoint ep;
    ep.port = port;
    std::string err;
    ilc::net::Fd fd = ilc::cluster::connect_endpoint(ep, kTimeoutMs, &err);
    if (!fd.valid()) throw std::runtime_error(err);
    return fd;
  }

  ilc::net::Fd fd_;
  ilc::cluster::LineReader reader_;
};

}  // namespace pb
