#include "pops/net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace pops::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("bad IPv4 address '" + host + "'");
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.release();
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

TcpStream TcpStream::connect(const std::string& host, std::uint16_t port,
                             long timeout_ms) {
  // poll(2) takes an int: a larger bound would wrap, possibly negative.
  if (timeout_ms > INT_MAX)
    throw std::invalid_argument("connect timeout exceeds INT_MAX ms");
  const sockaddr_in addr = make_addr(host, port);
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) throw_errno("socket");
  // The protocol is request/response lines; latency beats batching.
  const int one = 1;
  ::setsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  if (timeout_ms <= 0) {
    for (;;) {
      if (::connect(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0)
        break;
      if (errno == EINTR) continue;
      throw_errno("connect to " + host + ":" + std::to_string(port));
    }
    return TcpStream(std::move(s));
  }

  // Bounded connect: non-blocking connect + poll(POLLOUT), then read the
  // deferred error back via SO_ERROR. The descriptor is restored to
  // blocking mode afterwards — the line framing above assumes it.
  const int flags = ::fcntl(s.fd(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(s.fd(), F_SETFL, flags | O_NONBLOCK) != 0)
    throw_errno("fcntl O_NONBLOCK");
  const std::string where = host + ":" + std::to_string(port);
  if (::connect(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (errno != EINPROGRESS && errno != EINTR)
      throw_errno("connect to " + where);
    pollfd pfd{};
    pfd.fd = s.fd();
    pfd.events = POLLOUT;
    int rc;
    do {
      rc = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) throw_errno("poll (connect to " + where + ")");
    if (rc == 0)
      throw std::runtime_error("connect to " + where + " timed out after " +
                               std::to_string(timeout_ms) + " ms");
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(s.fd(), SOL_SOCKET, SO_ERROR, &err, &len) != 0)
      throw_errno("getsockopt SO_ERROR");
    if (err != 0) {
      errno = err;
      throw_errno("connect to " + where);
    }
  }
  if (::fcntl(s.fd(), F_SETFL, flags) != 0) throw_errno("fcntl restore");
  return TcpStream(std::move(s));
}

void TcpStream::set_read_timeout_ms(long ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  if (::setsockopt(socket_.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) !=
      0)
    throw_errno("setsockopt SO_RCVTIMEO");
}

bool TcpStream::read_line(std::string& line, std::size_t max_bytes) {
  for (;;) {
    const std::size_t pos = buffer_.find('\n');
    if (pos != std::string::npos) {
      line.assign(buffer_, 0, pos);
      buffer_.erase(0, pos + 1);
      return true;
    }
    if (buffer_.size() > max_bytes)
      throw std::runtime_error("line exceeds " + std::to_string(max_bytes) +
                               " bytes");
    char chunk[4096];
    ssize_t n;
    do {
      n = ::recv(socket_.fd(), chunk, sizeof(chunk), 0);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      // SO_RCVTIMEO (set_read_timeout_ms) surfaces as EAGAIN/EWOULDBLOCK;
      // give it a distinct message so callers can tell a dead peer from a
      // slow one.
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw std::runtime_error("recv timed out waiting for peer");
      throw_errno("recv");
    }
    if (n == 0) {
      if (buffer_.empty()) return false;  // clean EOF
      line = std::move(buffer_);          // final unterminated line
      buffer_.clear();
      return true;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void TcpStream::write_line(const std::string& line) {
  std::string framed = line;
  framed += '\n';
  write_bytes(framed.data(), framed.size());
}

void TcpStream::write_bytes(const char* data, std::size_t len) {
  while (len > 0) {
    ssize_t n;
    do {
      n = ::send(socket_.fd(), data, len, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n < 0) throw_errno("send");
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

void TcpStream::shutdown_write() noexcept {
  if (socket_.valid()) ::shutdown(socket_.fd(), SHUT_WR);
}

TcpListener TcpListener::bind(const std::string& host, std::uint16_t port,
                              int backlog) {
  const sockaddr_in addr = make_addr(host, port);
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) throw_errno("socket");
  const int one = 1;
  // Daemon restarts must not wait out TIME_WAIT on a fixed port.
  ::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0)
    throw_errno("bind " + host + ":" + std::to_string(port));
  if (::listen(s.fd(), backlog) != 0) throw_errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(s.fd(), reinterpret_cast<sockaddr*>(&bound), &len) != 0)
    throw_errno("getsockname");
  return TcpListener(std::move(s), ntohs(bound.sin_port));
}

Socket TcpListener::accept() {
  for (;;) {
    const int fd = ::accept(socket_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    // close() shut the listener down (EINVAL) — or the descriptor became
    // unusable some other way; either way the accept loop is over.
    return Socket();
  }
}

void TcpListener::close() noexcept {
  // shutdown only — the descriptor stays allocated until destruction. An
  // acceptor thread may be entering ::accept concurrently; closing the fd
  // here could hand it a recycled descriptor opened by another thread.
  socket_.shutdown_both();
}

}  // namespace pops::net
