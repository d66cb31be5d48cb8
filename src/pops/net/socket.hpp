#pragma once
// Minimal POSIX TCP building blocks for the sweep daemon.
//
// pops::net speaks one deliberately simple wire format: newline-delimited
// JSON over a TCP stream (loopback by default). These wrappers add exactly
// what the daemon and client need on top of raw sockets — RAII ownership
// of file descriptors, bind-to-ephemeral-port with port readback, an
// accept loop that can be woken for shutdown, buffered line reads with a
// size bound (untrusted peers must not grow a line without limit), and
// EINTR/partial-write-safe sends that never raise SIGPIPE.
//
// Nothing here knows about sweeps; the protocol lives one layer up
// (net/protocol.hpp, net/server.hpp, net/client.hpp).

#include <cstdint>
#include <string>

namespace pops::net {

/// RAII owner of one socket file descriptor. Move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  Socket(Socket&& other) noexcept : fd_(other.release()) {}
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { close(); }

  int fd() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void close() noexcept;

  /// shutdown(2) both directions — wakes a thread blocked in accept/read
  /// on this descriptor without closing it (close alone does not reliably
  /// interrupt a blocked syscall on Linux).
  void shutdown_both() noexcept;

 private:
  int fd_ = -1;
};

/// A connected TCP stream with buffered, bounded line framing.
class TcpStream {
 public:
  explicit TcpStream(Socket socket) : socket_(std::move(socket)) {}

  /// Connect to host:port (IPv4 dotted quad, e.g. "127.0.0.1"). Throws
  /// std::runtime_error with the errno text on failure. With
  /// `timeout_ms > 0` the connect itself is bounded (non-blocking connect
  /// + poll); 0 keeps the kernel's default blocking behaviour — the
  /// fleet-coordination knob that turns an unreachable worker into a
  /// prompt, catchable error instead of a minutes-long TCP stall. Throws
  /// std::invalid_argument for a timeout above INT_MAX (poll's range).
  static TcpStream connect(const std::string& host, std::uint16_t port,
                           long timeout_ms = 0);

  /// Read one '\n'-terminated line (the terminator is stripped; a final
  /// unterminated chunk before EOF counts as a line). Returns false on
  /// clean EOF with no buffered data. Throws std::runtime_error on a read
  /// error or when a line exceeds `max_bytes`.
  bool read_line(std::string& line, std::size_t max_bytes = kMaxLineBytes);

  /// Write `line` plus a trailing '\n', looping over partial writes.
  /// SIGPIPE is suppressed (MSG_NOSIGNAL); a closed peer throws
  /// std::runtime_error instead of killing the process.
  void write_line(const std::string& line);

  /// Write `n` raw bytes (no framing added), with the same partial-write
  /// / EINTR / MSG_NOSIGNAL discipline as write_line — the primitive
  /// BufferedWriter flushes through.
  void write_bytes(const char* data, std::size_t n);

  /// Bound every subsequent read (SO_RCVTIMEO): a recv that sits longer
  /// than `ms` milliseconds throws std::runtime_error("recv timed out...")
  /// instead of blocking forever on a hung peer. 0 removes the bound.
  void set_read_timeout_ms(long ms);

  /// Half-close the sending side (signals end-of-requests to the peer).
  void shutdown_write() noexcept;

  /// Shut down both directions: wakes a thread blocked in read_line on
  /// this stream (it sees EOF) without closing the descriptor — the
  /// server's stop path for in-flight connections.
  void shutdown_both() noexcept { socket_.shutdown_both(); }

  bool valid() const noexcept { return socket_.valid(); }
  void close() noexcept { socket_.close(); }

  /// Default per-line bound: a request carries at most a sweep spec plus
  /// inlined .bench sources — 16 MiB is far above any sane request and
  /// far below a memory-exhaustion attack.
  static constexpr std::size_t kMaxLineBytes = 16u << 20;

 private:
  Socket socket_;
  std::string buffer_;  ///< bytes received but not yet returned
};

/// Aggregating line writer over a TcpStream.
///
/// A sweep streams thousands of small point records; sending each as its
/// own send(2) syscall (plus a TCP_NODELAY segment) makes the wire the
/// bottleneck long before serialization is. BufferedWriter appends framed
/// lines to one contiguous buffer and flushes on a size threshold — and
/// always on *record boundaries*, never mid-line, so a reader observes
/// only whole records. Callers flush explicitly before blocking on a read
/// (request/response turnarounds) and at end of stream; the destructor
/// does a best-effort flush for abandoned writers.
///
/// Single-writer by design (like TcpStream itself): the owning connection
/// thread is the only sender on the stream.
class BufferedWriter {
 public:
  /// Lines accumulate until the buffer reaches `flush_bytes` (then the
  /// whole buffer goes out in one send). 64 KiB amortizes syscall cost
  /// without holding records hostage for long.
  explicit BufferedWriter(TcpStream& stream,
                          std::size_t flush_bytes = kDefaultFlushBytes)
      : stream_(&stream), flush_bytes_(flush_bytes) {
    buffer_.reserve(flush_bytes_ + 1);
  }

  BufferedWriter(const BufferedWriter&) = delete;
  BufferedWriter& operator=(const BufferedWriter&) = delete;

  ~BufferedWriter() {
    try {
      flush();
    } catch (...) {
      // Destructor flush is best effort: the peer may already be gone.
    }
  }

  /// Append `line` + '\n' to the buffer; flush when the threshold is
  /// reached (after the append — records never split across flush
  /// decisions, only across send(2) calls, which is invisible framing-
  /// wise).
  void write_line(const std::string& line) {
    buffer_.append(line);
    buffer_.push_back('\n');
    if (buffer_.size() >= flush_bytes_) flush();
  }

  /// Send everything buffered. Throws like TcpStream::write_line on a
  /// closed peer; the buffer is cleared first so a throwing flush is not
  /// retried with stale bytes by a destructor.
  void flush() {
    if (buffer_.empty()) return;
    std::string out;
    out.swap(buffer_);
    stream_->write_bytes(out.data(), out.size());
  }

  std::size_t buffered_bytes() const noexcept { return buffer_.size(); }

  static constexpr std::size_t kDefaultFlushBytes = 64u << 10;

 private:
  TcpStream* stream_;
  std::size_t flush_bytes_;
  std::string buffer_;
};

/// A listening TCP socket. Construction binds + listens; port() reports
/// the actual port (useful with port 0 = kernel-assigned ephemeral port,
/// how tests and the smoke script avoid collisions).
class TcpListener {
 public:
  /// An unbound placeholder (valid() == false); assign from bind().
  TcpListener() = default;

  /// Bind to host:port and listen. Throws std::runtime_error (errno text)
  /// when the address is unavailable.
  static TcpListener bind(const std::string& host, std::uint16_t port,
                          int backlog = 16);

  std::uint16_t port() const noexcept { return port_; }

  /// Block until a peer connects. Returns an invalid Socket (instead of
  /// throwing) once close() was called — the accept-loop termination
  /// signal.
  Socket accept();

  /// Wake any thread blocked in accept() (subsequent accepts return an
  /// invalid Socket). The descriptor — and with it the bound port — is
  /// released at destruction, after the accept loop has been joined;
  /// closing it here could recycle the fd under a concurrent ::accept.
  void close() noexcept;

  bool valid() const noexcept { return socket_.valid(); }

 private:
  TcpListener(Socket socket, std::uint16_t port)
      : socket_(std::move(socket)), port_(port) {}

  Socket socket_;
  std::uint16_t port_ = 0;
};

}  // namespace pops::net
