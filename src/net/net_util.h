#ifndef HYRISE_NV_NET_NET_UTIL_H_
#define HYRISE_NV_NET_NET_UTIL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/wire.h"

namespace hyrise_nv::net {

/// RAII file descriptor. -1 means "none".
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { Reset(); }
  OwnedFd(OwnedFd&& other) noexcept : fd_(other.Release()) {}
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }
  HYRISE_NV_DISALLOW_COPY(OwnedFd);

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release() { return std::exchange(fd_, -1); }
  void Reset();

 private:
  int fd_ = -1;
};

/// Creates a listening TCP socket bound to host:port (port 0 picks an
/// ephemeral port) with SO_REUSEADDR, non-blocking, backlog 128.
Result<OwnedFd> CreateListener(const std::string& host, uint16_t port);

/// The port a bound socket actually listens on (resolves port 0).
Result<uint16_t> LocalPort(int fd);

/// Blocking TCP connect with a millisecond timeout. TCP_NODELAY is set:
/// the protocol is request/response and Nagle would serialise it against
/// delayed ACKs.
Result<OwnedFd> ConnectTcp(const std::string& host, uint16_t port,
                           int timeout_ms);

Status SetNonBlocking(int fd);
Status SetNoDelay(int fd);
/// True when TCP_NODELAY is set on `fd` (socket-option regression tests).
Result<bool> GetNoDelay(int fd);

/// One place for every accept path (server, router) to configure a
/// freshly accepted socket. Sets TCP_NODELAY — a single Nagle socket
/// serialises the pipelined protocol against delayed ACKs and hides the
/// whole batching win, so this is asserted by a regression test rather
/// than sprinkled per call site.
Status ConfigureAcceptedSocket(int fd);

/// Writes all of `data` (blocking; MSG_NOSIGNAL, EINTR-safe).
Status SendAll(int fd, const void* data, size_t len);

/// Reads exactly `len` bytes (blocking). A clean peer close mid-read
/// returns IOError "connection closed"; `timeout_ms` > 0 bounds the wait
/// per read via SO_RCVTIMEO semantics (poll-based, so it composes with
/// blocking sockets).
Status RecvAll(int fd, void* out, size_t len, int timeout_ms = 0);

/// Blocking frame I/O under the negotiated `version`. SendFrame frames
/// and sends `payload`; RecvFrame receives one frame through the codec's
/// length and CRC checks (codec failures are InvalidArgument or
/// Corruption, socket failures IOError) and stores its tag, 0 on v1, in
/// `tag` when given. `timeout_ms` > 0 bounds each wait.
Status SendFrame(int fd, uint16_t version, uint32_t tag,
                 const std::vector<uint8_t>& payload);
Result<std::vector<uint8_t>> RecvFrame(int fd, uint16_t version,
                                       int timeout_ms,
                                       uint32_t* tag = nullptr);
/// v1 forms, as the hello exchange uses.
inline Status WriteFrame(int fd, const std::vector<uint8_t>& payload) {
  return SendFrame(fd, 1, 0, payload);
}
inline Result<std::vector<uint8_t>> ReadFrame(int fd, int timeout_ms = 0) {
  return RecvFrame(fd, 1, timeout_ms);
}

/// The client half of the handshake: writes `hello` and reads the reply,
/// both v1-framed whatever version is offered (DESIGN.md §17.1), and
/// parses the reply with ParseHelloReply. `timeout_ms` bounds the read;
/// `code`, when given, receives the reply's wire code.
Result<HelloReply> ExchangeHello(int fd, const Hello& hello, int timeout_ms,
                                 WireCode* code = nullptr);

/// Raises RLIMIT_NOFILE's soft limit towards min(want, hard limit).
/// Best-effort: returns the soft limit in effect afterwards, which may be
/// below `want` on constrained systems — callers decide whether that is
/// fatal for their connection count.
uint64_t RaiseFdLimit(uint64_t want);

}  // namespace hyrise_nv::net

#endif  // HYRISE_NV_NET_NET_UTIL_H_
