#include "net/net_util.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

namespace hyrise_nv::net {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

Result<sockaddr_in> MakeAddr(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address: " + host);
  }
  return addr;
}

}  // namespace

void OwnedFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

Status SetNoDelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    return Errno("setsockopt(TCP_NODELAY)");
  }
  return Status::OK();
}

Result<bool> GetNoDelay(int fd) {
  int value = 0;
  socklen_t len = sizeof(value);
  if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len) < 0) {
    return Errno("getsockopt(TCP_NODELAY)");
  }
  return value != 0;
}

Status ConfigureAcceptedSocket(int fd) { return SetNoDelay(fd); }

Result<OwnedFd> CreateListener(const std::string& host, uint16_t port) {
  auto addr_result = MakeAddr(host, port);
  if (!addr_result.ok()) return addr_result.status();
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Errno("socket");
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) <
      0) {
    return Errno("setsockopt(SO_REUSEADDR)");
  }
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&*addr_result),
             sizeof(*addr_result)) < 0) {
    return Errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd.get(), 128) < 0) return Errno("listen");
  HYRISE_NV_RETURN_NOT_OK(SetNonBlocking(fd.get()));
  return fd;
}

Result<uint16_t> LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

Result<OwnedFd> ConnectTcp(const std::string& host, uint16_t port,
                           int timeout_ms) {
  auto addr_result = MakeAddr(host, port);
  if (!addr_result.ok()) return addr_result.status();
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Errno("socket");
  // Non-blocking connect so the timeout is enforceable, then back to
  // blocking for the simple call-and-response client.
  HYRISE_NV_RETURN_NOT_OK(SetNonBlocking(fd.get()));
  int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&*addr_result),
                     sizeof(*addr_result));
  if (rc < 0 && errno != EINPROGRESS) {
    return Errno("connect " + host + ":" + std::to_string(port));
  }
  if (rc < 0) {
    pollfd pfd{fd.get(), POLLOUT, 0};
    rc = ::poll(&pfd, 1, timeout_ms <= 0 ? -1 : timeout_ms);
    if (rc == 0) {
      return Status::IOError("connect timeout to " + host + ":" +
                             std::to_string(port));
    }
    if (rc < 0) return Errno("poll(connect)");
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &err_len) < 0) {
      return Errno("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      return Status::IOError("connect " + host + ":" +
                             std::to_string(port) + ": " +
                             std::strerror(err));
    }
  }
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0 ||
      ::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK) < 0) {
    return Errno("fcntl(blocking)");
  }
  HYRISE_NV_RETURN_NOT_OK(SetNoDelay(fd.get()));
  return fd;
}

Status SendAll(int fd, const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, p + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status RecvAll(int fd, void* out, size_t len, int timeout_ms) {
  auto* p = static_cast<uint8_t*>(out);
  size_t got = 0;
  while (got < len) {
    if (timeout_ms > 0) {
      pollfd pfd{fd, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc == 0) return Status::IOError("read timeout");
      if (rc < 0 && errno != EINTR) return Errno("poll(read)");
      if (rc < 0) continue;
    }
    const ssize_t n = ::recv(fd, p + got, len - got, 0);
    if (n == 0) return Status::IOError("connection closed by peer");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status SendFrame(int fd, uint16_t version, uint32_t tag,
                 const std::vector<uint8_t>& payload) {
  const std::vector<uint8_t> frame = EncodeFrame(version, tag, payload);
  return SendAll(fd, frame.data(), frame.size());
}

Result<std::vector<uint8_t>> RecvFrame(int fd, uint16_t version,
                                       int timeout_ms, uint32_t* tag) {
  uint8_t header[kFrameHeaderBytesV2];
  HYRISE_NV_RETURN_NOT_OK(
      RecvAll(fd, header, FrameHeaderBytes(version), timeout_ms));
  auto len = DecodeFrameHeader(header);
  if (!len.ok()) return len.status();
  std::vector<uint8_t> payload(*len);
  HYRISE_NV_RETURN_NOT_OK(RecvAll(fd, payload.data(), *len, timeout_ms));
  HYRISE_NV_RETURN_NOT_OK(
      CheckFrameCrc(version, header, payload.data(), *len));
  if (tag != nullptr) *tag = version >= 2 ? TaggedFrameTag(header) : 0;
  return payload;
}

Result<HelloReply> ExchangeHello(int fd, const Hello& hello, int timeout_ms,
                                 WireCode* code) {
  HYRISE_NV_RETURN_NOT_OK(WriteFrame(fd, EncodeHello(hello)));
  auto reply = ReadFrame(fd, timeout_ms);
  if (!reply.ok()) return reply.status();
  return ParseHelloReply(reply->data(), reply->size(), code);
}

uint64_t RaiseFdLimit(uint64_t want) {
  struct rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (lim.rlim_cur >= want) return lim.rlim_cur;
  const rlim_t target =
      lim.rlim_max == RLIM_INFINITY || want < lim.rlim_max
          ? static_cast<rlim_t>(want)
          : lim.rlim_max;
  rlim_t old = lim.rlim_cur;
  lim.rlim_cur = target;
  if (::setrlimit(RLIMIT_NOFILE, &lim) != 0) return old;
  return lim.rlim_cur;
}

}  // namespace hyrise_nv::net
