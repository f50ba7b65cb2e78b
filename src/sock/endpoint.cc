#include "sock/endpoint.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace faust::sock {
namespace {

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

int open_stream_socket(int domain, std::string& err) {
  const int fd = ::socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) err = errno_string("socket");
  return fd;
}

bool fill_tcp_addr(const Endpoint& ep, sockaddr_in& addr, std::string& err) {
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    err = "bad IPv4 host '" + ep.host + "'";
    return false;
  }
  return true;
}

bool fill_uds_addr(const Endpoint& ep, sockaddr_un& addr, std::string& err) {
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (ep.path.size() >= sizeof(addr.sun_path)) {
    err = "UDS path too long (" + std::to_string(ep.path.size()) + " >= " +
          std::to_string(sizeof(addr.sun_path)) + "): " + ep.path;
    return false;
  }
  std::memcpy(addr.sun_path, ep.path.c_str(), ep.path.size() + 1);
  return true;
}

}  // namespace

std::optional<Endpoint> Endpoint::parse(std::string_view uri) {
  if (uri.rfind("uds:", 0) == 0) {
    const std::string_view path = uri.substr(4);
    if (path.empty()) return std::nullopt;
    return Endpoint::uds(std::string(path));
  }
  if (uri.rfind("tcp:", 0) == 0) {
    const std::string_view rest = uri.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string_view::npos || colon == 0) return std::nullopt;
    const std::string_view host = rest.substr(0, colon);
    const std::string_view port_str = rest.substr(colon + 1);
    if (port_str.empty() || port_str.size() > 5) return std::nullopt;
    std::uint32_t port = 0;
    for (const char c : port_str) {
      if (c < '0' || c > '9') return std::nullopt;
      port = port * 10 + static_cast<std::uint32_t>(c - '0');
    }
    if (port > 65535) return std::nullopt;
    return Endpoint::tcp(std::string(host), static_cast<std::uint16_t>(port));
  }
  return std::nullopt;
}

std::string Endpoint::uri() const {
  if (kind == Kind::kUds) return "uds:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

int listen_socket(const Endpoint& ep, Endpoint& bound, std::string& err) {
  bound = ep;
  if (ep.kind == Endpoint::Kind::kTcp) {
    const int fd = open_stream_socket(AF_INET, err);
    if (fd < 0) return -1;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    if (!fill_tcp_addr(ep, addr, err) ||
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, SOMAXCONN) != 0) {
      if (err.empty()) err = errno_string("bind/listen");
      ::close(fd);
      return -1;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      bound.port = ntohs(addr.sin_port);
    }
    return fd;
  }
  const int fd = open_stream_socket(AF_UNIX, err);
  if (fd < 0) return -1;
  sockaddr_un addr;
  if (!fill_uds_addr(ep, addr, err)) {
    ::close(fd);
    return -1;
  }
  ::unlink(ep.path.c_str());  // a stale socket file from a killed process
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    err = errno_string("bind/listen");
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_socket(const Endpoint& ep, bool& in_progress, std::string& err) {
  in_progress = false;
  const int domain = ep.kind == Endpoint::Kind::kTcp ? AF_INET : AF_UNIX;
  const int fd = open_stream_socket(domain, err);
  if (fd < 0) return -1;

  sockaddr_storage storage;
  socklen_t len = 0;
  if (ep.kind == Endpoint::Kind::kTcp) {
    sockaddr_in addr;
    if (!fill_tcp_addr(ep, addr, err)) {
      ::close(fd);
      return -1;
    }
    set_nodelay(fd);
    std::memcpy(&storage, &addr, sizeof(addr));
    len = sizeof(addr);
  } else {
    sockaddr_un addr;
    if (!fill_uds_addr(ep, addr, err)) {
      ::close(fd);
      return -1;
    }
    std::memcpy(&storage, &addr, sizeof(addr));
    len = sizeof(addr);
  }

  if (::connect(fd, reinterpret_cast<sockaddr*>(&storage), len) == 0) return fd;
  if (errno == EINPROGRESS || errno == EAGAIN) {
    in_progress = true;
    return fd;
  }
  err = errno_string("connect");
  ::close(fd);
  return -1;
}

int accept_socket(int listen_fd, Endpoint::Kind kind) {
  const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd >= 0 && kind == Endpoint::Kind::kTcp) set_nodelay(fd);
  return fd;
}

}  // namespace faust::sock
