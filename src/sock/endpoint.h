// Socket addresses for the real transport (DESIGN.md D9): loopback TCP
// and Unix-domain stream sockets, plus the tiny helpers the connection
// manager needs (listen with ephemeral-port resolution, nonblocking
// connect). Everything here is Linux-only plumbing; protocol code never
// sees it — it talks NodeIds through net::Transport, and the NodeId →
// Endpoint registry lives in sock::SocketTransportConfig.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace faust::sock {

/// One dialable/listenable address: "tcp:<host>:<port>" or "uds:<path>".
/// TCP port 0 asks the kernel for an ephemeral port; the bound endpoint
/// (with the real port) is resolved at listen time.
struct Endpoint {
  enum class Kind : std::uint8_t { kTcp, kUds };

  Kind kind = Kind::kTcp;
  std::string host = "127.0.0.1";  // TCP only (dotted quad)
  std::uint16_t port = 0;          // TCP only
  std::string path;                // UDS only (sun_path limit applies)

  static Endpoint tcp(std::string host, std::uint16_t port) {
    Endpoint e;
    e.kind = Kind::kTcp;
    e.host = std::move(host);
    e.port = port;
    return e;
  }
  static Endpoint uds(std::string path) {
    Endpoint e;
    e.kind = Kind::kUds;
    e.host.clear();
    e.path = std::move(path);
    return e;
  }

  /// Parses the uri() format back; nullopt on anything malformed.
  static std::optional<Endpoint> parse(std::string_view uri);

  /// "tcp:127.0.0.1:4711" / "uds:/run/faust/shard_0.sock" — the format
  /// the worker process prints in its READY line.
  std::string uri() const;

  friend auto operator<=>(const Endpoint&, const Endpoint&) = default;
};

/// Creates a nonblocking, close-on-exec listening socket bound to `ep`
/// (SO_REUSEADDR on TCP; a stale UDS file at `ep.path` is unlinked
/// first). Returns the fd and fills `bound` with the resolved endpoint
/// (real port for TCP port 0), or returns -1 with a description in
/// `err`. CLOEXEC matters: ProcessCluster forks workers while transports
/// hold sockets, and a leaked listen fd would keep a killed server's
/// address alive inside unrelated children.
int listen_socket(const Endpoint& ep, Endpoint& bound, std::string& err);

/// Starts a nonblocking, close-on-exec connect to `ep`. Returns the fd
/// with `in_progress` telling whether the connect is still pending
/// (completion is signalled by POLLOUT; check SO_ERROR), or -1 with a
/// description in `err`.
int connect_socket(const Endpoint& ep, bool& in_progress, std::string& err);

/// Accepts one pending connection on a listening socket of kind `kind`
/// as a nonblocking, close-on-exec fd, or returns -1 (none pending, or a
/// transient error). TCP connections get TCP_NODELAY, like dialed ones:
/// the transport writes whole frames, and a small frame must not wait
/// behind Nagle for the peer's delayed ACK.
int accept_socket(int listen_fd, Endpoint::Kind kind);

}  // namespace faust::sock
