// sock::SocketTransport — a real TCP / Unix-domain-socket implementation
// of net::Transport with a connection manager (DESIGN.md D9).
//
// One transport instance is one process's view of the fabric: local
// protocol objects attach under their NodeIds exactly as they do on
// net::Network, remote NodeIds are resolved through a static NodeId →
// Endpoint registry (config.peers), and everything else — framing,
// connection pooling, reconnect — is the transport's problem. In the
// spirit of tcpm.c (ROADMAP): one nonblocking poll() event loop on its
// own thread owns every fd; connections are pooled per ENDPOINT, so two
// NodeIds served by the same process (a shard's server and its cache
// node) share one stream; inbound DATA teaches the transport a return
// route per source NodeId, so a server process never dials its clients.
//
// Delivery: completed DATA frames are posted onto the deployment's
// exec::Executor (a rt::ThreadedRuntime — the loop thread is a third
// poster alongside the owner thread and timers, which the runtime's
// any-thread post contract already covers). Posts happen in receive
// order from one loop thread, and the runtime runs tasks in post order,
// so FIFO per (from,to) holds end to end over one connection. Payload
// buffers arrive as std::shared_ptr<const Bytes> straight from the frame
// decoder — the zero-copy on_shared_message path survives the socket
// hop. sim::Scheduler is NOT a legal executor here: it is
// single-threaded and the loop thread could not post into it.
//
// Outbound: send() may be called from any thread. It stamps the wire
// counters, frames the message, and hands it to the loop
// through a wake pipe; the loop routes it to the pooled connection
// (dialling lazily, nonblocking) or parks it in the per-peer pending
// queue while the dial is in flight. Queues are BOUNDED
// (config.send_queue_bytes): a peer that stays down long enough to
// overflow its queue costs drops, never memory — the protocol layer
// already survives loss via resubmit. Dial failures back off
// exponentially (config.backoff_min..backoff_max) while pending bytes
// wait.
//
// Crash semantics composing with PR 7 epoch fencing: fence(id) makes the
// transport drop everything to AND from `id` — including bytes already
// queued — until unfence(id); the deployment layer fences a server's
// NodeIds before SIGKILLing its process, mirroring net::Network::kill().
// Independently, every connection starts with a HELLO frame carrying the
// process incarnation: a dialled connection announcing an incarnation
// LOWER than the highest this transport has seen for that endpoint is a
// zombie of a dead era and is closed before any of its DATA is
// delivered; and because a connection's rx buffers die with it, a
// pre-crash byte can never be parsed into a post-restart delivery. So
// pre-crash bytes never reach a restarted-era peer, which is the
// invariant the client's unsolicited-reply check relies on.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "net/transport.h"
#include "sock/endpoint.h"
#include "sock/frame.h"

namespace faust::sock {

/// Knobs for one SocketTransport.
struct SocketTransportConfig {
  /// Listen here for inbound connections (server side). nullopt: outbound
  /// only (client side). TCP port 0 resolves to a real port at
  /// construction — read it back via bound_endpoint().
  std::optional<Endpoint> listen;
  /// NodeId → address registry for peers this side dials. Multiple
  /// NodeIds may share an endpoint (connection pooling: one stream).
  std::map<NodeId, Endpoint> peers;
  /// Announced in the HELLO frame; bump on every process restart so
  /// zombie connections from a previous era are recognisable.
  std::uint64_t incarnation = 1;
  /// Decoder bound; a length prefix above this poisons the connection.
  std::size_t max_frame_bytes = 64u << 20;
  /// Per-endpoint bound on bytes queued towards a peer (pending + not
  /// yet written). Overflow drops the message (counted).
  std::size_t send_queue_bytes = 32u << 20;
  /// Dial retry backoff bounds: the delay after each failed dial is drawn
  /// by decorrelated jitter within [backoff_min, backoff_max] (see
  /// next_backoff below) while sends are pending.
  std::chrono::milliseconds backoff_min{2};
  std::chrono::milliseconds backoff_max{500};
};

/// D10 decorrelated-jitter redial backoff: next = min(cap, uniform[base,
/// prev*3]), with prev <= 0 (first failure) yielding exactly `base`.
/// Unlike truncated binary exponential backoff, successive delays WANDER
/// within [base, cap] instead of marching through the same power-of-two
/// ladder — which is what desynchronizes a fleet of clients redialling a
/// recovering peer (the reconnect-storm regression test pins the spread).
/// Pure: all state is the caller's `prev` and the rng.
std::chrono::milliseconds next_backoff(std::chrono::milliseconds base,
                                       std::chrono::milliseconds cap,
                                       std::chrono::milliseconds prev, Rng& rng);

/// D10 chaos shim knobs (fault injection on a LIVE transport; applied via
/// SocketTransport::set_chaos). All independent; default = no chaos.
struct ChaosOptions {
  /// Traffic to or from these NodeIds is silently dropped at this
  /// transport — an asymmetric partition as seen from this process (the
  /// peer's own transport keeps sending into the void unless it
  /// blackholes too).
  std::unordered_set<NodeId> blackhole;
  /// Extra delivery latency for frames received over a socket (local
  /// loopback sends are not delayed). FIFO per connection is preserved:
  /// the delay is constant, applied in receive order.
  std::chrono::milliseconds rx_latency{0};
  /// Max payload-stream bytes per write() pass per connection (0 = off):
  /// dribbles frames onto the wire a few bytes at a time, forcing the
  /// receiving decoder through every partial-frame state.
  std::size_t write_dribble_bytes = 0;
};

/// Socket-level counters (beyond the per-channel payload mirror).
struct WireStats {
  std::uint64_t frames_out = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t socket_bytes_out = 0;  // everything written, framing included
  std::uint64_t socket_bytes_in = 0;   // everything read
  std::uint64_t framing_bytes_out = 0;  // header + HELLO share of bytes_out
  std::uint64_t connects = 0;           // dials that completed
  std::uint64_t accepts = 0;
  std::uint64_t reconnects = 0;       // dials after a previously-up conn died
  std::uint64_t connect_failures = 0;
  std::uint64_t disconnects = 0;      // established conns closed (peer death
                                      // or teardown); failed dials excluded
  std::uint64_t fenced_drops = 0;     // sends/receives dropped by fence()
  std::uint64_t overflow_drops = 0;   // send_queue_bytes exceeded
  std::uint64_t down_drops = 0;       // queued bytes discarded when a conn died
  std::uint64_t unroutable_drops = 0;  // no registry entry and no learned route
  std::uint64_t framing_errors = 0;    // poisoned decoders (conn closed)
  std::uint64_t stale_era_drops = 0;   // zombie-incarnation conns closed
  std::uint64_t chaos_blackholed = 0;  // messages dropped by the chaos shim
  std::uint64_t chaos_delayed = 0;     // deliveries held by chaos rx_latency
  std::uint64_t chaos_resets = 0;      // conns killed by inject_reset()
};

/// Real-socket Transport (see file comment).
class SocketTransport final : public net::Transport {
 public:
  /// `exec` is where deliveries run; it must be a thread-safe executor
  /// (rt::ThreadedRuntime) and must outlive this transport. The
  /// constructor binds the listen socket (if any) and starts the loop
  /// thread; FAUST_CHECKs on bind failure (deployment bug, not input).
  SocketTransport(exec::Executor& exec, SocketTransportConfig config);

  /// Stops the loop thread and closes every socket. Messages already
  /// posted onto the executor stay valid (they own their buffers).
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // net::Transport ------------------------------------------------------

  void attach(NodeId id, net::Node& node) override;
  void detach(NodeId id) override;

  /// Any-thread. Local `to` (attached here) delivers through the
  /// executor without touching a socket; remote `to` goes through the
  /// connection manager. Unroutable or fenced messages are dropped and
  /// counted.
  void send(NodeId from, NodeId to, Bytes msg) override;

  // Crash fencing -------------------------------------------------------

  /// Drops traffic to and from `id` — including bytes already queued
  /// towards it — until unfence(id). Mirrors net::Network::kill() for the
  /// deployment layer's process kills.
  void fence(NodeId id);
  void unfence(NodeId id);
  bool fenced(NodeId id) const;

  // Chaos shim (D10 network-fault injection) ---------------------------

  /// Installs (or replaces) the chaos rules; {} clears them. Any-thread.
  /// Unlike fence(), chaos never purges already-queued bytes — it shapes
  /// live traffic only, so healing is instant and loss-free.
  void set_chaos(ChaosOptions chaos);

  /// Asynchronously closes EVERY established connection — mid-frame when
  /// a partial frame is on the wire — exercising the reconnect path and
  /// the peer decoder's truncated-stream handling. Dials resume under the
  /// normal backoff policy. Completion is observable via
  /// wire().chaos_resets.
  void inject_reset();

  // Introspection -------------------------------------------------------

  /// The resolved listen endpoint (real port for TCP port 0).
  const Endpoint& bound_endpoint() const { return bound_; }

  std::uint64_t incarnation() const { return config_.incarnation; }

  // The inherited wire counters (net::WireCounters) hold PAYLOAD bytes
  // (what the protocol put on the channel), counted at send() after the
  // fence and blackhole checks, local and remote alike; the framing
  // overhead is reported separately in wire().

  /// Socket-level counters (framing overhead, reconnects, drops).
  WireStats wire() const;

 private:
  struct LocalNode {
    std::mutex mu;
    net::Node* node = nullptr;
  };
  struct Peer;
  struct Conn {
    int fd = -1;
    bool dialed = false;
    bool connecting = false;  // nonblocking connect still in flight
    bool hello_seen = false;
    std::uint64_t peer_incarnation = 0;
    FrameDecoder decoder;
    Peer* peer = nullptr;  // owner for dialed conns; null for accepted
    // Whole frames queued for write; head may be partially written.
    std::deque<std::pair<NodeId, Bytes>> txq;
    std::size_t tx_off = 0;
    std::size_t txq_bytes = 0;
    explicit Conn(std::size_t max_frame) : decoder(max_frame) {}
  };
  struct Peer {  // one dialable endpoint (pooled across NodeIds)
    Endpoint ep;
    Conn* conn = nullptr;
    bool was_up = false;  // a previous conn reached established
    std::deque<std::pair<NodeId, Bytes>> pending;  // queued while not up
    std::size_t pending_bytes = 0;
    int attempts = 0;
    std::chrono::milliseconds backoff{0};  // decorrelated-jitter state
    std::chrono::steady_clock::time_point next_dial{};
    std::uint64_t max_incarnation = 0;
  };
  struct Outgoing {
    NodeId from;
    NodeId to;
    Bytes frame;  // already framed
  };

  // Loop-thread only ----------------------------------------------------
  void loop();
  void purge_fenced();
  void apply_chaos_reset();
  void flush_delayed(std::chrono::steady_clock::time_point now);
  void drain_ingress();
  void route_frame(Outgoing&& out);
  void ensure_dialing(Peer& peer);
  void on_dial_failure(Peer& peer);
  void on_dial_result(Conn& conn, bool ok);
  void flush_write_stats(std::uint64_t bytes, std::uint64_t frames,
                         std::uint64_t framing);
  void conn_established(Conn& conn);
  void handle_readable(Conn& conn);
  void handle_writable(Conn& conn);
  void on_frame(Conn& conn, Frame&& f);
  void close_conn(Conn& conn, bool count_down_drops);
  void accept_ready();
  void deliver(NodeId from, NodeId to, std::shared_ptr<const Bytes> payload);
  void enqueue_frame(Conn& conn, NodeId to, Bytes frame);
  void wake();

  exec::Executor& exec_;
  const SocketTransportConfig config_;
  Endpoint bound_{};
  int listen_fd_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;

  std::thread loop_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> fence_dirty_{false};
  // Chaos shim: lock-free knobs for the hot paths; the blackhole set
  // lives under mu_ (checked where mu_ is already held).
  std::atomic<bool> chaos_reset_{false};
  std::atomic<long> chaos_latency_ms_{0};
  std::atomic<std::size_t> chaos_dribble_{0};

  // Shared state (send()/attach()/fence() side), under mu_.
  mutable std::mutex mu_;
  std::unordered_map<NodeId, std::shared_ptr<LocalNode>> nodes_;
  std::unordered_set<NodeId> fenced_;
  std::deque<Outgoing> ingress_;  // handed to the loop via wake()
  WireStats wire_{};
  std::unordered_set<NodeId> chaos_blackhole_;  // under mu_

  // Loop-owned topology (loop thread only; no lock needed).
  std::map<Endpoint, std::unique_ptr<Peer>> peers_;       // pooled by endpoint
  std::unordered_map<NodeId, Peer*> static_routes_;       // from config.peers
  std::unordered_map<NodeId, Conn*> learned_routes_;      // inbound DATA sources
  std::vector<std::unique_ptr<Conn>> conns_;
  /// Deliveries held back by chaos rx_latency, due-ordered (constant
  /// delay ⇒ push order IS due order; FIFO per channel is preserved).
  struct Delayed {
    std::chrono::steady_clock::time_point due;
    NodeId from = 0;
    NodeId to = 0;
    std::shared_ptr<const Bytes> payload;
  };
  std::deque<Delayed> delayed_;
  Rng backoff_rng_;  // loop-thread only (decorrelated-jitter draws)
};

}  // namespace faust::sock
