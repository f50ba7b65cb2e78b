#include "sock/socket_transport.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>

#include "common/check.h"

namespace faust::sock {

std::chrono::milliseconds next_backoff(std::chrono::milliseconds base,
                                       std::chrono::milliseconds cap,
                                       std::chrono::milliseconds prev, Rng& rng) {
  if (base.count() <= 0) base = std::chrono::milliseconds{1};
  if (cap < base) cap = base;
  if (prev < base) return base;  // first failure: exactly the floor
  const auto lo = static_cast<std::uint64_t>(base.count());
  const auto hi = std::min(static_cast<std::uint64_t>(cap.count()),
                           static_cast<std::uint64_t>(prev.count()) * 3);
  if (hi <= lo) return base;
  return std::chrono::milliseconds(static_cast<std::int64_t>(rng.next_in(lo, hi)));
}

SocketTransport::SocketTransport(exec::Executor& exec, SocketTransportConfig config)
    : exec_(exec),
      config_(std::move(config)),
      backoff_rng_(0x5851F42D4C957F2DULL ^ config_.incarnation) {
  int pipe_fds[2];
  FAUST_CHECK(::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) == 0);
  wake_rd_ = pipe_fds[0];
  wake_wr_ = pipe_fds[1];

  if (config_.listen.has_value()) {
    std::string err;
    listen_fd_ = listen_socket(*config_.listen, bound_, err);
    if (listen_fd_ < 0) {
      FAUST_CHECK(false && "SocketTransport listen failed");  // deployment bug
    }
  }

  // Pool peers by endpoint: NodeIds sharing an address share a stream.
  for (const auto& [id, ep] : config_.peers) {
    auto it = peers_.find(ep);
    if (it == peers_.end()) {
      auto peer = std::make_unique<Peer>();
      peer->ep = ep;
      it = peers_.emplace(ep, std::move(peer)).first;
    }
    static_routes_[id] = it->second.get();
  }

  loop_thread_ = std::thread([this] { loop(); });
}

SocketTransport::~SocketTransport() {
  stopping_.store(true, std::memory_order_release);
  wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (config_.listen.has_value() && bound_.kind == Endpoint::Kind::kUds) {
    ::unlink(bound_.path.c_str());
  }
  ::close(wake_rd_);
  ::close(wake_wr_);
}

void SocketTransport::attach(NodeId id, net::Node& node) {
  std::shared_ptr<LocalNode> box;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = nodes_[id];
    if (slot == nullptr) slot = std::make_shared<LocalNode>();
    box = slot;
  }
  std::lock_guard<std::mutex> node_lock(box->mu);
  box->node = &node;
}

void SocketTransport::detach(NodeId id) {
  std::shared_ptr<LocalNode> box;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = nodes_.find(id);
    if (it == nodes_.end()) return;
    box = it->second;
  }
  std::lock_guard<std::mutex> node_lock(box->mu);
  box->node = nullptr;
}

void SocketTransport::send(NodeId from, NodeId to, Bytes msg) {
  std::shared_ptr<LocalNode> local;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_acquire)) return;
    if (fenced_.count(to) > 0 || fenced_.count(from) > 0) {
      ++wire_.fenced_drops;
      return;
    }
    if (!chaos_blackhole_.empty() &&
        (chaos_blackhole_.count(to) > 0 || chaos_blackhole_.count(from) > 0)) {
      ++wire_.chaos_blackholed;
      return;
    }
    // Payload counters stamped for every accepted message, local or
    // remote, so bytes/op match Network and ThreadBus.
    count(from, to, msg);

    // Local targets are decided by box presence alone (a box exists once
    // the node was ever attached here); whether the node is CURRENTLY
    // attached is checked at delivery time, under the box lock — taking
    // it here would invert the box→mu_ lock order delivery tasks use.
    auto it = nodes_.find(to);
    if (it != nodes_.end()) local = it->second;
    if (local == nullptr) {
      Outgoing out;
      out.from = from;
      out.to = to;
      out.frame = encode_data_frame(from, to, BytesView(msg));
      ingress_.push_back(std::move(out));
    }
  }
  if (local != nullptr) {
    // Loopback without a socket: same executor hand-off as a received
    // frame, so ordering and threading look identical either way.
    deliver(from, to, std::make_shared<const Bytes>(std::move(msg)));
    return;
  }
  wake();
}

void SocketTransport::fence(NodeId id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    fenced_.insert(id);
    // Frames already handed over but not yet routed die here too.
    auto it = ingress_.begin();
    while (it != ingress_.end()) {
      if (it->to == id || it->from == id) {
        ++wire_.fenced_drops;
        it = ingress_.erase(it);
      } else {
        ++it;
      }
    }
  }
  fence_dirty_.store(true, std::memory_order_release);
  wake();
}

void SocketTransport::unfence(NodeId id) {
  std::lock_guard<std::mutex> lock(mu_);
  fenced_.erase(id);
}

bool SocketTransport::fenced(NodeId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return fenced_.count(id) > 0;
}

void SocketTransport::set_chaos(ChaosOptions chaos) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    chaos_blackhole_ = std::move(chaos.blackhole);
  }
  chaos_latency_ms_.store(static_cast<long>(chaos.rx_latency.count()),
                          std::memory_order_relaxed);
  chaos_dribble_.store(chaos.write_dribble_bytes, std::memory_order_relaxed);
  wake();  // re-evaluate poll deadlines under the new rules
}

void SocketTransport::inject_reset() {
  chaos_reset_.store(true, std::memory_order_release);
  wake();
}

WireStats SocketTransport::wire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wire_;
}

void SocketTransport::wake() {
  const std::uint8_t b = 1;
  // EAGAIN means a wake byte is already pending — good enough.
  [[maybe_unused]] const auto n = ::write(wake_wr_, &b, 1);
}

// ---------------------------------------------------------------------------
// Loop thread
// ---------------------------------------------------------------------------

void SocketTransport::loop() {
  std::vector<pollfd> pfds;
  std::vector<Conn*> pfd_conns;

  while (!stopping_.load(std::memory_order_acquire)) {
    if (fence_dirty_.exchange(false, std::memory_order_acq_rel)) purge_fenced();
    if (chaos_reset_.exchange(false, std::memory_order_acq_rel)) apply_chaos_reset();
    drain_ingress();

    pfds.clear();
    pfd_conns.clear();
    pfds.push_back({wake_rd_, POLLIN, 0});
    pfd_conns.push_back(nullptr);
    if (listen_fd_ >= 0) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      pfd_conns.push_back(nullptr);
    }
    for (auto& conn : conns_) {
      if (conn->fd < 0) continue;
      short events = POLLIN;
      if (conn->connecting || !conn->txq.empty()) events |= POLLOUT;
      pfds.push_back({conn->fd, events, 0});
      pfd_conns.push_back(conn.get());
    }

    // Block until I/O, a wake, the next dial-retry deadline, or the next
    // chaos-delayed delivery falling due.
    int timeout_ms = -1;
    const auto now = std::chrono::steady_clock::now();
    for (auto& [ep, peer] : peers_) {
      if (peer->conn != nullptr || peer->pending.empty()) continue;
      const auto dt =
          std::chrono::duration_cast<std::chrono::milliseconds>(peer->next_dial - now);
      const int ms = std::max<int>(0, static_cast<int>(dt.count()));
      if (timeout_ms < 0 || ms < timeout_ms) timeout_ms = ms;
    }
    if (!delayed_.empty()) {
      const auto dt = std::chrono::duration_cast<std::chrono::milliseconds>(
          delayed_.front().due - now);
      const int ms = std::max<int>(0, static_cast<int>(dt.count()));
      if (timeout_ms < 0 || ms < timeout_ms) timeout_ms = ms;
    }

    const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) break;  // unrecoverable; tear down

    if (pfds[0].revents & POLLIN) {
      std::uint8_t buf[256];
      while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
      }
    }
    std::size_t idx = 1;
    if (listen_fd_ >= 0) {
      if (pfds[idx].revents & POLLIN) accept_ready();
      ++idx;
    }
    for (; idx < pfds.size(); ++idx) {
      Conn* conn = pfd_conns[idx];
      if (conn == nullptr || conn->fd < 0) continue;
      const short re = pfds[idx].revents;
      if (re & (POLLERR | POLLHUP | POLLNVAL)) {
        if (conn->connecting) {
          on_dial_result(*conn, false);
        } else if (re & POLLHUP) {
          // Half-close: drain what is readable, then close on EOF.
          if (re & POLLIN) handle_readable(*conn);
          if (conn->fd >= 0) close_conn(*conn, true);
        } else {
          close_conn(*conn, true);
        }
        continue;
      }
      if (re & POLLOUT) handle_writable(*conn);
      if (conn->fd >= 0 && (re & POLLIN)) handle_readable(*conn);
    }

    // Dial retries whose backoff expired.
    const auto after = std::chrono::steady_clock::now();
    flush_delayed(after);
    for (auto& [ep, peer] : peers_) {
      if (peer->conn == nullptr && !peer->pending.empty() && peer->next_dial <= after) {
        ensure_dialing(*peer);
      }
    }

    // Sweep closed connections.
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::unique_ptr<Conn>& c) { return c->fd < 0; }),
                 conns_.end());
  }
}

void SocketTransport::purge_fenced() {
  std::unordered_set<NodeId> fenced;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fenced = fenced_;
  }
  if (fenced.empty()) return;
  std::uint64_t drops = 0;
  const auto is_fenced = [&fenced](NodeId id) { return fenced.count(id) > 0; };
  for (auto& [ep, peer] : peers_) {
    auto it = peer->pending.begin();
    while (it != peer->pending.end()) {
      if (is_fenced(it->first)) {
        peer->pending_bytes -= it->second.size();
        it = peer->pending.erase(it);
        ++drops;
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : conns_) {
    if (conn->fd < 0) continue;
    // The head frame may be partially on the wire; a truncated frame
    // would poison the stream for every other peer on this connection,
    // so it ships whole — equivalent to a byte in flight at kill time.
    std::size_t i = conn->tx_off > 0 ? 1 : 0;
    while (i < conn->txq.size()) {
      if (is_fenced(conn->txq[i].first)) {
        conn->txq_bytes -= conn->txq[i].second.size();
        conn->txq.erase(conn->txq.begin() + static_cast<std::ptrdiff_t>(i));
        ++drops;
      } else {
        ++i;
      }
    }
  }
  if (drops > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    wire_.fenced_drops += drops;
  }
}

void SocketTransport::apply_chaos_reset() {
  std::uint64_t resets = 0;
  for (auto& conn : conns_) {
    if (conn->fd < 0 || conn->connecting) continue;
    // close_conn cuts the stream wherever it is — a partially written head
    // frame leaves the peer's decoder holding a truncated frame, which is
    // exactly the state the chaos tests want exercised.
    close_conn(*conn, true);
    ++resets;
  }
  if (resets > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    wire_.chaos_resets += resets;
  }
}

void SocketTransport::flush_delayed(std::chrono::steady_clock::time_point now) {
  while (!delayed_.empty() && delayed_.front().due <= now) {
    Delayed d = std::move(delayed_.front());
    delayed_.pop_front();
    deliver(d.from, d.to, std::move(d.payload));
  }
}

void SocketTransport::drain_ingress() {
  std::deque<Outgoing> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch.swap(ingress_);
  }
  for (auto& out : batch) route_frame(std::move(out));
}

void SocketTransport::route_frame(Outgoing&& out) {
  auto sit = static_routes_.find(out.to);
  if (sit != static_routes_.end()) {
    Peer& peer = *sit->second;
    if (peer.conn != nullptr && !peer.conn->connecting) {
      enqueue_frame(*peer.conn, out.to, std::move(out.frame));
      return;
    }
    if (peer.pending_bytes + out.frame.size() > config_.send_queue_bytes) {
      std::lock_guard<std::mutex> lock(mu_);
      ++wire_.overflow_drops;
      return;
    }
    peer.pending_bytes += out.frame.size();
    peer.pending.emplace_back(out.to, std::move(out.frame));
    ensure_dialing(peer);
    return;
  }
  auto lit = learned_routes_.find(out.to);
  if (lit != learned_routes_.end() && lit->second->fd >= 0) {
    enqueue_frame(*lit->second, out.to, std::move(out.frame));
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++wire_.unroutable_drops;
}

void SocketTransport::enqueue_frame(Conn& conn, NodeId to, Bytes frame) {
  if (conn.txq_bytes + frame.size() > config_.send_queue_bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    ++wire_.overflow_drops;
    return;
  }
  conn.txq_bytes += frame.size();
  conn.txq.emplace_back(to, std::move(frame));
  handle_writable(conn);
}

void SocketTransport::ensure_dialing(Peer& peer) {
  if (peer.conn != nullptr) return;
  const auto now = std::chrono::steady_clock::now();
  if (peer.next_dial > now) return;

  bool in_progress = false;
  std::string err;
  const int fd = connect_socket(peer.ep, in_progress, err);
  if (fd < 0) {
    on_dial_failure(peer);
    return;
  }
  auto conn = std::make_unique<Conn>(config_.max_frame_bytes);
  conn->fd = fd;
  conn->dialed = true;
  conn->connecting = in_progress;
  conn->peer = &peer;
  peer.conn = conn.get();
  Conn& ref = *conn;
  conns_.push_back(std::move(conn));
  if (!in_progress) conn_established(ref);
}

void SocketTransport::on_dial_failure(Peer& peer) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++wire_.connect_failures;
  }
  // Decorrelated jitter (D10): a fleet of clients redialling a recovering
  // peer spreads out instead of arriving in synchronized waves, and the
  // cap bounds how long a retry schedule can lag an actual recovery.
  peer.backoff =
      next_backoff(config_.backoff_min, config_.backoff_max, peer.backoff, backoff_rng_);
  peer.attempts += 1;
  peer.next_dial = std::chrono::steady_clock::now() + peer.backoff;
}

void SocketTransport::on_dial_result(Conn& conn, bool ok) {
  if (ok) {
    conn.connecting = false;
    conn_established(conn);
    return;
  }
  Peer* peer = conn.peer;
  close_conn(conn, false);  // nothing was ever written; pending stays queued
  if (peer != nullptr) on_dial_failure(*peer);
}

void SocketTransport::conn_established(Conn& conn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++wire_.connects;
    if (conn.peer != nullptr && conn.peer->was_up) ++wire_.reconnects;
  }
  conn.txq_bytes += kHelloFrameBytes;
  conn.txq.emplace_front(NodeId{0}, encode_hello_frame(config_.incarnation));
  if (conn.peer != nullptr) {
    conn.peer->was_up = true;
    conn.peer->attempts = 0;
    conn.peer->backoff = std::chrono::milliseconds{0};
    while (!conn.peer->pending.empty()) {
      auto& [to, frame] = conn.peer->pending.front();
      conn.txq_bytes += frame.size();
      conn.txq.emplace_back(to, std::move(frame));
      conn.peer->pending.pop_front();
    }
    conn.peer->pending_bytes = 0;
  }
  handle_writable(conn);
}

void SocketTransport::handle_writable(Conn& conn) {
  if (conn.fd < 0) return;
  if (conn.connecting) {
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      on_dial_result(conn, false);
      return;
    }
    on_dial_result(conn, true);
    return;
  }
  std::uint64_t bytes_out = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t framing_out = 0;
  const std::size_t dribble = chaos_dribble_.load(std::memory_order_relaxed);
  std::size_t budget = dribble == 0 ? std::numeric_limits<std::size_t>::max() : dribble;
  while (!conn.txq.empty() && budget > 0) {
    const Bytes& frame = conn.txq.front().second;
    const std::size_t want = std::min(frame.size() - conn.tx_off, budget);
    // MSG_NOSIGNAL: a peer that closed its end yields EPIPE, which takes
    // the close-and-redial path below, instead of a process-killing
    // SIGPIPE.
    const auto n = ::send(conn.fd, frame.data() + conn.tx_off, want, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (bytes_out > 0) flush_write_stats(bytes_out, frames_out, framing_out);
      close_conn(conn, true);
      return;
    }
    bytes_out += static_cast<std::uint64_t>(n);
    conn.tx_off += static_cast<std::size_t>(n);
    budget -= static_cast<std::size_t>(n);
    if (conn.tx_off < frame.size()) break;
    ++frames_out;
    framing_out += frame.size() > 4 && frame[4] == kFrameHello ? frame.size()
                                                               : kDataFrameOverhead;
    conn.txq_bytes -= frame.size();
    conn.txq.pop_front();
    conn.tx_off = 0;
  }
  if (bytes_out > 0 || frames_out > 0) flush_write_stats(bytes_out, frames_out, framing_out);
}

void SocketTransport::flush_write_stats(std::uint64_t bytes, std::uint64_t frames,
                                        std::uint64_t framing) {
  std::lock_guard<std::mutex> lock(mu_);
  wire_.socket_bytes_out += bytes;
  wire_.frames_out += frames;
  wire_.framing_bytes_out += framing;
}

void SocketTransport::handle_readable(Conn& conn) {
  // Hybrid read strategy: a large outstanding payload span is read
  // straight into the frame's shared buffer (kernel → payload is the only
  // copy — the zero-copy receive path); header bytes and small frames go
  // through a scratch buffer so one syscall can cover many small frames.
  std::uint8_t scratch[4096];
  const auto sink = [this, &conn](Frame&& f) {
    if (conn.fd >= 0) on_frame(conn, std::move(f));
  };
  while (conn.fd >= 0) {
    auto [dst, room] = conn.decoder.next_span();
    if (room == 0) {  // poisoned decoder that somehow survived: close
      close_conn(conn, true);
      return;
    }
    const bool direct = room >= sizeof(scratch);
    const auto n =
        ::read(conn.fd, direct ? dst : scratch, direct ? room : sizeof(scratch));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_conn(conn, true);
      return;
    }
    if (n == 0) {  // EOF — the peer process closed or died
      close_conn(conn, true);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      wire_.socket_bytes_in += static_cast<std::uint64_t>(n);
    }
    const bool ok =
        direct ? conn.decoder.commit(static_cast<std::size_t>(n), sink)
               : conn.decoder.feed(BytesView(scratch, static_cast<std::size_t>(n)), sink);
    if (!ok && conn.fd >= 0) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++wire_.framing_errors;
      }
      close_conn(conn, true);
      return;
    }
  }
}

void SocketTransport::on_frame(Conn& conn, Frame&& f) {
  if (f.kind == kFrameHello) {
    conn.hello_seen = true;
    conn.peer_incarnation = f.incarnation;
    if (conn.dialed && conn.peer != nullptr) {
      if (f.incarnation < conn.peer->max_incarnation) {
        // A zombie stream of a dead era (the peer restarted and we
        // already spoke to the new incarnation): nothing from it may be
        // delivered.
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++wire_.stale_era_drops;
        }
        close_conn(conn, true);
        return;
      }
      conn.peer->max_incarnation = f.incarnation;
    }
    return;
  }
  // DATA. A peer speaking DATA before HELLO is not our protocol.
  if (!conn.hello_seen) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++wire_.framing_errors;
    }
    close_conn(conn, true);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++wire_.frames_in;
    if (fenced_.count(f.from) > 0 || fenced_.count(f.to) > 0) {
      ++wire_.fenced_drops;
      return;
    }
    // Inbound half of the chaos blackhole: the bytes crossed the wire,
    // but this side refuses to hear them (asymmetric partition).
    if (!chaos_blackhole_.empty() &&
        (chaos_blackhole_.count(f.from) > 0 || chaos_blackhole_.count(f.to) > 0)) {
      ++wire_.chaos_blackholed;
      return;
    }
  }
  // Learn the return route: replies to f.from ride this connection (the
  // server side never dials clients).
  learned_routes_[f.from] = &conn;
  const auto latency_ms = chaos_latency_ms_.load(std::memory_order_relaxed);
  if (latency_ms > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++wire_.chaos_delayed;
    }
    delayed_.push_back(Delayed{std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(latency_ms),
                               f.from, f.to, std::move(f.payload)});
    return;
  }
  deliver(f.from, f.to, std::move(f.payload));
}

void SocketTransport::deliver(NodeId from, NodeId to,
                              std::shared_ptr<const Bytes> payload) {
  std::shared_ptr<LocalNode> box;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = nodes_.find(to);
    if (it == nodes_.end()) {
      ++wire_.unroutable_drops;
      return;
    }
    box = it->second;
  }
  exec_.post([box = std::move(box), from, payload = std::move(payload)] {
    std::lock_guard<std::mutex> node_lock(box->mu);
    if (box->node != nullptr) box->node->on_shared_message(from, payload);
  });
}

void SocketTransport::accept_ready() {
  while (true) {
    const int fd = accept_socket(listen_fd_, bound_.kind);
    if (fd < 0) return;  // EAGAIN or transient error; poll will retry
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++wire_.accepts;
    }
    auto conn = std::make_unique<Conn>(config_.max_frame_bytes);
    conn->fd = fd;
    Conn& ref = *conn;
    conns_.push_back(std::move(conn));
    ref.txq_bytes += kHelloFrameBytes;
    ref.txq.emplace_back(NodeId{0}, encode_hello_frame(config_.incarnation));
    handle_writable(ref);
  }
}

void SocketTransport::close_conn(Conn& conn, bool count_down_drops) {
  if (conn.fd < 0) return;
  // A conn still mid-dial never carried traffic: its closure is a
  // connect_failure (counted by the caller), not a disconnect.
  const bool established = !conn.connecting;
  ::close(conn.fd);
  conn.fd = -1;
  conn.connecting = false;
  std::uint64_t dropped = 0;
  for (const auto& [to, frame] : conn.txq) {
    (void)to;
    if (frame.size() > 4 && frame[4] == kFrameData) ++dropped;
  }
  conn.txq.clear();
  conn.txq_bytes = 0;
  conn.tx_off = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (count_down_drops && dropped > 0) wire_.down_drops += dropped;
    if (established) ++wire_.disconnects;
  }
  if (conn.peer != nullptr) {
    conn.peer->conn = nullptr;
    if (!conn.peer->pending.empty()) {
      // Something is still waiting for this endpoint: retry with backoff.
      on_dial_failure(*conn.peer);
    }
  }
  for (auto it = learned_routes_.begin(); it != learned_routes_.end();) {
    if (it->second == &conn) {
      it = learned_routes_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace faust::sock
