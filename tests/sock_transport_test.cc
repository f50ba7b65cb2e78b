// sock::SocketTransport unit tests (DESIGN.md D9): routing and learned
// return routes over real TCP and UDS sockets, connection pooling,
// FIFO per (from,to) — including across a peer restart — large frames,
// the payload-counter mirror + framing-overhead accounting, bounded
// send queues, and crash fencing. Everything runs on loopback with
// ephemeral ports; each test owns its runtime and transports.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "rt/threaded_runtime.h"
#include "sock/frame.h"
#include "sock/socket_transport.h"

namespace faust::sock {
namespace {

constexpr auto kWait = std::chrono::seconds(10);

/// Records deliveries; wait_count blocks until n arrived (or times out).
class WaitNode : public net::Node {
 public:
  void on_message(NodeId from, BytesView msg) override {
    std::lock_guard lock(mu_);
    got_.emplace_back(from, Bytes(msg.begin(), msg.end()));
    cv_.notify_all();
  }

  bool wait_count(std::size_t n) {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, kWait, [&] { return got_.size() >= n; });
  }

  std::vector<std::pair<NodeId, Bytes>> got() {
    std::lock_guard lock(mu_);
    return got_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<NodeId, Bytes>> got_;
};

/// Echoes every message straight back to its sender over the transport
/// it is attached to (exercising the learned return route: the server
/// side never has the client in its registry).
class EchoNode : public net::Node {
 public:
  EchoNode(net::Transport& t, NodeId self) : t_(t), self_(self) {}
  void on_message(NodeId from, BytesView msg) override {
    t_.send(self_, from, Bytes(msg.begin(), msg.end()));
  }

 private:
  net::Transport& t_;
  const NodeId self_;
};

struct UdsDir {
  std::string path;
  UdsDir() {
    path = std::string(::testing::TempDir()) + "/faust_sock_" + std::to_string(::getpid()) +
           "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::create_directories(path);
  }
  ~UdsDir() { std::filesystem::remove_all(path); }
};

std::unique_ptr<rt::ThreadedRuntime> make_runtime() {
  rt::ThreadedRuntimeConfig rc;
  rc.tick = std::chrono::nanoseconds(1000);
  return std::make_unique<rt::ThreadedRuntime>(rc);
}

Bytes tagged(std::uint8_t tag, std::size_t len) {
  Bytes b(len, 0);
  if (!b.empty()) b[0] = tag;
  for (std::size_t i = 1; i < len; ++i) b[i] = static_cast<std::uint8_t>(i);
  return b;
}

void roundtrip_fifo(const Endpoint& listen) {
  auto rt = make_runtime();
  SocketTransportConfig server_cfg;
  server_cfg.listen = listen;
  SocketTransport server(*rt, server_cfg);
  EchoNode echo(server, 1);
  server.attach(1, echo);

  SocketTransportConfig client_cfg;
  client_cfg.peers[1] = server.bound_endpoint();
  SocketTransport client(*rt, client_cfg);
  WaitNode sink;
  client.attach(2, sink);

  constexpr int kMsgs = 200;
  for (int i = 0; i < kMsgs; ++i) {
    Bytes msg = tagged(3, 16);
    msg[1] = static_cast<std::uint8_t>(i);
    msg[2] = static_cast<std::uint8_t>(i >> 8);
    client.send(2, 1, std::move(msg));
  }
  ASSERT_TRUE(sink.wait_count(kMsgs));
  const auto got = sink.got();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].first, 1) << "echo sender id";
    // FIFO per (from,to) end to end: client→server order, echo order,
    // server→client order all preserved over one pooled connection.
    EXPECT_EQ(got[static_cast<std::size_t>(i)].second[1], static_cast<std::uint8_t>(i));
    EXPECT_EQ(got[static_cast<std::size_t>(i)].second[2], static_cast<std::uint8_t>(i >> 8));
  }
  client.detach(2);
  server.detach(1);
}

TEST(SocketTransport, TcpRoundtripFifoAndLearnedReturnRoute) {
  roundtrip_fifo(Endpoint::tcp("127.0.0.1", 0));
}

TEST(SocketTransport, UdsRoundtripFifoAndLearnedReturnRoute) {
  UdsDir dir;
  roundtrip_fifo(Endpoint::uds(dir.path + "/listen.sock"));
}

TEST(SocketTransport, NodesOnOneEndpointPoolOneConnection) {
  auto rt = make_runtime();
  SocketTransportConfig server_cfg;
  server_cfg.listen = Endpoint::tcp("127.0.0.1", 0);
  SocketTransport server(*rt, server_cfg);
  WaitNode a, b;
  server.attach(1, a);
  server.attach(1'000'000, b);  // a shard's server + its cache node

  SocketTransportConfig client_cfg;
  client_cfg.peers[1] = server.bound_endpoint();
  client_cfg.peers[1'000'000] = server.bound_endpoint();
  SocketTransport client(*rt, client_cfg);

  for (int i = 0; i < 10; ++i) {
    client.send(2, 1, tagged(1, 8));
    client.send(2, 1'000'000, tagged(6, 8));
  }
  ASSERT_TRUE(a.wait_count(10));
  ASSERT_TRUE(b.wait_count(10));
  EXPECT_EQ(server.wire().accepts, 1u) << "both NodeIds share one stream";
  EXPECT_EQ(client.wire().connects, 1u);
  server.detach(1);
  server.detach(1'000'000);
}

TEST(SocketTransport, MegabyteFramesSurviveBothDirections) {
  auto rt = make_runtime();
  SocketTransportConfig server_cfg;
  server_cfg.listen = Endpoint::tcp("127.0.0.1", 0);
  SocketTransport server(*rt, server_cfg);
  EchoNode echo(server, 1);
  server.attach(1, echo);

  SocketTransportConfig client_cfg;
  client_cfg.peers[1] = server.bound_endpoint();
  SocketTransport client(*rt, client_cfg);
  WaitNode sink;
  client.attach(2, sink);

  Bytes big(1u << 20);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 13);
  client.send(2, 1, big);
  ASSERT_TRUE(sink.wait_count(1));
  EXPECT_EQ(sink.got()[0].second, big);
  client.detach(2);
  server.detach(1);
}

TEST(SocketTransport, CountersMirrorNetworkAndReportFramingOverhead) {
  auto rt = make_runtime();
  SocketTransportConfig server_cfg;
  server_cfg.listen = Endpoint::tcp("127.0.0.1", 0);
  SocketTransport server(*rt, server_cfg);
  WaitNode sink;
  server.attach(1, sink);

  SocketTransportConfig client_cfg;
  client_cfg.peers[1] = server.bound_endpoint();
  SocketTransport client(*rt, client_cfg);

  // 5 SUBMITs (tag 1) of 100 bytes, 3 CACHE_GETs (tag 6) of 40 bytes.
  for (int i = 0; i < 5; ++i) client.send(2, 1, tagged(1, 100));
  for (int i = 0; i < 3; ++i) client.send(3, 1, tagged(6, 40));
  ASSERT_TRUE(sink.wait_count(8));

  // Payload mirror: counted at send(), tagged by leading byte — the same
  // accounting net::Network does, so bytes/op comparisons carry over.
  EXPECT_EQ(client.total().messages, 8u);
  EXPECT_EQ(client.total().bytes, 5u * 100 + 3u * 40);
  EXPECT_EQ(client.total_for(1).messages, 5u);
  EXPECT_EQ(client.total_for(1).bytes, 500u);
  EXPECT_EQ(client.total_for(6).bytes, 120u);
  EXPECT_EQ(client.channel(2, 1).messages, 5u);
  EXPECT_EQ(client.channel_for(3, 1, 6).messages, 3u);
  EXPECT_EQ(client.channel_for(3, 1, 1).messages, 0u);

  // Socket-level accounting identity: everything written is payload plus
  // framing (DATA headers + the HELLO frame), with the framing share
  // reported separately for PERF.md. The server may deliver before the
  // client's loop thread flushes its write counters, so wait for them.
  const std::uint64_t expect_out =
      client.total().bytes + 8u * kDataFrameOverhead + kHelloFrameBytes;
  const auto deadline = std::chrono::steady_clock::now() + kWait;
  while (client.wire().socket_bytes_out < expect_out &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const WireStats w = client.wire();
  EXPECT_EQ(w.socket_bytes_out, client.total().bytes + w.framing_bytes_out);
  EXPECT_EQ(w.framing_bytes_out, 8u * kDataFrameOverhead + kHelloFrameBytes);
  server.detach(1);
}

TEST(SocketTransport, FenceDropsQueuedAndFutureTrafficUntilUnfence) {
  auto rt = make_runtime();
  SocketTransportConfig server_cfg;
  server_cfg.listen = Endpoint::tcp("127.0.0.1", 0);
  SocketTransport server(*rt, server_cfg);
  WaitNode sink;
  server.attach(1, sink);

  SocketTransportConfig client_cfg;
  client_cfg.peers[1] = server.bound_endpoint();
  SocketTransport client(*rt, client_cfg);

  client.send(2, 1, tagged(1, 8));
  ASSERT_TRUE(sink.wait_count(1));

  client.fence(1);
  EXPECT_TRUE(client.fenced(1));
  for (int i = 0; i < 5; ++i) client.send(2, 1, tagged(1, 8));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(sink.got().size(), 1u) << "fenced sends must not arrive";
  EXPECT_GE(client.wire().fenced_drops, 5u);

  client.unfence(1);
  EXPECT_FALSE(client.fenced(1));
  client.send(2, 1, tagged(1, 8));
  ASSERT_TRUE(sink.wait_count(2));
  server.detach(1);
}

TEST(SocketTransport, FifoHoldsAcrossPeerRestartWithReconnect) {
  auto rt = make_runtime();
  UdsDir dir;
  const Endpoint ep = Endpoint::uds(dir.path + "/server.sock");

  SocketTransportConfig client_cfg;
  client_cfg.peers[1] = ep;
  client_cfg.backoff_min = std::chrono::milliseconds(1);
  SocketTransport client(*rt, client_cfg);

  WaitNode sink1;
  {
    SocketTransportConfig s1;
    s1.listen = ep;
    s1.incarnation = 1;
    SocketTransport server1(*rt, s1);
    server1.attach(1, sink1);
    for (int i = 0; i < 5; ++i) {
      Bytes m = tagged(1, 8);
      m[1] = static_cast<std::uint8_t>(i);
      client.send(2, 1, std::move(m));
    }
    ASSERT_TRUE(sink1.wait_count(5));
    server1.detach(1);
  }  // server down; its rx state died with it

  // Wait until the client's loop has *observed* the peer's death. A send
  // issued before that races into the dying conn's txq and is discarded
  // as a down_drop (designed loss — the protocol layer resubmits), which
  // is not the parked-then-flushed path this test pins.
  {
    const auto deadline = std::chrono::steady_clock::now() + kWait;
    while (client.wire().disconnects == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(client.wire().disconnects, 1u);
  }

  // Sent while the peer is down: parked in the bounded pending queue,
  // flushed in order once the redial (exponential backoff) succeeds.
  for (int i = 5; i < 20; ++i) {
    Bytes m = tagged(1, 8);
    m[1] = static_cast<std::uint8_t>(i);
    client.send(2, 1, std::move(m));
  }

  WaitNode sink2;
  SocketTransportConfig s2;
  s2.listen = ep;
  s2.incarnation = 2;  // the restarted era announces itself
  SocketTransport server2(*rt, s2);
  server2.attach(1, sink2);

  ASSERT_TRUE(sink2.wait_count(15));
  const auto got = sink2.got();
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].second[1], static_cast<std::uint8_t>(i + 5))
        << "FIFO must hold across the reconnect";
  }
  EXPECT_GE(client.wire().reconnects, 1u);
  server2.detach(1);
}

TEST(SocketTransport, SendQueueIsBoundedWhilePeerUnreachable) {
  auto rt = make_runtime();
  SocketTransportConfig cfg;
  // Nothing will ever listen here (ENOENT on every dial).
  cfg.peers[1] = Endpoint::uds("/nonexistent-faust-dir/never.sock");
  cfg.send_queue_bytes = 4096;
  cfg.backoff_min = std::chrono::milliseconds(1);
  SocketTransport t(*rt, cfg);

  for (int i = 0; i < 100; ++i) t.send(2, 1, Bytes(1024, 0x42));
  const auto deadline = std::chrono::steady_clock::now() + kWait;
  while (t.wire().overflow_drops == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const WireStats w = t.wire();
  EXPECT_GT(w.overflow_drops, 0u) << "a down peer must cost drops, not memory";
  EXPECT_GT(w.connect_failures, 0u);
}

TEST(SocketTransport, ZombieEraConnectionIsClosedBeforeDelivery) {
  auto rt = make_runtime();
  UdsDir dir;
  const Endpoint ep = Endpoint::uds(dir.path + "/server.sock");

  SocketTransportConfig client_cfg;
  client_cfg.peers[1] = ep;
  client_cfg.backoff_min = std::chrono::milliseconds(1);
  SocketTransport client(*rt, client_cfg);

  {
    SocketTransportConfig s1;
    s1.listen = ep;
    s1.incarnation = 5;
    SocketTransport server1(*rt, s1);
    WaitNode sink;
    server1.attach(1, sink);
    client.send(2, 1, tagged(1, 8));
    ASSERT_TRUE(sink.wait_count(1));  // client has seen incarnation 5
    server1.detach(1);
  }

  // An impostor announcing an OLDER era on the same endpoint: the client
  // must close the connection on its HELLO — DATA from a dead era can
  // never be delivered.
  SocketTransportConfig s2;
  s2.listen = ep;
  s2.incarnation = 3;
  SocketTransport zombie(*rt, s2);
  WaitNode zombie_sink;
  zombie.attach(1, zombie_sink);

  client.send(2, 1, tagged(1, 8));
  const auto deadline = std::chrono::steady_clock::now() + kWait;
  while (client.wire().stale_era_drops == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(client.wire().stale_era_drops, 1u);
  zombie.detach(1);
}

TEST(SocketTransport, LocalDeliveryNeedsNoSocket) {
  auto rt = make_runtime();
  SocketTransportConfig cfg;  // no listen, no peers
  SocketTransport t(*rt, cfg);
  WaitNode a;
  t.attach(7, a);
  t.send(8, 7, tagged(2, 32));
  ASSERT_TRUE(a.wait_count(1));
  EXPECT_EQ(a.got()[0].first, 8);
  const WireStats w = t.wire();
  EXPECT_EQ(w.socket_bytes_out, 0u);
  EXPECT_EQ(t.total().messages, 1u) << "local sends still count in the mirror";
  t.detach(7);
}

/// Runs every task at once, on the calling thread. Under a
/// SocketTransport that is the loop thread, so a node's on_message runs
/// inside one loop iteration, between two polls.
class InlineExecutor : public exec::Executor {
 public:
  exec::Time now() const override { return 0; }
  exec::EventId after(exec::Time, Task task) override {
    task();
    return 0;
  }
  exec::EventId at(exec::Time, Task task) override {
    task();
    return 0;
  }
  void cancel(exec::EventId) override {}
};

/// A blocking UDS stream connected to `path`: a peer that speaks the frame
/// protocol by hand.
int raw_uds_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::copy(path.begin(), path.end(), addr.sun_path);
  if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool raw_write(int fd, const Bytes& b) {
  return ::write(fd, b.data(), b.size()) == static_cast<ssize_t>(b.size());
}

bool wait_until(const std::function<bool()>& cond) {
  const auto deadline = std::chrono::steady_clock::now() + kWait;
  while (!cond()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(SocketTransport, WriteToClosedPeerClosesConnInsteadOfRaisingSigpipe) {
  // Peer B introduces node 20 and is then closed from inside node 1's
  // on_message, which also sends to node 20. The inline executor runs that
  // on the loop thread, so the loop's next step writes to B's connection
  // before any poll can report the close: write(2) would raise SIGPIPE and
  // kill this process; the transport must see EPIPE and close the conn.
  UdsDir dir;
  InlineExecutor exec;
  SocketTransportConfig cfg;
  cfg.listen = Endpoint::uds(dir.path + "/t.sock");
  SocketTransport t(exec, cfg);

  class CloseAndSend : public net::Node {
   public:
    CloseAndSend(SocketTransport& t, int victim) : t_(t), victim_(victim) {}
    void on_message(NodeId from, BytesView) override {
      if (from == 10 && victim_ >= 0) {
        ::close(victim_);
        victim_ = -1;
        t_.send(1, 20, tagged(1, 8));
      }
      seen.fetch_add(1);
    }
    std::atomic<int> seen{0};

   private:
    SocketTransport& t_;
    int victim_;
  };

  const int b = raw_uds_connect(cfg.listen->path);
  ASSERT_GE(b, 0);
  CloseAndSend node(t, b);
  t.attach(1, node);
  ASSERT_TRUE(raw_write(b, encode_hello_frame(1)));
  ASSERT_TRUE(raw_write(b, encode_data_frame(20, 1, tagged(1, 8))));
  ASSERT_TRUE(wait_until([&] { return node.seen.load() == 1; }));

  const int a = raw_uds_connect(cfg.listen->path);
  ASSERT_GE(a, 0);
  ASSERT_TRUE(raw_write(a, encode_hello_frame(1)));
  ASSERT_TRUE(raw_write(a, encode_data_frame(10, 1, tagged(1, 8))));
  ASSERT_TRUE(wait_until([&] { return t.wire().down_drops == 1; }))
      << "the frame for node 20 must be dropped with B's connection";
  EXPECT_GE(t.wire().disconnects, 1u);

  // The transport keeps serving the other connection.
  ASSERT_TRUE(raw_write(a, encode_data_frame(10, 1, tagged(1, 8))));
  EXPECT_TRUE(wait_until([&] { return node.seen.load() == 3; }));
  t.detach(1);
  ::close(a);
}

TEST(Endpoint, AcceptedTcpConnectionsDisableNagle) {
  // Both ends of a TCP stream set TCP_NODELAY: replies are small frames
  // written back to back, and behind Nagle each would wait for the peer's
  // delayed ACK.
  std::string err;
  Endpoint bound;
  const int lfd = listen_socket(Endpoint::tcp("127.0.0.1", 0), bound, err);
  ASSERT_GE(lfd, 0) << err;
  bool in_progress = false;
  const int cfd = connect_socket(bound, in_progress, err);
  ASSERT_GE(cfd, 0) << err;
  int afd = -1;
  ASSERT_TRUE(wait_until([&] {
    afd = accept_socket(lfd, Endpoint::Kind::kTcp);
    return afd >= 0;
  }));
  for (const int fd : {cfd, afd}) {
    int on = 0;
    socklen_t len = sizeof(on);
    ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, &len), 0);
    EXPECT_NE(on, 0) << (fd == cfd ? "dialed" : "accepted") << " side";
  }
  ::close(afd);
  ::close(cfd);
  ::close(lfd);
}

TEST(SocketTransport, UnroutableSendsAreCountedNotFatal) {
  auto rt = make_runtime();
  SocketTransportConfig cfg;
  SocketTransport t(*rt, cfg);
  t.send(1, 99, tagged(1, 8));  // nobody local, nobody in the registry
  const auto deadline = std::chrono::steady_clock::now() + kWait;
  while (t.wire().unroutable_drops == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(t.wire().unroutable_drops, 1u);
}

// --- D10 redial backoff -------------------------------------------------------

TEST(SocketTransport, BackoffDecorrelatedJitterStaysInEnvelope) {
  // next_backoff is the whole redial policy: the first failure sits
  // exactly on the floor, every later draw lands in [base, min(cap,
  // prev*3)], and the cap is an absolute ceiling no matter how long the
  // outage lasts.
  Rng rng(42);
  const auto base = std::chrono::milliseconds(2);
  const auto cap = std::chrono::milliseconds(500);
  auto prev = std::chrono::milliseconds(0);
  prev = next_backoff(base, cap, prev, rng);
  EXPECT_EQ(prev, base) << "first failure: exactly the floor";
  bool reached_upper_half = false;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t hi =
        std::max(base.count(), std::min(cap.count(), prev.count() * 3));
    const auto d = next_backoff(base, cap, prev, rng);
    ASSERT_GE(d.count(), base.count());
    ASSERT_LE(d.count(), hi);
    ASSERT_LE(d.count(), cap.count()) << "the cap is absolute";
    if (d.count() > cap.count() / 2) reached_upper_half = true;
    prev = d;
  }
  EXPECT_TRUE(reached_upper_half) << "a long outage must actually back off";

  // Degenerate bounds stay sane: cap below base clamps to base.
  Rng r2(7);
  EXPECT_EQ(next_backoff(std::chrono::milliseconds(10), std::chrono::milliseconds(3),
                         std::chrono::milliseconds(50), r2),
            std::chrono::milliseconds(10));
}

TEST(SocketTransport, BackoffReconnectStormDesynchronizesFleet) {
  // The reconnect-storm regression: a fleet of clients loses the same
  // server at the same instant. Under truncated binary exponential
  // backoff they would redial in lockstep waves (every client's Nth
  // retry at the same tick); decorrelated jitter must spread the Nth
  // retry across (almost all) distinct times — while staying fully
  // deterministic per seed, like every other randomized component here.
  constexpr int kFleet = 64;
  constexpr int kRetries = 8;
  const auto base = std::chrono::milliseconds(2);
  const auto cap = std::chrono::milliseconds(500);

  const auto schedule = [&](std::uint64_t seed) {
    Rng rng(0x5851F42D4C957F2DULL ^ seed);  // the transport's seeding scheme
    auto prev = std::chrono::milliseconds(0);
    std::int64_t at = 0;
    for (int i = 0; i < kRetries; ++i) {
      prev = next_backoff(base, cap, prev, rng);
      at += prev.count();
    }
    return at;
  };

  std::set<std::int64_t> distinct;
  for (int c = 0; c < kFleet; ++c) {
    distinct.insert(schedule(static_cast<std::uint64_t>(c)));
  }
  EXPECT_GE(distinct.size(), static_cast<std::size_t>(kFleet - 4))
      << "the storm must not re-form into synchronized waves";

  // Same incarnation, same schedule: jitter is replayable, not entropy.
  EXPECT_EQ(schedule(11), schedule(11));
}

}  // namespace
}  // namespace faust::sock
