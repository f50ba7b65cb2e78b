// Cluster — one-call assembly of a full FAUST deployment inside the
// simulator: scheduler, network, offline mailbox, signature scheme, a
// server (correct by default; adversarial servers can be attached
// instead), n FaustClients, and a history recorder feeding the checkers.
//
// Used by the examples, the benches and most integration tests.  The
// synchronous `write`/`read` helpers drive the event loop until the
// operation completes (or a step budget expires, e.g. under a crashed
// server), which keeps scenario scripts readable.
#pragma once

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "cache/cache_node.h"
#include "checker/history.h"
#include "crypto/signature.h"
#include "faust/faust_client.h"
#include "net/mailbox.h"
#include "net/network.h"
#include "sim/scheduler.h"
#include "storage/persistent_server.h"
#include "ustor/server.h"

namespace faust {

/// Knobs for Cluster assembly.
struct ClusterConfig {
  int n = 3;
  std::uint64_t seed = 1;
  net::DelayModel delay{1, 10};       // client↔server channel delay
  sim::Time mail_min_delay = 50;      // offline channel latency
  sim::Time mail_max_delay = 200;
  FaustConfig faust;                  // FAUST timers
  bool with_server = true;            // false: caller attaches own server
  /// Non-empty: the server is a crash-durable storage::PersistentServer
  /// rooted in this directory (created if absent), and crash_server()/
  /// restart_server() become legal. server() is nullptr in this mode;
  /// use pserver().
  std::string durability_dir;
  storage::DurabilityOptions durability;  // snapshot cadence (durable mode)
  /// D8 edge-cache tier: cache.enabled wires the deployment for cached
  /// reads (the KV layer attaches CacheClients; see kvstore/), and
  /// cache.with_node makes the cluster own an honest CacheNode under
  /// cache::kCacheNodeId (false: a test attaches its own, e.g. Byzantine,
  /// node there).
  cache::CacheOptions cache;
  /// Transport hook (DESIGN.md D9): when set, the deployment's parties
  /// ride this external transport (which must outlive the cluster)
  /// instead of an owned simulated net::Network — the real-socket mode,
  /// where the server lives in ANOTHER PROCESS behind a
  /// sock::SocketTransport. Requires `executor` (the socket loop posts
  /// deliveries onto it; a sim::Scheduler cannot take cross-thread posts,
  /// so pass a rt::ThreadedRuntime), and implies with_server == false,
  /// cache.with_node == false and no durability_dir: the server side of
  /// the deployment is whoever answers on the wire. net() is illegal in
  /// this mode; use transport().
  net::Transport* transport = nullptr;
  /// Execution hook: when set, the cluster runs on this external executor
  /// (which must outlive it) instead of owning a sim::Scheduler.
  /// ShardedCluster uses it two ways: kDeterministic passes one shared
  /// sim::Scheduler to every shard (S deployments on a single event loop,
  /// deterministic under one seed), kThreaded passes each shard its own
  /// rt::ThreadedRuntime (one OS thread per shard).
  ///
  /// Lifetime contract, both directions: the executor outlives the
  /// cluster, AND the executor must not run further after this cluster is
  /// destroyed while events it scheduled are still pending — in-flight
  /// network/mailbox deliveries capture cluster-owned objects, and only
  /// the FaustClient timers are cancelled on destruction. Destroy the
  /// co-scheduled clusters and their executor together, stopping a
  /// threaded runtime first (as ShardedCluster does); tearing down a
  /// single shard mid-run needs a drain/cancel protocol that does not
  /// exist yet (ROADMAP: shard rebalancing).
  exec::Executor* executor = nullptr;
};

/// A fully wired simulated deployment.
class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// The executor everything in this deployment runs on.
  exec::Executor& exec() { return *exec_; }

  /// The simulation scheduler, for harnesses that step virtual time.
  /// Only valid when the cluster owns one or was given a sim::Scheduler
  /// as its executor (FAUST_CHECKed) — i.e. never under a threaded
  /// runtime, where time cannot be stepped from outside.
  sim::Scheduler& sched();

  /// True when the deployment runs on a sim::Scheduler (sched() is legal
  /// and callers drive completion by stepping it); false under a threaded
  /// runtime, where work must be post()ed onto exec() and waited for.
  bool simulated() const { return sim_ != nullptr; }

  /// Runs `body` in this deployment's execution context and returns once
  /// it ran: inline when simulated, post_sync()ed onto a threaded
  /// runtime (never call it from that runtime's own thread). False when
  /// a stopped runtime refused it — the body never ran.
  bool run_sync(const std::function<void()>& body);

  /// The owned simulated fabric. Illegal (FAUST_CHECK) when the cluster
  /// rides an external transport — use transport() there.
  net::Network& net();
  const net::Network& net() const;

  /// The transport every party of this deployment is attached to: the
  /// external one when configured, else the owned Network. This is what
  /// deployment-generic wiring (CacheClients, extra test nodes) should
  /// use.
  net::Transport& transport();

  /// True when the cluster rides an external (e.g. socket) transport.
  bool external_transport() const { return config_.transport != nullptr; }

  net::Mailbox& mail() { return *mail_; }
  const std::shared_ptr<const crypto::SignatureScheme>& sigs() const { return sigs_; }
  int n() const { return config_.n; }

  FaustClient& client(ClientId i);

  /// The correct server, or nullptr when with_server was false or the
  /// cluster is durable (see pserver()).
  ustor::Server* server() { return server_.get(); }

  /// The durable server, or nullptr outside durable mode / while crashed.
  storage::PersistentServer* pserver() { return pserver_.get(); }

  /// True when this cluster was built with a durability_dir.
  bool durable() const { return !config_.durability_dir.empty(); }

  /// The deployment's cache configuration (as passed in).
  const cache::CacheOptions& cache_options() const { return config_.cache; }

  /// The owned honest cache node, or nullptr (cache.enabled false,
  /// cache.with_node false, or an external node attached instead).
  cache::CacheNode* cache_node() { return cache_node_.get(); }

  /// True while the (durable) server is attached and processing.
  bool server_up() const { return pserver_ != nullptr || server_ != nullptr; }

  /// Transiently crashes the durable server: in-flight messages to/from
  /// it are dropped (net().kill epoch fencing — a stale pre-crash REPLY
  /// can never reach a post-restart client) and its memory state is
  /// destroyed. Its WAL and snapshot survive on disk.
  void crash_server();

  /// Rebuilds the durable server from disk (constructor-time recovery:
  /// verified snapshot + log suffix, or full replay) and reconnects every
  /// healthy client so in-flight operations resume exactly once.
  void restart_server();

  /// Reconnects every healthy client (FaustClient::reconnect →
  /// ustor::Client::resubmit). restart_server() does this itself; the
  /// external-transport mode calls it directly after the REMOTE server
  /// process came back (shard::ShardedCluster::restart_shard). Must run
  /// on the cluster's executor thread.
  void reconnect_clients();

  /// History recorded by the synchronous helpers (checker input).
  checker::HistoryRecorder& recorder() { return recorder_; }

  /// Synchronous write at client i; returns the operation timestamp, or 0
  /// if the operation did not complete within `step_budget` events.
  /// Simulation-only (drives the scheduler; see sched()).
  Timestamp write(ClientId i, std::string_view value, std::size_t step_budget = 1'000'000);

  /// Synchronous read of register j at client i. `completed`, if given,
  /// reports whether the operation finished (⊥ is a legal return value,
  /// so the value alone cannot tell). Simulation-only.
  ustor::Value read(ClientId i, ClientId j, bool* completed = nullptr,
                    std::size_t step_budget = 1'000'000);

  /// Advances virtual time by `d`, processing everything due in between.
  /// Under an external scheduler this advances every co-scheduled
  /// cluster. Simulation-only.
  void run_for(sim::Time d) { sched().run_until(sched().now() + d); }

  bool any_failed() const;
  bool all_failed() const;

 private:
  const ClusterConfig config_;
  std::unique_ptr<sim::Scheduler> owned_sched_;  // null when external
  exec::Executor* const exec_;
  sim::Scheduler* const sim_;  // exec_ if it is a simulator, else null
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<net::Mailbox> mail_;
  std::shared_ptr<const crypto::SignatureScheme> sigs_;
  std::unique_ptr<ustor::Server> server_;
  std::unique_ptr<storage::PersistentServer> pserver_;  // durable mode
  std::unique_ptr<cache::CacheNode> cache_node_;        // D8 (may be null)
  std::vector<std::unique_ptr<FaustClient>> clients_;
  checker::HistoryRecorder recorder_;
};

}  // namespace faust
