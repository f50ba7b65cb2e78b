#include "shard/sharded_cluster.h"

#include <algorithm>
#include <filesystem>
#include <thread>

#include "cache/cache_wire.h"
#include "common/check.h"
#include "common/rng.h"
#include "exec/executor.h"

namespace faust::shard {

ShardedCluster::ShardedCluster(ShardedClusterConfig config)
    : config_(config), router_(config.shards, config.seed) {
  FAUST_CHECK(config_.shards >= 1);
  const bool proc_mode = config_.mode == ExecMode::kProcess;
  if (proc_mode) {
    FAUST_CHECK(!config_.process.worker_path.empty());
    FAUST_CHECK(durable());  // workers recover from durability_root/shard_<s>
    FAUST_CHECK(config_.process.tick.count() > 0);   // see ProcessOptions::tick
    FAUST_CHECK(config_.process.timer_scale >= 1);
  }

  // Per-shard cache sizing (ROADMAP): each shard's caches see only the
  // keys homed there, so the capacity a single deployment needs can be
  // divided by the shard factor without losing hits — but never below
  // the fixed per-deployment working set floor (PERF.md).
  verify_cache_entries_ =
      config_.verify_cache_entries != 0
          ? config_.verify_cache_entries
          : std::max(kMinVerifyCacheEntries,
                     config_.shard_template.faust.verify_cache_entries / config_.shards);

  if (threaded()) {
    // Paused until every shard is fully assembled: an armed FaustClient
    // timer must not fire (and start sending through a shard's network)
    // while later shards — or later clients of the same shard — are
    // still being constructed on this thread.
    runtimes_.reserve(config_.shards);
    for (std::size_t s = 0; s < config_.shards; ++s) {
      rt::ThreadedRuntimeConfig rc;
      rc.tick = proc_mode ? config_.process.tick : config_.tick;
      rc.start_paused = true;
      runtimes_.push_back(std::make_unique<rt::ThreadedRuntime>(rc));
    }
  }

  // Process shards come up before any client-side assembly: the worker's
  // READY line carries its bound address (ephemeral TCP ports resolved),
  // which the shard's SocketTransport needs in its peer registry.
  transports_.resize(config_.shards);
  const std::size_t n_proc = process_shard_count();
  if (n_proc > 0) {
    procs_ = std::make_unique<sock::ProcessCluster>(config_.process.ready_timeout);
    const cache::CacheOptions& co = config_.shard_template.cache;
    for (std::size_t s = 0; s < n_proc; ++s) {
      const std::string dir = config_.durability_root + "/shard_" + std::to_string(s);
      std::filesystem::create_directories(dir);
      const sock::Endpoint listen = config_.process.use_tcp
                                        ? sock::Endpoint::tcp("127.0.0.1", 0)
                                        : sock::Endpoint::uds(dir + "/listen.sock");
      std::vector<std::string> args = {
          "serve",
          "--n", std::to_string(config_.shard_template.n),
          "--listen", listen.uri(),
          "--dir", dir,
          "--snapshot-every",
          std::to_string(config_.shard_template.durability.snapshot_every),
          "--tick", std::to_string(config_.process.tick.count()),
      };
      if (co.enabled && !config_.process.cache_mute) {
        // The worker owns this shard's cache node. TTL is worker-side
        // executor time, so it scales like every other timer.
        args.insert(args.end(), {"--cache", "--cache-arena",
                                 std::to_string(co.arena_bytes), "--cache-ttl",
                                 std::to_string(co.ttl * config_.process.timer_scale)});
      }
      const std::size_t idx = procs_->add(config_.process.worker_path, std::move(args));
      FAUST_CHECK(idx == s);
      sock::SocketTransportConfig tc;
      tc.peers[kServerNode] = procs_->info(idx).endpoint;
      if (co.enabled) {
        // Same endpoint: the cache node lives in the worker process, so
        // both NodeIds pool onto one stream. Registered even under
        // cache_mute — lookups must reach (and die inside) the worker for
        // the lookup_timeout→miss path to exercise the real wire.
        tc.peers[cache::kCacheNodeId] = procs_->info(idx).endpoint;
      }
      transports_[s] = std::make_unique<sock::SocketTransport>(*runtimes_[s], tc);
    }
  }

  Rng root(config_.seed);
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    ClusterConfig c = config_.shard_template;
    c.seed = root.next_u64();  // independent delays & keys per shard
    c.executor = threaded() ? static_cast<exec::Executor*>(runtimes_[s].get())
                            : static_cast<exec::Executor*>(&sched_);
    c.faust.verify_cache_entries = verify_cache_entries_;
    if (transports_[s] != nullptr) {
      // Client side of a process shard: the server (and cache node) are
      // in the worker — this cluster only assembles clients + mailbox
      // over the socket transport, with every protocol timer scaled to
      // real-latency cadence (the D9 timeout audit).
      c.transport = transports_[s].get();
      c.with_server = false;
      c.cache.with_node = false;
      c.durability_dir.clear();  // durability lives in the worker
      c.faust = c.faust.scaled(config_.process.timer_scale);
      c.mail_min_delay *= config_.process.timer_scale;
      c.mail_max_delay *= config_.process.timer_scale;
      c.cache.lookup_timeout *= config_.process.timer_scale;
      c.cache.ttl *= config_.process.timer_scale;
    } else if (!config_.durability_root.empty()) {
      c.durability_dir = config_.durability_root + "/shard_" + std::to_string(s);
      c.durability = config_.shard_template.durability;
    }
    shards_.push_back(std::make_unique<Cluster>(c));
  }

  for (auto& r : runtimes_) r->start();
}

ShardedCluster::~ShardedCluster() { stop(); }

void ShardedCluster::stop() {
  for (auto& r : runtimes_) r->stop();
}

std::size_t ShardedCluster::process_shard_count() const {
  if (config_.mode != ExecMode::kProcess) return 0;
  return std::min(config_.process.process_shards, config_.shards);
}

sim::Scheduler& ShardedCluster::sched() {
  FAUST_CHECK(!threaded());  // a threaded deployment has no central clock
  return sched_;
}

exec::Executor& ShardedCluster::shard_exec(std::size_t s) {
  FAUST_CHECK(s < shards_.size());
  if (threaded()) return *runtimes_[s];
  return sched_;
}

Cluster& ShardedCluster::shard(std::size_t s) {
  FAUST_CHECK(s < shards_.size());
  return *shards_[s];
}

const Cluster& ShardedCluster::shard(std::size_t s) const {
  FAUST_CHECK(s < shards_.size());
  return *shards_[s];
}

bool ShardedCluster::process_shard(std::size_t s) const {
  FAUST_CHECK(s < transports_.size());
  return transports_[s] != nullptr;
}

sock::SocketTransport* ShardedCluster::shard_transport(std::size_t s) {
  FAUST_CHECK(s < transports_.size());
  return transports_[s].get();
}

bool ShardedCluster::drive(const bool& done, std::size_t step_budget) {
  sched().run_while([&done] { return !done; }, step_budget);
  return done;
}

bool ShardedCluster::await(const std::atomic<bool>& done, std::chrono::milliseconds timeout) {
  if (!threaded()) {
    // One event per microsecond of budget is far beyond any real rate;
    // the point is a deterministic bound, not wall-clock fidelity.
    const auto budget = static_cast<std::size_t>(timeout.count()) * 1000;
    sched().run_while([&done] { return !done.load(std::memory_order_acquire); }, budget);
    return done.load(std::memory_order_acquire);
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  // Spin-then-sleep: completions are typically microseconds away (the
  // shard threads are compute-bound), so yield a while before backing
  // off to a sleep that caps the polling cost of long waits.
  int spins = 0;
  while (!done.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    if (++spins < 256) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  return true;
}

void ShardedCluster::kill_shard(std::size_t s) {
  FAUST_CHECK(durable());
  if (process_shard(s)) {
    // Fence BEFORE the SIGKILL: everything queued towards the worker is
    // purged and everything still arriving from its dying sockets is
    // dropped, mirroring net::Network::kill's epoch bump — a pre-crash
    // byte must never surface in the restarted era (socket_transport.h).
    sock::SocketTransport& t = *transports_[s];
    t.fence(kServerNode);
    if (config_.shard_template.cache.enabled) t.fence(cache::kCacheNodeId);
    procs_->kill(s);
    return;
  }
  // Serialize with the shard's own deliveries: the server object must not
  // be destroyed while its thread is mid-message.
  Cluster& shard = this->shard(s);
  FAUST_CHECK(shard.run_sync([&shard] { shard.crash_server(); }));
}

void ShardedCluster::restart_shard(std::size_t s) {
  FAUST_CHECK(durable());
  Cluster& shard = this->shard(s);
  if (process_shard(s)) {
    // Blocks until the respawned worker printed READY — recovery from
    // WAL/snapshot happens in its constructor over there.
    (void)procs_->restart(s);
    sock::SocketTransport& t = *transports_[s];
    t.unfence(kServerNode);
    if (config_.shard_template.cache.enabled) t.unfence(cache::kCacheNodeId);
    // Resubmit on the shard's runtime: reconnect mutates client state.
    FAUST_CHECK(shard.run_sync([&shard] { shard.reconnect_clients(); }));
    return;
  }
  FAUST_CHECK(shard.run_sync([&shard] { shard.restart_server(); }));
}

bool ShardedCluster::shard_up(std::size_t s) const {
  FAUST_CHECK(s < shards_.size());
  if (transports_[s] != nullptr) return procs_->up(s);
  return shards_[s]->server_up();
}

std::vector<std::optional<sock::ServerStats>> ShardedCluster::finalize_processes() {
  std::vector<std::optional<sock::ServerStats>> out;
  for (std::size_t s = 0; s < process_shard_count(); ++s) {
    out.push_back(procs_->up(s) ? procs_->shutdown(s) : std::nullopt);
  }
  return out;
}

bool ShardedCluster::any_failed() const {
  for (const auto& s : shards_) {
    if (s->any_failed()) return true;
  }
  return false;
}

bool ShardedCluster::all_failed() const {
  for (const auto& s : shards_) {
    if (!s->all_failed()) return false;
  }
  return true;
}

net::ChannelStats ShardedCluster::total_traffic() const {
  net::ChannelStats total;
  for (const auto& shard : shards_) total += shard->transport().total();
  return total;
}

}  // namespace faust::shard
