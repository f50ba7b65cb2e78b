// ShardedCluster — S independent FAUST deployments, co-scheduled on ONE
// sim::Scheduler (kDeterministic) or spread over S runtime threads
// (kThreaded).
//
// Each shard is a full Cluster (own network, mailbox, signature scheme,
// server, n FaustClients): shards share no protocol state and no trust —
// compromising one shard's server forks at most the keys homed there.
//
// Execution modes (the exec::Executor seam makes the shards agnostic):
//
//   * kDeterministic — every shard on a single shared sim::Scheduler. A
//     root seed derives every shard's seed, and event order across shards
//     is fixed by the shared virtual clock, so the differential tests can
//     replay the same workload against a single-deployment oracle,
//     bit-identically.
//   * kThreaded — every shard on its own rt::ThreadedRuntime (one OS
//     thread per shard, owning that shard's delivery drain and timer
//     wheel). Shards share no state, so S shards run on S cores and the
//     per-op savings of sharding (PERF.md) multiply into wall-clock
//     throughput. Executions are NOT deterministic across runs; the
//     differential oracle for this mode checks set-equivalence of the
//     merged views and history linearizability, not event order
//     (tests/shard_threaded_test.cc).
//   * kProcess — the real-socket deployment (DESIGN.md D9). Each shard's
//     SERVER side (durable PersistentServer + optional cache node) runs
//     as a separate OS process (`faust_sockd serve`, managed by
//     sock::ProcessCluster); the shard's CLIENT side stays in this
//     process on its own rt::ThreadedRuntime, riding a
//     sock::SocketTransport that dials the worker over loopback TCP or a
//     Unix socket. kill_shard/restart_shard become real SIGKILL +
//     respawn-with-recovery, composed with transport fencing so queued
//     pre-crash bytes never reach the restarted era. Protocol timers are
//     scaled by ProcessOptions::timer_scale — sim-tick cadences are far
//     too aggressive against real socket latency. process_shards < S
//     gives the mixed milestone: first k shards real processes, the rest
//     ordinary in-process threaded shards.
//
// The scale-out economics (PERF.md "Sharding"): every per-operation cost
// that grows with the keyspace — partition encode/decode, value hashing
// for DATA signatures, bytes on the wire — shrinks by the shard factor,
// because a client's partition in each shard holds only the keys homed
// there.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <vector>

#include "faust/cluster.h"
#include "rt/threaded_runtime.h"
#include "shard/shard_router.h"
#include "sock/process_cluster.h"
#include "sock/socket_transport.h"

namespace faust::shard {

/// How the S deployments execute (see file comment).
enum class ExecMode {
  kDeterministic,  // one shared sim::Scheduler, bit-identical replays
  kThreaded,       // one rt::ThreadedRuntime (OS thread) per shard
  kProcess,        // server side in real worker processes, over sockets
};

/// Knobs for ShardedCluster assembly.
struct ShardedClusterConfig {
  std::size_t shards = 2;
  std::uint64_t seed = 1;        // root seed; each shard's is derived from it
  ExecMode mode = ExecMode::kDeterministic;
  /// kThreaded only: real duration of one tick on each shard's runtime
  /// (0 = fast-forward; see rt::ThreadedRuntime).
  std::chrono::nanoseconds tick{0};
  /// Per-shard VerifyCache capacity. 0 = auto: size the template capacity
  /// down to the per-shard working set (PERF.md "Per-shard cache
  /// sizing"), never below kMinVerifyCacheEntries.
  std::size_t verify_cache_entries = 0;
  /// Per-shard template: n, delays and FAUST timers are applied to every
  /// shard; `seed` and `executor` in here are overridden (and
  /// `faust.verify_cache_entries` is re-sized per shard, see above).
  ClusterConfig shard_template;
  /// Non-empty: every shard's server is crash-durable, rooted at
  /// `durability_root`/shard_<s> (directories created as needed), and
  /// kill_shard()/restart_shard() become legal. Overrides any
  /// durability_dir in shard_template; `shard_template.durability`
  /// supplies the snapshot cadence. REQUIRED in kProcess mode (the
  /// workers recover from these directories; UDS listen sockets live
  /// beside them).
  std::string durability_root;
  /// kProcess only: worker binary, TCP vs UDS, tick, timer scale, how
  /// many leading shards run as processes (see sock::ProcessOptions).
  sock::ProcessOptions process;
};

/// S co-scheduled deployments plus the routing table over them.
class ShardedCluster {
 public:
  /// Floor for the auto-sized per-shard VerifyCache: must stay above the
  /// steady-state working set of one shard's deployment — O(n²) signed
  /// versions + O(n) proofs + O(n) data signatures (PERF.md).
  static constexpr std::size_t kMinVerifyCacheEntries = 512;

  explicit ShardedCluster(ShardedClusterConfig config = {});

  /// Threaded mode: stop()s every runtime. Any api::Store bound to this
  /// deployment must be destroyed first: stop() (or reach quiescence),
  /// destroy the stores, then the deployment (see ~Store). Returns the
  /// freed heap to the OS last (glibc's malloc_trim).
  ~ShardedCluster();

  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  ExecMode mode() const { return config_.mode; }
  /// True when shards run on their own rt::ThreadedRuntimes (kThreaded
  /// AND kProcess — in process mode the client side of every shard is
  /// still one runtime thread here): cross-thread work must be post()ed,
  /// await() blocks instead of stepping.
  bool threaded() const { return config_.mode != ExecMode::kDeterministic; }

  /// The shared simulation scheduler. Deterministic mode only
  /// (FAUST_CHECKed): a threaded deployment has no central clock.
  sim::Scheduler& sched();

  /// The executor shard `s` runs on: the shared scheduler in
  /// deterministic mode, the shard's own runtime in threaded mode.
  /// Cross-thread work for a shard must be post()ed here.
  exec::Executor& shard_exec(std::size_t s);

  const ShardRouter& router() const { return router_; }
  std::size_t shards() const { return shards_.size(); }

  /// Clients per shard (every client has a register in every shard).
  int n() const { return config_.shard_template.n; }

  /// The effective per-shard VerifyCache capacity after auto-sizing.
  std::size_t verify_cache_entries() const { return verify_cache_entries_; }

  Cluster& shard(std::size_t s);
  const Cluster& shard(std::size_t s) const;

  /// Advances virtual time by `d` across every shard. Deterministic only.
  void run_for(sim::Time d) { sched().run_until(sched().now() + d); }

  /// Drives the shared scheduler until `done` flips or the budget runs
  /// out; returns the final value of `done`. Deterministic only.
  bool drive(const bool& done, std::size_t step_budget = 1'000'000);

  /// Mode-generic completion wait: deterministic — steps the scheduler
  /// until `done` flips (the timeout bounds *events*, one per ~µs as a
  /// rough budget); threaded — blocks this thread until the shard
  /// runtimes flip `done` or the wall-clock timeout expires. Returns the
  /// final value of `done`.
  bool await(const std::atomic<bool>& done,
             std::chrono::milliseconds timeout = std::chrono::seconds(30));

  /// Threaded mode: joins every shard's runtime thread (idempotent,
  /// no-op in deterministic mode). After this the deployment is frozen:
  /// no event will ever run again, and cross-thread reads of shard state
  /// (failure flags, stability cuts, traffic counters) are safe.
  void stop();

  /// True when shards were built with a durability_root.
  bool durable() const { return !config_.durability_root.empty(); }

  /// Transiently crashes shard `s`'s durable server (Cluster::
  /// crash_server). In-flight traffic to/from it is dropped; its WAL and
  /// snapshot stay on disk. Threaded mode: runs ON the shard's runtime
  /// thread (post_sync), so it serializes with that shard's deliveries.
  /// Process shards: fences the worker's NodeIds on the shard transport
  /// FIRST (queued bytes are purged, not flushed later into the restarted
  /// era), then SIGKILLs the worker — no cleanup runs over there.
  void kill_shard(std::size_t s);

  /// Rebuilds shard `s`'s server from disk and reconnects its clients
  /// (Cluster::restart_server); in-flight operations of that shard's
  /// clients resume exactly once. Same threading rule as kill_shard.
  /// Process shards: respawns the worker with a bumped incarnation,
  /// blocks until its READY line (recovery included), unfences the
  /// transport and reconnects the clients on the shard's runtime. Safe
  /// from any thread EXCEPT the shard's own runtime thread (it posts
  /// synchronously onto it) — scenario harnesses use dedicated restarter
  /// threads.
  void restart_shard(std::size_t s);

  /// True while shard `s`'s server is attached (process shards: while the
  /// worker process is up). Threaded mode: call from the shard's thread,
  /// or at quiescence.
  bool shard_up(std::size_t s) const;

  /// True when shard `s`'s server side runs in a worker process.
  bool process_shard(std::size_t s) const;

  /// Shard `s`'s socket transport, or nullptr for non-process shards.
  /// Counter reads (total/channel_for/wire) are any-thread safe.
  sock::SocketTransport* shard_transport(std::size_t s);

  /// The worker process manager, or nullptr outside kProcess mode
  /// (restart/recovery counters for harnesses).
  const sock::ProcessCluster* procs() const { return procs_.get(); }

  /// Gracefully SIGTERMs every process-shard worker and collects its
  /// durability counters (STATS line); index w maps to shard w. nullopt
  /// for a worker that was down or died uncleanly. Call once, after the
  /// workload is quiescent (stop() first is safest); workers not
  /// finalized here are SIGKILLed on destruction without stats.
  std::vector<std::optional<sock::ServerStats>> finalize_processes();

  /// fail_i fired anywhere / on every client of every shard.
  /// Threaded mode: only meaningful at quiescence (or after stop()).
  bool any_failed() const;
  bool all_failed() const;

  /// Aggregate traffic over every shard's fabric. Same caveat.
  net::ChannelStats total_traffic() const;

 private:
  std::size_t process_shard_count() const;

  const ShardedClusterConfig config_;
  std::size_t verify_cache_entries_ = 0;
  sim::Scheduler sched_;  // deterministic mode's shared clock (else idle)
  ShardRouter router_;
  // Declaration order IS the teardown contract (reverse destruction):
  // shards die first (their protocol objects detach from the transports),
  // then the transports (loop threads stop; no more posts), then the
  // runtimes, then the worker processes are reaped. Threads are joined in
  // ~ShardedCluster (stop()) *before* any member teardown, so no event
  // can touch a half-destroyed shard.
  std::unique_ptr<sock::ProcessCluster> procs_;  // kProcess only
  std::vector<std::unique_ptr<rt::ThreadedRuntime>> runtimes_;
  // One per shard; null entries for non-process shards (kProcess mixed
  // deployments) and in the other modes.
  std::vector<std::unique_ptr<sock::SocketTransport>> transports_;
  std::vector<std::unique_ptr<Cluster>> shards_;
};

}  // namespace faust::shard
