// Scenario run driver: a seeded skewed workload (workload.h) against a
// crash-durable ShardedCluster, with declarative mid-run kill/restart
// events and latency/recovery measurement (DESIGN.md D7, PERF.md "Crash
// recovery & tail latency").
//
// The differential-oracle pattern extends to crashes: run the SAME
// (workload seed, cluster seed) twice — once with kill events, once
// crash-free — and the merged views must be byte-identical (the canonical
// merged-view digest makes the comparison one hash compare). Crash-side
// machinery (WAL replay, snapshot re-verification, client resubmit,
// duplicate suppression) is thereby pinned to change NOTHING about the
// outcome, only the latency profile — which the run reports as p50/p99
// per-op latency plus total recovery time, the numbers the perf-smoke CI
// gate bounds.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "kvstore/kv_client.h"
#include "scenario/schedule.h"
#include "scenario/workload.h"
#include "shard/sharded_cluster.h"

namespace faust::scenario {

/// Knobs for one scenario run.
struct ScenarioConfig {
  WorkloadConfig workload;
  std::size_t shards = 3;
  std::uint64_t cluster_seed = 1;
  shard::ExecMode mode = shard::ExecMode::kDeterministic;
  std::vector<KillEvent> kills;
  /// D10 chaos: a baseline fault plan installed on every shard's fabric
  /// BEFORE the first op (loss/duplication/reordering/latency, seeded —
  /// the same config replays the same storm), plus scheduled partitions
  /// and mid-run plan changes. All timing faults: the chaos differential
  /// pins that merged/merged_digest match a chaos-free replay and that
  /// any_failed stays false (a slow channel is not misbehavior).
  net::FaultPlan fault_plan;
  std::vector<PartitionEvent> partitions;
  std::vector<ChaosEvent> chaos;
  /// Client SUBMIT/COMMIT retransmission timer (FaustConfig::
  /// retransmit_base, executor ticks; 0 keeps retransmission OFF).
  /// Chaos schedules that DROP messages need this > 0 — a reliable-FIFO
  /// fabric never loses anything, so the seed default stays off to keep
  /// pinned message counts byte-identical.
  std::uint64_t retransmit_base = 0;
  std::uint64_t retransmit_cap = 0;  // 0 = 8 × retransmit_base
  /// Durability root (per-shard subdirectories are created under it).
  /// Empty = memory-only servers; kills are then illegal.
  std::string dir;
  std::size_t snapshot_every = 64;  // per-shard snapshot cadence (records)
  /// Virtual time to run after the last op so probes converge the
  /// stability cuts (deterministic mode only).
  std::uint64_t drain_time = 200'000;
  /// Per-op completion budget in milliseconds (deterministic mode maps
  /// each millisecond to 1000 scheduler steps — see ShardedCluster::
  /// await).
  std::size_t op_budget_ms = 4'000;
  /// D8 edge-cache tier, applied to every shard (cache.enabled wires
  /// CacheClients + an honest CacheNode per shard). The final merged
  /// fan-out always bypasses the cache, so merged/merged_digest stay the
  /// authoritative engine view and the crash and cache differentials
  /// compare like with like.
  cache::CacheOptions cache;
  /// kProcess mode (D9): worker binary, TCP vs UDS, tick and timer scale
  /// for the real-socket deployment. Kill events then SIGKILL the worker
  /// process and restarts run real recovery-from-disk; the downtime is
  /// served by a dedicated restarter thread (`downtime` executor ticks ×
  /// `process.tick` of real time), because a process restart blocks on
  /// the worker's READY line and must not run on the shard's own
  /// runtime. Durability counters come from the workers' STATS lines
  /// (collected by a graceful shutdown after the merged fan-out).
  sock::ProcessOptions process;
};

/// Everything a run observed; the bench and the tests consume this.
struct ScenarioResult {
  bool complete = false;    // every op finished within budget
  bool any_failed = false;  // some client fired fail_i (must stay false)
  std::uint64_t ops = 0;

  // Per-op wall-clock latency (microseconds), plus the percentiles the
  // SLO gate reads. Wall-clock even in deterministic mode: virtual time
  // is delay-model fiction, while recovery cost (replay, re-hashing) is
  // real compute this actually measures.
  double p50_us = 0;
  double p99_us = 0;
  double max_us = 0;

  int restarts = 0;                // kill/restart events executed
  int restarts_from_snapshot = 0;  // recoveries that used a verified snapshot
  double recovery_ms_total = 0;    // wall-clock inside restart recovery

  // Aggregated durability counters over every shard (post-run).
  std::uint64_t snapshots_written = 0;
  std::uint64_t snapshots_rejected = 0;
  std::uint64_t duplicate_replies = 0;
  std::uint64_t wal_records = 0;

  // Final merged view (client 1's fan-out list) and its canonical digest
  // — the crash/crash-free differential compares these.
  std::map<std::string, kv::KvEntry> merged;
  crypto::Hash merged_digest{};
  bool merged_complete = false;  // the fan-out saw every shard

  /// Client 1's per-shard stability cut at the end of the drain
  /// (deterministic mode; empty in threaded mode).
  std::vector<Timestamp> shard_stable;

  // D8 cache effectiveness, aggregated over every client and shard
  // (post-run; all zero with the cache off). A "register" here is one
  // per-writer partition slot an observing snapshot resolved.
  std::uint64_t reads = 0;                   // get ops issued
  std::uint64_t registers_cache_served = 0;  // slots served by the cache tier
  std::uint64_t registers_engine_read = 0;   // slots read through FAUST
  std::uint64_t snapshots_cached = 0;        // snapshots with zero engine reads
  std::uint64_t snapshots_total = 0;
  /// registers_cache_served / (served + engine reads); 0 when no reads.
  double cache_hit_rate = 0;

  // D9 real-socket wire totals, aggregated over the process shards'
  // transports (all zero outside kProcess). Payload bytes mirror the
  // net::Network counters (comparable across transports); socket bytes
  // include framing, whose share is reported separately.
  std::uint64_t puts = 0;  // put ops issued (bytes-per-put denominator)
  std::uint64_t wire_payload_bytes = 0;
  std::uint64_t wire_socket_bytes = 0;  // written + read, framing included
  std::uint64_t wire_framing_bytes = 0;
  std::uint64_t wire_reconnects = 0;
  /// SUBMIT + SUBMIT_DELTA payload share — the D6 flat-in-K gate reads
  /// submit_payload_bytes / puts over a real TCP deployment.
  std::uint64_t submit_payload_bytes = 0;

  // D10 chaos accounting, aggregated over every shard. The net::
  // ChaosStats quartet comes from simulated fabrics; blackholed/delayed/
  // resets from process shards' transports; retransmits and duplicate
  // suppression measure how much resilience machinery the storm actually
  // exercised (duplicate_replies above counts the server side).
  std::uint64_t chaos_dropped = 0;
  std::uint64_t chaos_duplicated = 0;
  std::uint64_t chaos_reordered = 0;
  std::uint64_t chaos_partition_dropped = 0;
  std::uint64_t chaos_blackholed = 0;  // process shards: suppressed frames
  std::uint64_t chaos_delayed = 0;     // process shards: latency-shimmed frames
  std::uint64_t chaos_resets = 0;      // process shards: injected resets
  std::uint64_t retransmits = 0;       // client SUBMIT/COMMIT re-sends
};

/// Canonical digest of a merged view (ChunkedHasher over the sorted
/// key/value/writer/seq stream) — what merged_digest holds.
crypto::Hash merged_view_digest(const std::map<std::string, kv::KvEntry>& view);

/// Runs one scenario to completion. Each writer is one api::Store over
/// the deployment, and every op goes through it. Ops are issued
/// synchronously (each driven to completion before the next); a kill
/// event fires after its op is ISSUED but before it is driven, so
/// in-flight operations ride through the crash and resume against the
/// recovered server.
ScenarioResult run_scenario(const ScenarioConfig& config);

}  // namespace faust::scenario
