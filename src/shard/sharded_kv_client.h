// ShardedKvClient — one logical multi-writer KV client spread over S
// FAUST deployments (shard Clusters) placed by a ShardRouter: the S shards
// of a ShardedCluster, or one bare Cluster as S = 1 (api::open_store).
//
// Routing: a key's home shard is fixed by the ShardRouter;
// puts and gets go only to the home shard, list fans out to every shard
// concurrently and merges (each shard's read pipeline advances
// independently, so a full list costs ~one shard's latency, not S of
// them).
//
// Execution modes: on simulated shards (Cluster::simulated) every
// operation runs inline on the caller's thread, exactly as before the
// executor seam. On threaded shards each operation's body is post()ed
// onto the home shard's runtime (list: onto every shard's runtime), so
// the protocol objects are only ever touched by their owning shard
// thread; completion handlers therefore run on shard threads, and
// concurrent completions from different shards merge under an internal
// mutex. Operations may be issued from any one caller thread; the object
// itself is not a multi-producer API (one logical client = one issuing
// thread, matching the paper's well-formed executions).
//
// Oracle equivalence: each per-shard kv::KvClient keeps its own put
// counter, but conflict winners are chosen by (seq, writer) — so every
// put/erase draws a ticket from a single cross-shard op counter and
// aligns the home shard's counter to it (KvClient::advance_seq). The
// merged sharded view is then key-for-key identical to one un-sharded
// deployment replaying the same ops, which is exactly what
// tests/shard_differential_test.cc checks (and its threaded sibling
// checks as set-equivalence at quiescent points).
//
// Fail-aware semantics aggregate across shards:
//   * fail_i on ANY shard surfaces through `on_fail(shard, reason)`, and
//     ops routed to a failed shard complete immediately with
//     `shard_failed` set (a get) or timestamp 0 (a put) instead of
//     hanging — the paper's fail_i halts the underlying FaustClient. An
//     op whose shard runtime is stopped completes the same way, inline.
//     Every op is registered before it is dispatched, so fail_i and
//     destruction settle even ops whose body never ran.
//   * a key's value is *stable* only when its home shard's stability cut
//     covers the reads that observed the winning write: stable(result)
//     compares the get's home-shard read timestamp against that shard's
//     fully-stable timestamp. Other shards' cuts are irrelevant to this
//     key — stability, like the data, is partitioned.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "faust/cluster.h"
#include "kvstore/kv_client.h"
#include "shard/shard_router.h"

namespace faust::shard {

class ShardedCluster;

/// A sharded get: the merged entry plus the home shard's fail-aware
/// context.
struct ShardedGetResult {
  std::optional<kv::KvEntry> entry;
  std::size_t shard = 0;      // the key's home shard
  Timestamp read_ts = 0;      // home-shard timestamp of the observing reads
  bool shard_failed = false;  // fail_i had fired on the home shard
  /// D8: at least one register of the observing snapshot was served by
  /// the shard's edge cache; `as_of` is its freshness horizon (see
  /// kv::ReadOrigin). A fully cache-served snapshot has read_ts equal to
  /// as_of and is not eligible for stable() — staleness is surfaced, not
  /// hidden.
  bool cached = false;
  Timestamp as_of = 0;
};

/// A sharded list: merged across every live shard.
struct ShardedListResult {
  std::map<std::string, kv::KvEntry> entries;
  bool complete = false;  // false when a failed shard's keys are missing
};

/// KV facade over one client id across every shard of a deployment.
class ShardedKvClient {
 public:
  using PutHandler = kv::KvClient::PutHandler;
  using GetHandler = std::function<void(const ShardedGetResult&)>;
  using ListHandler = std::function<void(const ShardedListResult&)>;
  using FailHandler = std::function<void(std::size_t shard, FailureReason)>;

  /// Binds client `id` of every cluster in `shards`; `router` places keys
  /// on them (router.shards() == shards.size()). All shards run in one
  /// execution mode (all simulated, or all on threaded runtimes). The
  /// clusters must outlive this object; at most one ShardedKvClient (or
  /// plain KvClient) per (cluster, id) — they must not share FaustClients.
  ShardedKvClient(std::vector<Cluster*> shards, ShardRouter router, ClientId id);

  /// Binds client `id` of every shard of `deployment`, placed by its router.
  ShardedKvClient(ShardedCluster& deployment, ClientId id);

  /// Destruction settles every in-flight op with its failure outcome
  /// (put → t=0, get → shard_failed, list → complete=false), so handlers
  /// are never silently dropped. Like a plain KvClient, the object must
  /// not be destroyed and the deployment then stepped further while its
  /// underlying FAUST ops are still pending — tear client and deployment
  /// down together (or drain first). Threaded deployments must be
  /// stop()ped (or quiescent) before this destructor runs: it restores
  /// handler chains the shard threads would otherwise be reading.
  ~ShardedKvClient();

  ShardedKvClient(const ShardedKvClient&) = delete;
  ShardedKvClient& operator=(const ShardedKvClient&) = delete;

  /// Upserts key := value in the key's home shard. `done(t)` delivers the
  /// home-shard register-write timestamp — or 0 if that shard already
  /// failed (immediately when inline; from the shard thread when
  /// threaded).
  void put(std::string key, std::string value, PutHandler done = {});

  /// Removes this client's entry for `key` from its home shard. Erasing a
  /// key absent from this client's home-shard partition is a complete
  /// no-op (no cross-shard sequence ticket, no publication) and completes
  /// with t=0, matching KvClient::erase.
  void erase(const std::string& key, PutHandler done = {});

  // --- Batch engine hooks (the api::Store facade drives these) ----------

  /// `done(t, failed)`: t is the publication timestamp (0 when nothing
  /// needed publishing or the shard failed); `failed` disambiguates the
  /// two t=0 cases.
  using MutateHandler = std::function<void(Timestamp, bool failed)>;
  /// `done(view, read_ts, origin)`: the partitions of the shard's
  /// snapshot (kv::SnapshotView: find for a key, merge for a listing), or
  /// null when the shard failed. The view is borrowed — valid only for
  /// the duration of the callback. `origin` carries the snapshot's cache
  /// provenance (kv::ReadOrigin; all-default when the shard failed).
  using SnapshotHandler =
      std::function<void(const kv::SnapshotView*, Timestamp, const kv::ReadOrigin&)>;

  /// Draws one cross-shard sequence ticket. The facade draws tickets at
  /// plan time, in batch program order, so a batch's winners (and exact
  /// per-entry sequence numbers) are identical to the single-deployment
  /// oracle replaying the same ops — regardless of the order the shard
  /// chains execute in (which races under kThreaded). Thread-safe.
  std::uint64_t draw_seq();

  /// Applies `changes` (with their pre-drawn tickets, KvClient
  /// apply_with_seqs rules) to shard `s`'s partition in ONE publication.
  /// The caller must route only keys homed on `s` here.
  void apply_on_shard(std::size_t s, std::vector<kv::KvClient::SeqChange> changes,
                      MutateHandler done);

  /// One snapshot of shard `s` (n register reads), serving any number of
  /// point lookups and list contributions at a batch's read point. Settles with (nullptr, 0, {}) if the shard fails (or its
  /// runtime stops) mid-operation.
  void snapshot_on_shard(std::size_t s, SnapshotHandler done);

  /// D10 degraded snapshot of shard `s`: cache-ONLY, allow_stale — the
  /// shard's FAUST deployment is never contacted (the caller holds its
  /// breaker open). Settles with (nullptr, 0, {}) when the shard has no
  /// cache tier or the cache cannot serve every register; a non-null view
  /// always has origin.cached set (stale-but-authentic, never stable).
  void snapshot_degraded_on_shard(std::size_t s, SnapshotHandler done);

  /// Merged lookup in the key's home shard.
  void get(const std::string& key, GetHandler done);

  /// Concurrent fan-out over all shards, merged. Keys homed on a failed
  /// shard are absent and `complete` is false. `bypass_cache` forces
  /// every shard's snapshot through the FAUST engine even when the
  /// deployment has a cache tier — the authoritative view differential
  /// oracles compare against.
  void list(ListHandler done, bool bypass_cache = false);

  /// fail_i of any shard's underlying FaustClient, with the shard index.
  /// Threaded mode: invoked on the failing shard's thread; install it
  /// before traffic starts and treat it as a cross-thread callback.
  FailHandler on_fail;

  std::size_t home_shard(std::string_view key) const { return router_.shard_of(key); }

  /// Threaded mode: meaningful only at quiescence (no op in flight).
  bool any_shard_failed() const;
  std::vector<std::size_t> failed_shards() const;

  /// True iff the result's observing reads are covered by the home
  /// shard's stability cut — the merged value is then in the linearizable
  /// prefix of that shard (Def. 5 item 6) and can never be rolled back.
  /// Threaded mode: meaningful only at quiescence.
  bool stable(const ShardedGetResult& r) const;

  /// The fully-stable timestamp of this client in shard `s`.
  Timestamp shard_stable_ts(std::size_t s) const;

  ClientId id() const { return id_; }
  std::size_t shards() const { return kv_.size(); }

  /// Shard `s`'s deployment (its client id() is this client's FaustClient).
  Cluster& shard(std::size_t s) const { return *shards_[s]; }

  /// The per-shard KV client (tests inspect partitions and counters; in
  /// threaded mode only from the shard's thread or at quiescence).
  kv::KvClient& shard_kv(std::size_t s) { return *kv_[s]; }

 private:
  /// Fan-out accumulator for list(); mutated under mu_.
  struct Fan {
    ShardedListResult result;
    std::size_t waiting = 0;
    ListHandler done;
  };

  /// Runs `body` on shard `s`'s executor thread: inline when the shard is
  /// simulated (single-threaded), post()ed when threaded. All
  /// protocol-object access funnels through this. Returns false when a
  /// stopped runtime refused the post (the body will never run).
  bool dispatch(std::size_t s, std::function<void()> body);

  /// The one op path, arm before dispatch: registers the op in shard
  /// `s`'s pending set on the CALLER's thread, then dispatches
  /// `body(complete)`. The first of the op's normal completion,
  /// settle_failed_shard (fail_i, destruction) and a refused dispatch
  /// (stopped runtime) wins; the last two deliver `failure`. So every
  /// handler fires exactly once — even when the body never runs.
  template <typename Body, typename... Args>
  void run_armed(std::size_t s, std::function<void(Args...)> done, Body body,
                 std::decay_t<Args>... failure);

  // Operation bodies; always run on shard `s`'s thread.
  void put_on_shard(std::size_t s, std::string key, std::string value, PutHandler complete,
                    bool is_erase);
  void get_on_shard(std::size_t s, const std::string& key, GetHandler complete);
  /// Snapshot op (armed) on shard `s`: snapshot_on_shard and list's
  /// per-shard leg.
  void snapshot(std::size_t s, bool bypass_cache, SnapshotHandler done);

  /// Completes every op still in flight on shard `s` with its failure
  /// outcome. fail_i mid-operation halts the FaustClient and drops its
  /// queued callbacks, so without this flush a handler dispatched before
  /// the detection would never fire (and a list() would discard the
  /// healthy shards' results). Runs on shard `s`'s thread (or at
  /// teardown, when nothing else runs).
  void settle_failed_shard(std::size_t s);

  const std::vector<Cluster*> shards_;
  const ShardRouter router_;
  const ClientId id_;

  /// Guards seq_, next_op_, pending_ and Fan state: the only state shared
  /// across shard threads. Never held across a protocol call or a user
  /// handler.
  std::mutex mu_;
  std::uint64_t seq_ = 0;      // cross-shard op counter (oracle-aligned)
  std::uint64_t next_op_ = 0;  // in-flight op ids (pending_ keys)
  /// [shard]: the edge-cache hop of this client in that shard's
  /// deployment (null per shard when the cache tier is off there).
  /// Declared before kv_ so each KvClient (holding a raw pointer via
  /// attach_cache) is destroyed first.
  std::vector<std::unique_ptr<cache::CacheClient>> cache_;
  std::vector<std::unique_ptr<kv::KvClient>> kv_;          // [shard]
  /// [shard]: abort thunk per in-flight op; each thunk fires its op's
  /// handler with the failed-shard outcome. Taking an entry out claims
  /// the op, so the abort and the normal completion fire at most once
  /// between them.
  std::vector<std::map<std::uint64_t, std::function<void()>>> pending_;
  std::vector<FaustClient::FailHandler> chained_on_fail_;  // restored at dtor
  /// [shard]: the fail hook swap actually ran (its runtime was alive);
  /// only then does the destructor restore chained_on_fail_.
  std::vector<bool> hooked_;
};

}  // namespace faust::shard
