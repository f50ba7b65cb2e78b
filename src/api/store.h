// faust::api::Store — ONE client surface over every deployment shape.
//
// The paper's client interface is a single fail-aware store: put/get plus
// the stable_i / fail_i output actions. This is that store, and the one
// client engine over every deployment shape (DESIGN.md, decision D4):
//
//   * uniform result structs — PutResult / GetResult / ListResult carry
//     the same fail/stability context on every deployment shape (a
//     single-deployment get reports its observing-read timestamp just
//     like a sharded one);
//   * a completion-token model — every operation takes a plain callback
//     OR returns an awaitable Ticket<T> whose wait()/settle() resolves
//     against the deployment's execution substrate through the
//     exec::Executor seam (blocking under threaded runtimes, scheduler-
//     stepping in deterministic mode), so callers never hand-roll event
//     loops;
//   * a pipelined, coalescing batch entry point — apply(vector<Op>)
//     routes each op to its home shard, keeps per-shard program order,
//     folds adjacent mutations into ONE signed publication and adjacent
//     reads into ONE snapshot per shard, and runs the S per-shard
//     chains concurrently (genuinely parallel under kThreaded);
//   * one event subscription — on_event delivers shard failures and
//     stability-cut advances through a single handler regardless of
//     deployment shape.
//
// A store binds client `id` of S shard Clusters placed by a ShardRouter:
// a shard::ShardedCluster (either execution mode), or one Cluster as
// S = 1. It owns one kv::KvClient per shard (plus that shard's D8
// CacheClient when the cache tier is on) and chains its fail_i / stable_i
// hooks onto each shard's FaustClient. kv::KvClient stays the internal
// engine — and the independently testable oracle the differential tests
// replay against.
//
// Fail-aware semantics aggregate across shards: fail_i on a shard settles
// every op in flight there with its failure outcome (the halted
// FaustClient drops its callbacks) and later ops routed to it complete at
// once; a key's stability follows only its home shard's cut.
//
// Threading contract: one logical client = one issuing thread (the
// paper's well-formed executions). On threaded shards every engine op is
// posted onto its home shard's runtime, so the protocol objects are only
// touched by their own shard thread. Callbacks and events fire on the
// deployment's executor thread(s): inline/scheduler context when
// deterministic, shard runtime threads when threaded.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "faust/faust_client.h"  // FailureReason
#include "kvstore/kv_client.h"   // kv::KvEntry, kv::KvChange
#include "shard/shard_router.h"

namespace faust {
class Cluster;
}
namespace faust::shard {
class ShardedCluster;
}
namespace faust::sim {
class Scheduler;
}

namespace faust::api {

// --- Result structs --------------------------------------------------------

/// Typed outcome of an operation (D10). `failed` on the result structs
/// stays the catch-all boolean (`failed == (status != kOk)` for puts and
/// gets, except degraded cache-served gets, which are kOk); the status
/// distinguishes WHY, because the reactions differ:
///   kFailed      — fail_i fired on the home shard: the server misbehaved,
///                  cryptographic evidence exists, stop trusting it.
///   kTimedOut    — the wait deadline expired: a timing fault, NOT
///                  misbehavior. The operation itself is still in flight
///                  and may complete; the deadline abandons the wait, not
///                  the op. Retry/backoff territory.
///   kUnavailable — the shard's breaker is open (consecutive timeouts):
///                  the op was refused fast instead of queued behind a
///                  partition. Reads may still be served degraded from
///                  the cache tier (flagged cached/as_of, never stable).
enum class Status : std::uint8_t {
  kOk = 0,
  kFailed,
  kTimedOut,
  kUnavailable,
};

/// Completion of a put/erase (one publication to the writer's register).
struct PutResult {
  /// FAUST timestamp of the register write. 0 when no write was issued:
  /// either the op was a no-op (erase of an absent key, failed=false) or
  /// the home shard had failed (failed=true).
  Timestamp ts = 0;
  /// True iff the write was already covered by the home shard's stability
  /// cut when the result materialized (rarely true for a fresh write; ask
  /// Store::stable_ts later for the cut's progress).
  bool stable = false;
  std::size_t shard = 0;  ///< home shard (always 0 on a single deployment)
  bool failed = false;    ///< the op did not take effect (see status)
  Status status = Status::kOk;  ///< typed outcome (D10)
};

/// Completion of a point lookup (one snapshot of the home shard).
struct GetResult {
  std::optional<kv::KvEntry> entry;  ///< winning (value, writer, seq), if any
  /// Largest FAUST timestamp among the observing register reads; the
  /// merged value is in the linearizable prefix once the home shard's
  /// stability cut covers it (Def. 5 item 6).
  Timestamp read_ts = 0;
  bool stable = false;    ///< read_ts covered by the cut at completion time
  std::size_t shard = 0;  ///< home shard of the key
  bool failed = false;    ///< fail_i had fired on the home shard
  /// D8 edge cache: at least one register of the observing snapshot was
  /// served by the home shard's cache — verified authentic, but possibly
  /// stale up to `as_of` (the fill-time freshness horizon). A cached
  /// result is never reported stable: stability claims attach only to
  /// snapshots whose registers were all read through the FAUST engine.
  bool cached = false;
  Timestamp as_of = 0;
  /// Typed outcome (D10). A degraded read served stale from the cache
  /// while its shard's breaker is open reports kOk with cached=true and
  /// as_of set — usable data, truthfully flagged; kUnavailable means not
  /// even the cache could answer.
  Status status = Status::kOk;
};

/// Completion of a full listing (merged across every shard).
struct ListResult {
  std::map<std::string, kv::KvEntry> entries;
  bool complete = false;  ///< false when a failed shard's keys are missing
};

bool operator==(const PutResult& a, const PutResult& b);
bool operator==(const GetResult& a, const GetResult& b);
bool operator==(const ListResult& a, const ListResult& b);

// --- Batch ops -------------------------------------------------------------

/// One operation of a batched apply().
struct Op {
  enum class Kind { kPut, kErase, kGet, kList };
  Kind kind = Kind::kPut;
  std::string key;
  std::string value;  // kPut only

  static Op put(std::string key, std::string value) {
    return Op{Kind::kPut, std::move(key), std::move(value)};
  }
  static Op erase(std::string key) { return Op{Kind::kErase, std::move(key), {}}; }
  static Op get(std::string key) { return Op{Kind::kGet, std::move(key), {}}; }
  static Op list() { return Op{Kind::kList, {}, {}}; }
};

/// Per-op results of a batch, in the batch's op order. Exactly one of the
/// result members is meaningful per op (matching its kind).
struct OpResult {
  Op::Kind kind = Op::Kind::kPut;
  PutResult put;    // kPut / kErase
  GetResult get;    // kGet
  ListResult list;  // kList
};

struct BatchResult {
  std::vector<OpResult> results;
  /// True iff no op in the batch completed with a failure outcome.
  bool ok = false;
};

// --- Events ----------------------------------------------------------------

/// Unified fail-aware notifications (replaces the per-class on_fail /
/// on_stable hooks).
struct Event {
  enum class Kind {
    kShardFailed,        ///< fail_i fired on `shard` (reason set)
    kStabilityAdvanced,  ///< `shard`'s stability cut advanced (stable_ts set)
  };
  Kind kind = Kind::kShardFailed;
  std::size_t shard = 0;
  FailureReason reason = FailureReason::kUstorDetected;  // kShardFailed
  Timestamp stable_ts = 0;  // kStabilityAdvanced: new fully-stable timestamp
};

// --- Completion tokens -----------------------------------------------------

namespace detail {

/// Per-store resolution context shared by all of its tickets. How a
/// ticket resolves depends on the deployment's execution substrate:
/// kStep drives the shared sim::Scheduler (deterministic mode — stepping
/// IS the only way anything completes); kBlock blocks the calling thread
/// until an executor thread delivers the result (threaded runtimes).
struct StoreCore {
  enum class Mode { kStep, kBlock };
  Mode mode = Mode::kStep;
  sim::Scheduler* sched = nullptr;  // kStep only
  std::mutex mu;                    // guards every ticket's value slot
  std::condition_variable cv;       // kBlock completion signal
  std::size_t step_budget = 10'000'000;               // kStep resolve bound
  std::chrono::milliseconds wait_timeout{120'000};    // kBlock resolve bound

  /// Sentinel shard for tickets without a single home shard (batches).
  static constexpr std::size_t kNoShard = ~std::size_t{0};

  // D10 per-shard health (consecutive-timeout breaker). Lives in the
  // shared core because tickets — the component that observes deadline
  // expiry — may outlive the Store. All fields below are guarded by mu.
  struct ShardHealth {
    std::uint32_t consecutive_timeouts = 0;
    bool open = false;       // breaker tripped: refuse ops fast
    std::uint32_t skipped = 0;  // ops refused since it opened/last probe
    bool probing = false;    // one recovery probe is in flight
    std::uint64_t opens = 0; // times the breaker tripped (diagnostics)
  };
  std::uint32_t breaker_threshold = 0;  // 0 = breaker disabled (default)
  std::uint32_t breaker_cooldown = 4;   // refusals between recovery probes
  std::vector<ShardHealth> health;

  /// A ticket wait on `shard` expired: count it; trip at the threshold.
  void note_timeout(std::size_t shard);
  /// The shard answered (any real completion): reset and close.
  void note_contact(std::size_t shard);
  /// Plan-time gate: true if ops to `shard` must be refused right now.
  /// Every `breaker_cooldown`-th refused op is let through instead as the
  /// recovery probe (half-open); its completion closes the breaker, its
  /// timeout re-arms it.
  bool breaker_blocks(std::size_t shard);
  bool breaker_open(std::size_t shard);
};

template <typename T>
struct TicketState {
  std::shared_ptr<StoreCore> core;
  std::optional<T> value;  // guarded by core->mu
  /// Home shard for breaker attribution; kNoShard when not attributable.
  std::size_t shard = StoreCore::kNoShard;
};

/// Per-result-type hooks for the D10 breaker: how a timeout is stamped
/// into the result and whether a resolved value proves the shard spoke.
template <typename T>
struct ShardOutcome {
  static void mark_timeout(T&, std::size_t) {}
  static bool counts_as_contact(const T&) { return false; }
};
template <>
struct ShardOutcome<PutResult> {
  static void mark_timeout(PutResult& r, std::size_t shard) {
    r.shard = shard;
    r.status = Status::kTimedOut;
  }
  static bool counts_as_contact(const PutResult& r) {
    return r.status == Status::kOk || r.status == Status::kFailed;
  }
};
template <>
struct ShardOutcome<GetResult> {
  static void mark_timeout(GetResult& r, std::size_t shard) {
    r.shard = shard;
    r.status = Status::kTimedOut;
  }
  static bool counts_as_contact(const GetResult& r) {
    // Cache-served degraded reads never touched the shard.
    return !r.cached && (r.status == Status::kOk || r.status == Status::kFailed);
  }
};

/// The result a wait()/settle() returns when the operation cannot
/// complete within the resolve bound (e.g. a crashed server that no peer
/// has reported yet). The ticket itself stays pending and will still be
/// settled by fail_i or store destruction.
template <typename T>
T unresolved_result();

bool drain_scheduler(StoreCore& core, const std::function<bool()>& ready);

// Batch execution plan (defined in store.cc).
struct Step;
struct BatchCtx;

}  // namespace detail

/// Awaitable handle for one operation's result. Obtained from the
/// ticket-returning Store overloads; default-constructed tickets are
/// invalid. wait() and settle() are the same mode-aware resolve under two
/// names — "wait" reads naturally against a threaded runtime (the caller
/// blocks), "settle" against the deterministic scheduler (the caller
/// steps it) — so code written with either ports across modes unchanged.
template <typename T>
class Ticket {
 public:
  Ticket() = default;

  bool valid() const { return st_ != nullptr; }

  /// True once the operation completed (or was settled with its failure
  /// outcome by fail_i or store destruction).
  bool ready() const {
    FAUST_CHECK(st_);
    std::lock_guard lock(st_->core->mu);
    return st_->value.has_value();
  }

  /// Resolves and returns the result: steps the deterministic scheduler
  /// until the operation completes (kStep) or blocks on the executor
  /// threads (kBlock). If the resolve bound (step_budget / wait_timeout)
  /// expires first, returns a Status::kTimedOut result and leaves the
  /// ticket pending — the deadline abandons the WAIT, not the operation,
  /// which may still complete (and still be settled by fail_i or store
  /// destruction). A timeout feeds the shard's D10 breaker.
  T wait() { return wait_bounded(st_ ? st_->core->wait_timeout : std::chrono::milliseconds{0}); }

  /// wait() with a per-call deadline overriding the store-wide
  /// wait_timeout (kBlock mode; under kStep the step budget bounds the
  /// resolve either way).
  T wait_for(std::chrono::milliseconds deadline) { return wait_bounded(deadline); }

  /// Synonym of wait() (the deterministic-mode reading of the resolve).
  T settle() { return wait(); }

  /// The resolved result; ready() must be true.
  T result() const {
    FAUST_CHECK(st_);
    std::lock_guard lock(st_->core->mu);
    FAUST_CHECK(st_->value.has_value());
    return *st_->value;
  }

 private:
  friend class Store;
  explicit Ticket(std::shared_ptr<detail::TicketState<T>> st) : st_(std::move(st)) {}

  T wait_bounded(std::chrono::milliseconds deadline) {
    FAUST_CHECK(st_);
    detail::StoreCore& core = *st_->core;
    bool resolved;
    if (core.mode == detail::StoreCore::Mode::kStep) {
      resolved = detail::drain_scheduler(core, [this] {
        std::lock_guard lock(st_->core->mu);
        return st_->value.has_value();
      });
    } else {
      std::unique_lock lock(core.mu);
      resolved = core.cv.wait_for(lock, deadline, [this] { return st_->value.has_value(); });
    }
    if (!resolved) {
      if (st_->shard != detail::StoreCore::kNoShard) core.note_timeout(st_->shard);
      T r = detail::unresolved_result<T>();
      if (st_->shard != detail::StoreCore::kNoShard) {
        detail::ShardOutcome<T>::mark_timeout(r, st_->shard);
      }
      return r;
    }
    T r;
    {
      std::lock_guard lock(core.mu);
      r = *st_->value;
    }
    if (st_->shard != detail::StoreCore::kNoShard &&
        detail::ShardOutcome<T>::counts_as_contact(r)) {
      core.note_contact(st_->shard);
    }
    return r;
  }

  std::shared_ptr<detail::TicketState<T>> st_;
};

// --- The store -------------------------------------------------------------

/// The unified fail-aware key-value store. The API is identical regardless
/// of deployment shape (single / sharded) and execution mode
/// (deterministic / threaded).
class Store {
 public:
  using PutHandler = std::function<void(const PutResult&)>;
  using GetHandler = std::function<void(const GetResult&)>;
  using ListHandler = std::function<void(const ListResult&)>;
  using BatchHandler = std::function<void(const BatchResult&)>;
  using EventHandler = std::function<void(const Event&)>;

  /// Binds client `id` of every cluster in `shards`; `router` places keys
  /// on them (router.shards() == shards.size()). All shards run in one
  /// execution mode. The open_store() factories below build this for the
  /// two deployment shapes. The clusters must outlive the store; at most
  /// one store (or plain KvClient) per (cluster, id).
  Store(std::vector<Cluster*> shards, shard::ShardRouter router, ClientId id);

  /// Destruction settles every in-flight operation (and with it every
  /// outstanding ticket) with its failure outcome, so handlers are never
  /// silently dropped, and gives each shard's FaustClient back the
  /// handlers it had before the store hooked it. Tear the store down
  /// before (or together with) its deployment, and never step the
  /// deployment further while the store's FAUST ops are still pending.
  /// Threaded deployments must be stop()ped (or quiescent) first.
  ~Store();

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  // -- Callback forms -------------------------------------------------------

  void put(std::string key, std::string value, PutHandler done);
  void erase(std::string key, PutHandler done);
  void get(std::string key, GetHandler done);
  /// `bypass_cache` forces every shard's snapshot through the FAUST
  /// engine even when the deployment has a cache tier: the authoritative
  /// view differential oracles compare against.
  void list(ListHandler done, bool bypass_cache = false);

  /// Pipelined batch: ops are routed to their home shards, per-shard
  /// program order is preserved, and the per-shard chains run
  /// concurrently. Adjacent mutations on one shard coalesce into ONE
  /// publication (sharing its timestamp; every put/erase still draws its
  /// own sequence number, so winners are exactly as if issued
  /// individually); adjacent reads on one shard share ONE snapshot. A
  /// kList op takes one snapshot on EVERY shard, each at that
  /// shard's current position in the batch. Results arrive in op order.
  void apply(std::vector<Op> ops, BatchHandler done);

  // -- Ticket forms ---------------------------------------------------------

  Ticket<PutResult> put(std::string key, std::string value);
  Ticket<PutResult> erase(std::string key);
  Ticket<GetResult> get(std::string key);
  Ticket<ListResult> list();
  Ticket<BatchResult> apply(std::vector<Op> ops);

  // -- Events ---------------------------------------------------------------

  /// Installs the unified event handler. Install before traffic starts;
  /// under a threaded deployment events fire on shard runtime threads.
  void on_event(EventHandler handler) { events_ = std::move(handler); }

  // -- Deadlines & degradation (D10) ---------------------------------------

  /// Store-wide ticket-wait deadline (kBlock mode; default 120 s). Waits
  /// that outlast it resolve to Status::kTimedOut — typed, prompt, never
  /// a silent hang — while the op itself stays in flight.
  void set_wait_timeout(std::chrono::milliseconds t) { core_->wait_timeout = t; }
  /// kStep resolve bound: scheduler steps a wait may consume before
  /// resolving to Status::kTimedOut.
  void set_step_budget(std::size_t steps) { core_->step_budget = steps; }

  /// Arms the per-shard consecutive-timeout breaker: after `threshold`
  /// ticket waits on one shard expire back-to-back, ops to that shard are
  /// refused fast with Status::kUnavailable (writes) or served degraded
  /// from the cache tier (reads; flagged cached/as_of, never stable)
  /// instead of queuing behind a partition. Every `cooldown_ops`-th
  /// refusal is let through as a recovery probe; its completion closes
  /// the breaker. threshold 0 disables (the default).
  void set_breaker(std::uint32_t threshold, std::uint32_t cooldown_ops = 4) {
    std::lock_guard lock(core_->mu);
    core_->breaker_threshold = threshold;
    core_->breaker_cooldown = cooldown_ops == 0 ? 1 : cooldown_ops;
  }
  /// True while shard `s`'s breaker is open.
  bool breaker_open(std::size_t s) const { return core_->breaker_open(s); }

  // -- Introspection --------------------------------------------------------

  ClientId id() const { return id_; }
  std::size_t shards() const { return shards_.size(); }
  std::size_t home_shard(std::string_view key) const { return router_.shard_of(key); }
  /// The fully-stable timestamp of this client on shard `s`.
  Timestamp stable_ts(std::size_t shard) const;
  /// fail_i fired on shard `s`. Threaded mode: meaningful at quiescence.
  bool failed(std::size_t shard) const;
  bool any_failed() const;

  /// Re-evaluates an earlier result against the CURRENT stability cut
  /// (results snapshot `stable` at completion time; the cut advances
  /// behind them).
  bool stable(const GetResult& r) const;
  bool stable(const PutResult& r) const;

  /// Shard `s`'s KV engine, for its counters (cache and decode
  /// diagnostics). Threaded mode: read at quiescence.
  const kv::KvClient& shard_kv(std::size_t s) const { return *shards_[s].kv; }

 private:
  /// One shard's engine, and the FaustClient handlers its hooks chain to.
  struct Shard {
    Cluster* cluster = nullptr;
    /// The D8 edge-cache hop (null when the tier is off). Declared before
    /// `kv`, which holds a raw pointer to it, so it is destroyed after.
    std::unique_ptr<cache::CacheClient> cache;
    std::unique_ptr<kv::KvClient> kv;
    /// Abort thunk per in-flight op (guarded by mu_); each fires its op's
    /// handler with the failure outcome. Taking an entry out claims the
    /// op, so the abort and the normal completion fire at most once
    /// between them.
    std::map<std::uint64_t, std::function<void()>> pending;
    FaustClient::FailHandler chained_fail;      // the harness's handlers,
    FaustClient::StableHandler chained_stable;  // restored at destruction
    bool hooked = false;  // the install ran (its runtime was alive)
  };

  /// `done(ts, failed)`: one publication on a shard (KvClient::
  /// apply_with_seqs semantics: all-no-op runs publish nothing, ts=0).
  using MutateDone = std::function<void(Timestamp ts, bool failed)>;
  /// `done(view, read_ts, origin)`: one snapshot of a shard, the n
  /// partitions it pinned (null when the shard failed). The view is
  /// BORROWED: valid only for the duration of the callback.
  using SnapshotDone =
      std::function<void(const kv::SnapshotView*, Timestamp, const kv::ReadOrigin&)>;

  /// apply(), with list()'s cache bypass for every read step.
  void run_batch(std::vector<Op> ops, BatchHandler done, bool bypass_cache);

  /// Executes one step of a batch's per-shard chain, then recurses to the
  /// next from the completion callback (see store.cc).
  void run_step(std::size_t shard, std::size_t step_index,
                std::shared_ptr<std::vector<std::vector<detail::Step>>> plan,
                std::shared_ptr<detail::BatchCtx> ctx);

  /// The one engine op path, arm before dispatch: registers the op in
  /// shard `s`'s pending set on the calling thread, then runs
  /// `body(complete)` on the shard's executor (inline when simulated,
  /// posted when threaded). The first of the op's normal completion,
  /// settle_failed_shard (fail_i, destruction) and a refused post
  /// (stopped runtime) wins; the last two deliver `failure`. So every
  /// handler fires exactly once, even when the body never runs.
  template <typename Body, typename... Args>
  void run_armed(std::size_t s, std::function<void(Args...)> done, Body body,
                 std::decay_t<Args>... failure);

  /// Completes every op still in flight on shard `s` with its failure
  /// outcome: fail_i halts the FaustClient and drops its queued
  /// callbacks, so without this a handler dispatched before the detection
  /// would never fire. Runs on shard `s`'s thread (or at destruction).
  void settle_failed_shard(std::size_t s);

  void emit(const Event& e) {
    if (events_) events_(e);
  }

  /// Creates a ticket and issues the op with a callback that resolves it.
  /// `shard` attributes the ticket's wait outcomes to a home shard for
  /// the D10 breaker (kNoShard = not attributable, e.g. batches).
  template <typename T, typename Issue>
  Ticket<T> make_ticket(Issue issue, std::size_t shard = detail::StoreCore::kNoShard) {
    auto st = std::make_shared<detail::TicketState<T>>();
    st->core = core_;
    st->shard = shard;
    issue([st](const T& result) {
      {
        std::lock_guard lock(st->core->mu);
        if (!st->value.has_value()) st->value = result;
      }
      st->core->cv.notify_all();
    });
    return Ticket<T>(st);
  }

  const shard::ShardRouter router_;
  const ClientId id_;
  std::vector<Shard> shards_;
  std::shared_ptr<detail::StoreCore> core_;

  /// Guards next_op_ and every Shard::pending: the only engine state
  /// shared across shard threads. Never held across a protocol call or a
  /// user handler.
  std::mutex mu_;
  std::uint64_t next_op_ = 0;

  /// The cross-shard sequence counter. Tickets are drawn at plan time, in
  /// issue order, so a batch's winners and exact per-entry sequence
  /// numbers equal a single deployment's replaying the same ops, whatever
  /// order the shard chains run in. Only the issuing thread touches it,
  /// and own_keys_: the plan-time mirror of the client's live keys (this
  /// store is the only writer of its partitions, so the mirror is exact),
  /// which decides the no-op-erase rule without touching shard state.
  std::uint64_t seq_ = 0;
  std::set<std::string> own_keys_;

  /// Set first thing in ~Store: a batch chain whose current step the
  /// settle pass completes must not issue its remaining steps into the
  /// tearing-down deployment (they would re-arm pending slots after the
  /// pass drained them); run_step then settles the rest inline.
  std::atomic<bool> closing_{false};

  EventHandler events_;
};

// --- Factories -------------------------------------------------------------

/// Opens the store of client `id` over a single FAUST deployment: the
/// store at S = 1. The cluster must outlive the store; at most one store
/// (or plain KvClient) per (cluster, id).
std::unique_ptr<Store> open_store(Cluster& cluster, ClientId id);

/// Opens the store of client `id` over a sharded deployment (either
/// execution mode), placed by its router. Same lifetime rules, against
/// every shard.
std::unique_ptr<Store> open_store(shard::ShardedCluster& deployment, ClientId id);

}  // namespace faust::api
