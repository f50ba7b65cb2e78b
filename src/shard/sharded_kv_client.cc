#include "shard/sharded_kv_client.h"

#include <utility>

#include "common/check.h"
#include "shard/sharded_cluster.h"

namespace faust::shard {
namespace {

std::vector<Cluster*> clusters_of(ShardedCluster& deployment) {
  std::vector<Cluster*> out;
  for (std::size_t s = 0; s < deployment.shards(); ++s) out.push_back(&deployment.shard(s));
  return out;
}

}  // namespace

ShardedKvClient::ShardedKvClient(ShardedCluster& deployment, ClientId id)
    : ShardedKvClient(clusters_of(deployment), deployment.router(), id) {}

ShardedKvClient::ShardedKvClient(std::vector<Cluster*> shards, ShardRouter router, ClientId id)
    : shards_(std::move(shards)), router_(std::move(router)), id_(id) {
  const std::size_t s_count = shards_.size();
  FAUST_CHECK(s_count >= 1 && router_.shards() == s_count);
  cache_.resize(s_count);
  kv_.reserve(s_count);
  pending_.resize(s_count);
  chained_on_fail_.resize(s_count);
  for (std::size_t s = 0; s < s_count; ++s) {
    kv_.push_back(std::make_unique<kv::KvClient>(shards_[s]->client(id_)));
  }
  // D8: wire the per-shard edge-cache hop. Construction attaches to the
  // shard's network, which (like the fail-hook swap below) may only be
  // touched from the shard's own thread; a stopped runtime simply leaves
  // the shard uncached.
  for (std::size_t s = 0; s < s_count; ++s) {
    Cluster& shard = *shards_[s];
    if (!shard.cache_options().enabled) continue;
    const bool made = shard.run_sync([this, s, &shard] {
      cache_[s] = std::make_unique<cache::CacheClient>(
          id_, cache::kCacheNodeId, shard.n(), shard.sigs(),
          shard.client(id_).config().data_digest, shard.transport(), shard.exec(),
          shard.cache_options().lookup_timeout);
    });
    if (made) kv_[s]->attach_cache(cache_[s].get());
  }
  // Surface each shard's fail_i through the sharded client, preserving
  // any handler the harness installed before us, and flush the ops the
  // halted FaustClient would otherwise leave dangling. The handler swap
  // mutates FaustClient state, so it runs on the shard's own thread; if
  // a shard's runtime is already stopped the swap never happens and the
  // destructor must not "restore" anything there.
  hooked_.assign(s_count, false);
  for (std::size_t s = 0; s < s_count; ++s) {
    hooked_[s] = shards_[s]->run_sync([this, s] {
      FaustClient& f = shards_[s]->client(id_);
      chained_on_fail_[s] = f.on_fail;
      auto prev = f.on_fail;
      f.on_fail = [this, s, prev = std::move(prev)](FailureReason reason) {
        if (prev) prev(reason);
        settle_failed_shard(s);
        if (on_fail) on_fail(s, reason);
      };
    });
  }
}

ShardedKvClient::~ShardedKvClient() {
  // Settle whatever is still in flight: copies of each op's completion
  // lambda remain queued inside the deployment's callback chains and
  // capture `this`. Settling claims every pending op, so a delivery the
  // deployment still held would find nothing left to fire. By the
  // destructor contract the deployment is quiescent (threaded: stopped),
  // so touching the shards inline is safe here.
  for (std::size_t s = 0; s < kv_.size(); ++s) settle_failed_shard(s);
  // Detaching the cache hop and restoring the fail hook both mutate
  // state a live shard runtime reads (message delivery walks the
  // network's node map; fail_i reads the handler), so — exactly like
  // their installation above — they run on the shard's own thread, and
  // only fall back inline once that runtime is stopped.
  for (std::size_t s = 0; s < cache_.size(); ++s) {
    if (cache_[s] == nullptr) continue;
    if (!shards_[s]->run_sync([this, s] { cache_[s].reset(); })) cache_[s].reset();
  }
  for (std::size_t s = 0; s < kv_.size(); ++s) {
    if (!hooked_[s]) continue;
    const auto restore = [this, s] {
      shards_[s]->client(id_).on_fail = std::move(chained_on_fail_[s]);
    };
    if (!shards_[s]->run_sync(restore)) restore();
  }
}

bool ShardedKvClient::dispatch(std::size_t s, std::function<void()> body) {
  Cluster& shard = *shards_[s];
  if (!shard.simulated()) return shard.exec().post(std::move(body)) != 0;
  body();
  return true;
}

template <typename Body, typename... Args>
void ShardedKvClient::run_armed(std::size_t s, std::function<void(Args...)> done, Body body,
                                std::decay_t<Args>... failure) {
  std::uint64_t id = 0;
  {
    std::lock_guard lock(mu_);
    id = ++next_op_;
    pending_[s].emplace(id, [done, failure...] {
      if (done) done(failure...);
    });
  }
  std::function<void(Args...)> complete = [this, s, id, done = std::move(done)](Args... args) {
    {
      std::lock_guard lock(mu_);
      if (pending_[s].erase(id) == 0) return;  // already settled
    }
    if (done) done(args...);
  };
  if (!dispatch(s, [body = std::move(body), complete]() mutable { body(complete); })) {
    complete(failure...);  // runtime stopped: the body never runs
  }
}

void ShardedKvClient::settle_failed_shard(std::size_t s) {
  // Detach first (which claims the ops): an abort thunk runs its op's
  // handler, which may issue follow-up ops (they take the failed-shard
  // fast path) or fold a list under mu_, so mu_ cannot be held while the
  // thunks run.
  std::map<std::uint64_t, std::function<void()>> aborts;
  {
    std::lock_guard lock(mu_);
    aborts = std::move(pending_[s]);
    pending_[s].clear();
  }
  for (auto& [id, abort] : aborts) abort();
}

void ShardedKvClient::put(std::string key, std::string value, PutHandler done) {
  const std::size_t s = home_shard(key);
  run_armed(
      s, std::move(done),
      [this, s, key = std::move(key), value = std::move(value)](PutHandler complete) mutable {
        put_on_shard(s, std::move(key), std::move(value), std::move(complete),
                     /*is_erase=*/false);
      },
      0);
}

void ShardedKvClient::erase(const std::string& key, PutHandler done) {
  const std::size_t s = home_shard(key);
  run_armed(
      s, std::move(done),
      [this, s, key](PutHandler complete) {
        put_on_shard(s, key, {}, std::move(complete), /*is_erase=*/true);
      },
      0);
}

void ShardedKvClient::put_on_shard(std::size_t s, std::string key, std::string value,
                                   PutHandler complete, bool is_erase) {
  kv::KvClient& kv = *kv_[s];
  if (kv.faust().failed()) {
    // fail_i halted the home shard: the write cannot take effect. Report
    // completion-with-timestamp-0 (the Cluster::write convention) rather
    // than leaving the caller waiting on a halted client.
    complete(0);
    return;
  }
  if (is_erase && !kv.owns_key(key)) {
    // No-op erase: KvClient will not publish, so drawing a cross-shard
    // sequence ticket here would desynchronize the counters from the
    // single-deployment oracle (which does not bump either).
    complete(0);
    return;
  }
  // The ticket's sequence number is drawn from the cross-shard counter up
  // front (oracle alignment, see header): every shard's counter trails
  // seq_, so advance_seq(my_seq - 1) makes this publication use exactly
  // my_seq — without holding mu_ across the encode/sign work below, which
  // is what the threaded mode parallelizes.
  kv.advance_seq(draw_seq() - 1);
  if (is_erase) {
    kv.erase(key, std::move(complete));
  } else {
    kv.put(std::move(key), std::move(value), std::move(complete));
  }
}

void ShardedKvClient::get(const std::string& key, GetHandler done) {
  const std::size_t s = home_shard(key);
  ShardedGetResult failed;
  failed.shard = s;
  failed.shard_failed = true;
  run_armed(
      s, std::move(done),
      [this, s, key](GetHandler complete) { get_on_shard(s, key, std::move(complete)); },
      failed);
}

void ShardedKvClient::get_on_shard(std::size_t s, const std::string& key, GetHandler complete) {
  kv::KvClient& kv = *kv_[s];
  if (kv.faust().failed()) {
    ShardedGetResult r;
    r.shard = s;
    r.shard_failed = true;
    complete(r);
    return;
  }
  kv.get_ex(key, /*bypass_cache=*/false,
            [&kv, s, complete](std::optional<kv::KvEntry> e, Timestamp read_ts,
                               const kv::ReadOrigin& origin) {
              ShardedGetResult r;
              r.entry = std::move(e);
              r.shard = s;
              r.read_ts = read_ts;
              r.shard_failed = kv.faust().failed();
              r.cached = origin.cached;
              r.as_of = origin.as_of;
              complete(r);
            });
}

void ShardedKvClient::list(ListHandler done, bool bypass_cache) {
  auto fan = std::make_shared<Fan>();
  fan->result.complete = true;
  fan->done = std::move(done);
  // Every shard gets a slot before anything is dispatched, so an early
  // completion (a failed shard reports synchronously when inline) cannot
  // fire the handler while later shards are still being dispatched.
  fan->waiting = kv_.size();
  for (std::size_t s = 0; s < kv_.size(); ++s) {
    // A null view: the shard failed — its keys are missing, but the
    // healthy shards' results must still be delivered. The fan state is
    // shared across shard threads, so it is folded under mu_ (the merge
    // itself runs before taking it); the user handler fires outside the
    // lock, from whichever shard finishes last.
    snapshot(s, bypass_cache,
             [this, s, fan](const kv::SnapshotView* view, Timestamp, const kv::ReadOrigin&) {
               std::map<std::string, kv::KvEntry> merged;
               if (view != nullptr) merged = view->merge();
               ListHandler done_now;
               ShardedListResult result_now;
               {
                 std::lock_guard lock(mu_);
                 if (view != nullptr) {
                   for (auto& [key, entry] : merged) {
                     // Home-shard filter: a key can only leak into a
                     // foreign shard's registers under a misbehaving
                     // party; it must not shadow (or resurrect) the home
                     // shard's authoritative entry.
                     if (home_shard(key) == s) fan->result.entries[key] = std::move(entry);
                   }
                 } else {
                   fan->result.complete = false;
                 }
                 if (--fan->waiting == 0) {
                   done_now = std::move(fan->done);
                   result_now = std::move(fan->result);
                 }
               }
               if (done_now) done_now(result_now);
             });
  }
}

std::uint64_t ShardedKvClient::draw_seq() {
  std::lock_guard lock(mu_);
  return ++seq_;
}

void ShardedKvClient::apply_on_shard(std::size_t s,
                                     std::vector<kv::KvClient::SeqChange> changes,
                                     MutateHandler done) {
  FAUST_CHECK(s < kv_.size());
  run_armed(
      s, std::move(done),
      [this, s, changes = std::move(changes)](MutateHandler complete) {
        kv::KvClient& kv = *kv_[s];
        if (kv.faust().failed()) {
          complete(0, /*failed=*/true);
          return;
        }
        kv.apply_with_seqs(changes,
                           [complete](Timestamp t) { complete(t, /*failed=*/false); });
      },
      0, /*failed=*/true);
}

void ShardedKvClient::snapshot_on_shard(std::size_t s, SnapshotHandler done) {
  FAUST_CHECK(s < kv_.size());
  snapshot(s, /*bypass_cache=*/false, std::move(done));
}

void ShardedKvClient::snapshot(std::size_t s, bool bypass_cache, SnapshotHandler done) {
  run_armed(
      s, std::move(done),
      [this, s, bypass_cache](SnapshotHandler complete) {
        kv::KvClient& kv = *kv_[s];
        if (kv.faust().failed()) {
          complete(nullptr, 0, kv::ReadOrigin{});
          return;
        }
        kv.snapshot(
            [complete](const kv::SnapshotView& view, Timestamp ts, const kv::ReadOrigin& origin) {
              complete(&view, ts, origin);
            },
            bypass_cache);
      },
      nullptr, 0, kv::ReadOrigin{});
}

void ShardedKvClient::snapshot_degraded_on_shard(std::size_t s, SnapshotHandler done) {
  FAUST_CHECK(s < kv_.size());
  // Deliberately no faust().failed() fast path: the degraded read never
  // touches the (possibly misbehaving, possibly unreachable) shard, and
  // verified-stale cache data is no less authentic after fail_i — it is
  // served flagged, or the whole snapshot settles null.
  run_armed(
      s, std::move(done),
      [this, s](SnapshotHandler complete) { kv_[s]->snapshot_degraded(std::move(complete)); },
      nullptr, 0, kv::ReadOrigin{});
}

bool ShardedKvClient::any_shard_failed() const {
  for (const auto& kv : kv_) {
    if (kv->faust().failed()) return true;
  }
  return false;
}

std::vector<std::size_t> ShardedKvClient::failed_shards() const {
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < kv_.size(); ++s) {
    if (kv_[s]->faust().failed()) out.push_back(s);
  }
  return out;
}

bool ShardedKvClient::stable(const ShardedGetResult& r) const {
  if (r.shard_failed || r.read_ts == 0) return false;
  return shard_stable_ts(r.shard) >= r.read_ts;
}

Timestamp ShardedKvClient::shard_stable_ts(std::size_t s) const {
  FAUST_CHECK(s < kv_.size());
  return kv_[s]->faust().fully_stable_timestamp();
}

}  // namespace faust::shard
