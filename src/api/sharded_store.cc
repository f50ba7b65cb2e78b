// api::Store's one backend: wraps shard::ShardedKvClient (which owns
// routing, cross-shard sequence coordination and fail-settling) and
// translates its hooks into facade events. Both open_store() factories
// build it: a sharded deployment binds its S shard Clusters and router,
// a single deployment is the same backend at S = 1. Works in both
// execution modes; on threaded shards the engine posts every op body
// onto the home shard's runtime.
#include <memory>
#include <utility>
#include <vector>

#include "api/store.h"
#include "faust/cluster.h"
#include "shard/sharded_kv_client.h"

namespace faust::api {
namespace {

class ShardedStore final : public Store {
 public:
  /// Binds the engine; takes shard::ShardedKvClient's constructor
  /// arguments.
  template <typename... Args>
  explicit ShardedStore(Args&&... args) : kv_(std::forward<Args>(args)...) {
    if (kv_.shard(0).simulated()) {
      core_->mode = detail::StoreCore::Mode::kStep;
      core_->sched = &kv_.shard(0).sched();
    } else {
      core_->mode = detail::StoreCore::Mode::kBlock;
    }
    kv_.on_fail = [this](std::size_t s, FailureReason reason) {
      Event e;
      e.kind = Event::Kind::kShardFailed;
      e.shard = s;
      e.reason = reason;
      emit(e);
    };
    // Surface each shard's stable_i as a facade event, preserving any
    // handler the harness installed. The swap mutates FaustClient state,
    // so it runs on the shard's own thread; a shard whose runtime is
    // already stopped is skipped (and not "restored" at destruction).
    chained_stable_.resize(kv_.shards());
    hooked_.assign(kv_.shards(), false);
    for (std::size_t s = 0; s < kv_.shards(); ++s) {
      hooked_[s] = kv_.shard(s).run_sync([this, s] {
        FaustClient& f = kv_.shard(s).client(kv_.id());
        chained_stable_[s] = f.on_stable;
        auto prev = f.on_stable;
        f.on_stable = [this, s, prev = std::move(prev)](const FaustClient::StabilityCut& w) {
          if (prev) prev(w);
          Event e;
          e.kind = Event::Kind::kStabilityAdvanced;
          e.shard = s;
          e.stable_ts = kv_.shard_stable_ts(s);
          emit(e);
        };
      });
    }
  }

  /// Restores the stability hooks, then lets the wrapped engine's
  /// destructor settle every in-flight op (which resolves the facade's
  /// outstanding tickets with their failure outcomes). Destructor
  /// contract as everywhere in the shard layer: threaded deployments must
  /// be stop()ped (or quiescent) first.
  ~ShardedStore() override {
    begin_close();  // chains settle inline once ~kv_ aborts their steps
    for (std::size_t s = 0; s < kv_.shards(); ++s) {
      if (!hooked_[s]) continue;
      // Same rule as installation: the swap mutates FaustClient state a
      // live runtime thread reads (stability cuts keep advancing on
      // timers), so it runs on the shard's own thread — inline once that
      // runtime is stopped.
      const auto restore = [this, s] {
        kv_.shard(s).client(kv_.id()).on_stable = std::move(chained_stable_[s]);
      };
      if (!kv_.shard(s).run_sync(restore)) restore();
    }
  }

  ClientId id() const override { return kv_.id(); }
  std::size_t shards() const override { return kv_.shards(); }
  std::size_t home_shard(std::string_view key) const override { return kv_.home_shard(key); }
  Timestamp stable_ts(std::size_t s) const override { return kv_.shard_stable_ts(s); }
  bool failed(std::size_t s) const override { return kv_.shard(s).client(kv_.id()).failed(); }

 protected:
  std::uint64_t engine_next_seq() override { return kv_.draw_seq(); }

  void engine_mutate(std::size_t s, std::vector<kv::KvClient::SeqChange> changes,
                     MutateDone done) override {
    kv_.apply_on_shard(s, std::move(changes), std::move(done));
  }

  void engine_snapshot(std::size_t s, SnapshotDone done) override {
    kv_.snapshot_on_shard(s, std::move(done));
  }

  void engine_degraded_snapshot(std::size_t s, SnapshotDone done) override {
    kv_.snapshot_degraded_on_shard(s, std::move(done));
  }

 private:
  shard::ShardedKvClient kv_;
  std::vector<FaustClient::StableHandler> chained_stable_;  // restored at dtor...
  std::vector<bool> hooked_;  // ...per shard, only if its hook swap ran
};

}  // namespace

std::unique_ptr<Store> open_store(Cluster& cluster, ClientId id) {
  return std::make_unique<ShardedStore>(std::vector<Cluster*>{&cluster}, shard::ShardRouter(1),
                                        id);
}

std::unique_ptr<Store> open_store(shard::ShardedCluster& deployment, ClientId id) {
  return std::make_unique<ShardedStore>(deployment, id);
}

}  // namespace faust::api
