// Differential test oracle for the sharded KV layer.
//
// A seeded random workload (puts, erases, point gets) is replayed,
// op-for-op, against three implementations:
//
//   1. api::Store over a ShardedCluster with S ∈ {1,2,3,4} shards;
//   2. the single-deployment oracle: plain KvClient over one Cluster
//      (the pre-sharding code path, untouched by the shard layer);
//   3. an in-memory model that re-derives the (seq, writer) merge from
//      first principles — so the two protocol stacks cannot agree on a
//      wrong answer without also fooling the model.
//
// At every quiescent point (each op is driven to completion before the
// next is issued, and views are compared every CHECK_EVERY ops and at the
// end) the three merged views must agree key-for-key: same key set, and
// per key the same (value, writer, seq). The Store's one cross-shard
// sequence counter, drawn at plan time, is exactly what makes this hold —
// with per-shard counters a conflict's winner could differ from the
// oracle's.
//
// The file also pins the router's contract (determinism, coverage,
// rendezvous minimal disruption) and the aggregate fail-aware semantics
// (in-flight ops settle when a shard fails; stability is per home
// shard).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "api/store.h"
#include "common/rng.h"
#include "faust/cluster.h"
#include "kvstore/kv_client.h"
#include "shard/shard_router.h"
#include "shard/sharded_cluster.h"
#include "ustor/messages.h"

namespace faust::shard {
namespace {

// --- Router contract ------------------------------------------------------

TEST(ShardRouter, DeterministicAndSeedSensitive) {
  const ShardRouter a(4, 99), b(4, 99), c(4, 100);
  bool any_diff = false;
  for (int k = 0; k < 200; ++k) {
    const std::string key = "key-" + std::to_string(k);
    EXPECT_EQ(a.shard_of(key), b.shard_of(key));
    EXPECT_LT(a.shard_of(key), 4u);
    any_diff |= a.shard_of(key) != c.shard_of(key);
  }
  EXPECT_TRUE(any_diff) << "the seed must perturb the placement";
}

TEST(ShardRouter, EveryShardGetsKeys) {
  for (std::size_t shards = 1; shards <= 6; ++shards) {
    const ShardRouter router(shards, 7);
    std::set<std::size_t> hit;
    for (int k = 0; k < 500; ++k) hit.insert(router.shard_of("k" + std::to_string(k)));
    EXPECT_EQ(hit.size(), shards) << "dead shard with S=" << shards;
  }
}

TEST(ShardRouter, RendezvousGrowthMovesKeysOnlyToTheNewShard) {
  // HRW property: adding shard S changes a key's home only if the new
  // shard wins — nothing ever moves between pre-existing shards.
  for (std::size_t s_count = 1; s_count < 6; ++s_count) {
    const ShardRouter before(s_count, 42), after(s_count + 1, 42);
    std::size_t moved = 0, total = 1000;
    for (std::size_t k = 0; k < total; ++k) {
      const std::string key = "grow-" + std::to_string(k);
      const std::size_t was = before.shard_of(key), now = after.shard_of(key);
      if (was != now) {
        EXPECT_EQ(now, s_count) << "key moved between old shards";
        ++moved;
      }
    }
    // Expected move fraction is 1/(S+1); allow generous slack.
    EXPECT_GT(moved, 0u);
    EXPECT_LT(moved, total / (s_count + 1) * 3);
  }
}

// --- Differential workload ------------------------------------------------

constexpr int kClients = 3;

/// In-memory reference: per-writer partitions with a per-writer op
/// counter, merged by the (seq, writer) rule — independent of both
/// protocol stacks.
struct Model {
  // partitions[w-1]: key -> (value, seq); counters[w-1]: writer w's ops.
  std::vector<std::map<std::string, std::pair<std::string, std::uint64_t>>> partitions{kClients};
  std::vector<std::uint64_t> counters = std::vector<std::uint64_t>(kClients, 0);

  void put(ClientId w, const std::string& key, const std::string& value) {
    partitions[static_cast<std::size_t>(w - 1)][key] = {value,
                                                        ++counters[static_cast<std::size_t>(w - 1)]};
  }
  void erase(ClientId w, const std::string& key) {
    // No-op-erase rule: erasing a key absent from the writer's own
    // partition consumes no sequence number (and publishes nothing).
    if (partitions[static_cast<std::size_t>(w - 1)].erase(key) > 0) {
      ++counters[static_cast<std::size_t>(w - 1)];
    }
  }
  std::map<std::string, kv::KvEntry> merged() const {
    std::map<std::string, kv::KvEntry> out;
    for (ClientId w = 1; w <= kClients; ++w) {
      for (const auto& [key, e] : partitions[static_cast<std::size_t>(w - 1)]) {
        const auto it = out.find(key);
        if (it == out.end() || e.second > it->second.seq ||
            (e.second == it->second.seq && w > it->second.writer)) {
          out[key] = kv::KvEntry{e.first, w, e.second};
        }
      }
    }
    return out;
  }
};

/// The single-deployment oracle (the pre-sharding code path).
struct OracleRig {
  explicit OracleRig(std::uint64_t seed, ustor::DigestMode digest = ustor::DigestMode::kChunked) {
    ClusterConfig cfg;
    cfg.n = kClients;
    cfg.seed = seed;
    cfg.faust.dummy_read_period = 0;  // deterministic op streams
    cfg.faust.probe_check_period = 0;
    cfg.faust.data_digest = digest;
    cluster = std::make_unique<Cluster>(cfg);
    for (ClientId i = 1; i <= kClients; ++i) {
      kv.push_back(std::make_unique<kv::KvClient>(cluster->client(i)));
    }
  }

  void drive(const bool& done) {
    std::size_t steps = 0;
    while (!done && steps < 2'000'000 && cluster->sched().step()) ++steps;
  }

  void put(ClientId i, const std::string& k, const std::string& v) {
    bool done = false;
    kv[static_cast<std::size_t>(i - 1)]->put(k, v, [&](Timestamp) { done = true; });
    drive(done);
    ASSERT_TRUE(done);
  }
  void erase(ClientId i, const std::string& k) {
    bool done = false;
    kv[static_cast<std::size_t>(i - 1)]->erase(k, [&](Timestamp) { done = true; });
    drive(done);
    ASSERT_TRUE(done);
  }
  std::optional<kv::KvEntry> get(ClientId i, const std::string& k) {
    bool done = false;
    std::optional<kv::KvEntry> out;
    kv[static_cast<std::size_t>(i - 1)]->get(k, [&](std::optional<kv::KvEntry> e, Timestamp) {
      out = std::move(e);
      done = true;
    });
    drive(done);
    EXPECT_TRUE(done);
    return out;
  }
  std::map<std::string, kv::KvEntry> list(ClientId i) {
    bool done = false;
    std::map<std::string, kv::KvEntry> out;
    kv[static_cast<std::size_t>(i - 1)]->list(
        [&](const std::map<std::string, kv::KvEntry>& m, Timestamp) {
          out = m;
          done = true;
        });
    drive(done);
    EXPECT_TRUE(done);
    return out;
  }

  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<kv::KvClient>> kv;
};

/// The system under test.
struct ShardedRig {
  ShardedRig(std::size_t shards, std::uint64_t seed,
             ustor::DigestMode digest = ustor::DigestMode::kChunked) {
    ShardedClusterConfig cfg;
    cfg.shards = shards;
    cfg.seed = seed;
    cfg.shard_template.n = kClients;
    cfg.shard_template.faust.dummy_read_period = 0;
    cfg.shard_template.faust.probe_check_period = 0;
    cfg.shard_template.faust.data_digest = digest;
    cluster = std::make_unique<ShardedCluster>(cfg);
    for (ClientId i = 1; i <= kClients; ++i) kv.push_back(api::open_store(*cluster, i));
  }

  void put(ClientId i, const std::string& k, const std::string& v) {
    bool done = false;
    kv[static_cast<std::size_t>(i - 1)]->put(k, v, [&](const api::PutResult&) { done = true; });
    ASSERT_TRUE(cluster->drive(done, 2'000'000));
  }
  void erase(ClientId i, const std::string& k) {
    bool done = false;
    kv[static_cast<std::size_t>(i - 1)]->erase(k, [&](const api::PutResult&) { done = true; });
    ASSERT_TRUE(cluster->drive(done, 2'000'000));
  }
  api::GetResult get(ClientId i, const std::string& k) {
    bool done = false;
    api::GetResult out;
    kv[static_cast<std::size_t>(i - 1)]->get(k, [&](const api::GetResult& r) {
      out = r;
      done = true;
    });
    EXPECT_TRUE(cluster->drive(done, 2'000'000));
    return out;
  }
  api::ListResult list(ClientId i) {
    bool done = false;
    api::ListResult out;
    kv[static_cast<std::size_t>(i - 1)]->list([&](const api::ListResult& r) {
      out = r;
      done = true;
    });
    EXPECT_TRUE(cluster->drive(done, 2'000'000));
    return out;
  }

  std::unique_ptr<ShardedCluster> cluster;
  std::vector<std::unique_ptr<api::Store>> kv;
};

void expect_views_equal(const std::map<std::string, kv::KvEntry>& sharded,
                        const std::map<std::string, kv::KvEntry>& oracle,
                        const std::map<std::string, kv::KvEntry>& model,
                        std::size_t shards, std::uint64_t seed, int after_op) {
  const auto describe = [&](const char* what) {
    return ::testing::Message() << what << " diverged: S=" << shards << " seed=" << seed
                                << " after op " << after_op;
  };
  ASSERT_EQ(oracle.size(), model.size()) << describe("oracle vs model key set");
  ASSERT_EQ(sharded.size(), model.size()) << describe("sharded vs model key set");
  for (const auto& [key, want] : model) {
    const auto o = oracle.find(key);
    ASSERT_NE(o, oracle.end()) << describe("oracle key set") << " key=" << key;
    EXPECT_EQ(o->second.value, want.value) << describe("oracle value") << " key=" << key;
    EXPECT_EQ(o->second.writer, want.writer) << describe("oracle writer") << " key=" << key;
    EXPECT_EQ(o->second.seq, want.seq) << describe("oracle seq") << " key=" << key;
    const auto s = sharded.find(key);
    ASSERT_NE(s, sharded.end()) << describe("sharded key set") << " key=" << key;
    EXPECT_EQ(s->second.value, want.value) << describe("sharded value") << " key=" << key;
    EXPECT_EQ(s->second.writer, want.writer) << describe("sharded writer") << " key=" << key;
    EXPECT_EQ(s->second.seq, want.seq) << describe("sharded seq") << " key=" << key;
  }
}

void run_differential_workload(std::size_t shards, std::uint64_t seed,
                               ustor::DigestMode digest = ustor::DigestMode::kChunked) {
  SCOPED_TRACE(::testing::Message() << "S=" << shards << " seed=" << seed
                                    << " chunked=" << (digest == ustor::DigestMode::kChunked));
  constexpr int kOps = 48;
  constexpr int kCheckEvery = 12;
  constexpr int kKeyPool = 16;

  Rng rng(seed);
  ShardedRig sharded(shards, seed, digest);
  OracleRig oracle(seed ^ 0xdeadbeef, digest);  // independent timing, same ops
  Model model;

  for (int op = 1; op <= kOps; ++op) {
    const ClientId who = static_cast<ClientId>(1 + rng.next_below(kClients));
    const std::string key = "key-" + std::to_string(rng.next_below(kKeyPool));
    const std::size_t kind = rng.next_below(10);
    if (kind < 6) {  // put
      const std::string value = "v" + std::to_string(op) + "-c" + std::to_string(who);
      sharded.put(who, key, value);
      oracle.put(who, key, value);
      model.put(who, key, value);
    } else if (kind < 8) {  // erase
      sharded.erase(who, key);
      oracle.erase(who, key);
      model.erase(who, key);
    } else {  // point get, compared across all three on the spot
      const api::GetResult got = sharded.get(who, key);
      const std::optional<kv::KvEntry> want_o = oracle.get(who, key);
      const auto m = model.merged();
      const auto want_m = m.find(key);
      ASSERT_EQ(got.entry.has_value(), want_o.has_value());
      ASSERT_EQ(got.entry.has_value(), want_m != m.end());
      if (got.entry.has_value()) {
        EXPECT_EQ(got.entry->value, want_o->value);
        EXPECT_EQ(got.entry->value, want_m->second.value);
        EXPECT_EQ(got.entry->writer, want_m->second.writer);
        EXPECT_EQ(got.entry->seq, want_m->second.seq);
      }
      EXPECT_EQ(got.shard, sharded.kv[0]->home_shard(key));
      EXPECT_FALSE(got.failed);
    }

    if (op % kCheckEvery == 0 || op == kOps) {
      // Quiescent point: every issued op has completed; all replicas of
      // the truth must agree, from every reader's seat.
      const ClientId reader = static_cast<ClientId>(1 + rng.next_below(kClients));
      const api::ListResult sl = sharded.list(reader);
      EXPECT_TRUE(sl.complete);
      expect_views_equal(sl.entries, oracle.list(reader), model.merged(), shards, seed, op);
    }
  }
}

TEST(ShardDifferential, MergedViewsAgreeAcrossShardCountsAndSeeds) {
  for (std::size_t shards = 1; shards <= 4; ++shards) {
    for (const std::uint64_t seed : {101u, 202u, 303u}) {
      run_differential_workload(shards, seed);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ShardDifferential, FlatDigestDeploymentAgreesToo) {
  // The paper-literal flat digest over the full-value wire (no chunk
  // trees, no delta SUBMIT/REPLY): the same workloads must still agree
  // with the oracle and the model — the digest mode selects a cost
  // model, never semantics.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    run_differential_workload(shards, 101, ustor::DigestMode::kFlat);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ShardDifferential, ChunkedAndFlatDeploymentsProduceIdenticalViewsAndStability) {
  // Replay ONE op stream through two sharded deployments with identical
  // seeds, one kChunked (delta wire) and one kFlat (full-value wire):
  // merged views must match key-for-key and every shard's stability cut
  // must advance identically (the digest mode changes message sizes, not
  // message counts, and the delay draws are per message, so even the
  // virtual-time schedules coincide).
  ShardedRig delta(2, 505);
  ShardedRig forced(2, 505, ustor::DigestMode::kFlat);
  Rng rng(606);
  for (int op = 0; op < 30; ++op) {
    const ClientId who = static_cast<ClientId>(1 + rng.next_below(kClients));
    const std::string key = "key-" + std::to_string(rng.next_below(12));
    if (rng.next_below(4) == 0) {
      delta.erase(who, key);
      forced.erase(who, key);
    } else {
      const std::string value = "v" + std::to_string(op);
      delta.put(who, key, value);
      forced.put(who, key, value);
    }
  }
  const api::ListResult a = delta.list(1);
  const api::ListResult b = forced.list(1);
  EXPECT_TRUE(a.complete);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (const auto& [key, want] : b.entries) {
    const auto it = a.entries.find(key);
    ASSERT_NE(it, a.entries.end()) << key;
    EXPECT_EQ(it->second.value, want.value) << key;
    EXPECT_EQ(it->second.writer, want.writer) << key;
    EXPECT_EQ(it->second.seq, want.seq) << key;
  }
  for (ClientId i = 1; i <= kClients; ++i) {
    for (std::size_t s = 0; s < 2; ++s) {
      EXPECT_EQ(delta.kv[static_cast<std::size_t>(i - 1)]->stable_ts(s),
                forced.kv[static_cast<std::size_t>(i - 1)]->stable_ts(s))
          << "client " << i << " shard " << s;
    }
  }
}

// --- Aggregate fail-aware semantics ---------------------------------------

TEST(ShardedFailAware, MidOperationFailureSettlesInFlightOps) {
  // A shard can fail while ops are in flight (the halted FaustClient
  // drops its callbacks). The store must complete those ops with
  // the failure outcome — and a fan-out list must still deliver the
  // healthy shards' results — instead of hanging its callers.
  ShardedClusterConfig cfg;
  cfg.shards = 2;
  cfg.seed = 31;
  cfg.shard_template.n = 2;
  cfg.shard_template.faust.dummy_read_period = 0;  // only user ops in flight
  cfg.shard_template.faust.probe_check_period = 0;
  ShardedCluster sc(cfg);
  auto kv1 = api::open_store(sc, 1);

  std::string key0, key1;
  for (int k = 0; key0.empty() || key1.empty(); ++k) {
    const std::string key = "mid" + std::to_string(k);
    (sc.router().shard_of(key) == 0 ? key0 : key1) = key;
  }
  bool done = false;
  kv1->put(key0, "before", [&](const api::PutResult&) { done = true; });
  ASSERT_TRUE(sc.drive(done));
  done = false;
  kv1->put(key1, "healthy", [&](const api::PutResult&) { done = true; });
  ASSERT_TRUE(sc.drive(done));

  // Shard 0's server goes silent: ops routed there can never complete on
  // their own.
  sc.shard(0).net().crash(kServerNode);

  bool got = false;
  api::GetResult gr;
  kv1->get(key0, [&](const api::GetResult& r) {
    gr = r;
    got = true;
  });
  bool put_done = false;
  Timestamp put_ts = 77;
  kv1->put(key0, "after-crash", [&](const api::PutResult& r) {
    put_ts = r.ts;
    put_done = true;
  });
  bool listed = false;
  api::ListResult lr;
  kv1->list([&](const api::ListResult& r) {
    lr = r;
    listed = true;
  });
  sc.run_for(50'000);
  EXPECT_FALSE(got) << "crashed server cannot answer; op must still be pending";
  EXPECT_FALSE(listed);

  // Client 2 reports the provider failed (bare peer report over the
  // offline channel, §6); client 1's fail_i fires mid-operation.
  sc.shard(0).mail().post(2, 1, ustor::encode(ustor::FailureMessage{}));
  sc.run_for(50'000);

  ASSERT_TRUE(got) << "in-flight get must settle on fail_i";
  EXPECT_TRUE(gr.failed);
  EXPECT_EQ(gr.shard, 0u);
  ASSERT_TRUE(put_done) << "in-flight put must settle on fail_i";
  EXPECT_EQ(put_ts, 0u);
  ASSERT_TRUE(listed) << "fan-out list must deliver the healthy shard";
  EXPECT_FALSE(lr.complete);
  EXPECT_TRUE(lr.entries.contains(key1));
  EXPECT_FALSE(lr.entries.contains(key0));

  // Ops issued after the failure keep taking the immediate path.
  got = false;
  kv1->get(key0, [&](const api::GetResult& r) {
    gr = r;
    got = true;
  });
  EXPECT_TRUE(got);
  EXPECT_TRUE(gr.failed);
}

TEST(ShardedStability, KeyStabilityFollowsItsHomeShardsCut) {
  // With dummy reads propagating versions, a written key's merged value
  // becomes stable once the home shard's cut covers the observing reads —
  // and only the home shard's cut matters.
  ShardedClusterConfig cfg;
  cfg.shards = 2;
  cfg.seed = 23;
  cfg.shard_template.n = 2;
  cfg.shard_template.faust.dummy_read_period = 300;
  ShardedCluster sc(cfg);
  auto kv1 = api::open_store(sc, 1);

  bool done = false;
  kv1->put("stab-key", "value", [&](const api::PutResult&) { done = true; });
  ASSERT_TRUE(sc.drive(done));

  bool got = false;
  api::GetResult r;
  kv1->get("stab-key", [&](const api::GetResult& res) {
    r = res;
    got = true;
  });
  ASSERT_TRUE(sc.drive(got));
  ASSERT_TRUE(r.entry.has_value());
  ASSERT_GT(r.read_ts, 0u);
  EXPECT_EQ(r.shard, sc.router().shard_of("stab-key"));

  // Dummy reads advance the cut; the result must become stable within a
  // bounded number of rounds.
  bool stable = kv1->stable(r);
  for (int rounds = 0; !stable && rounds < 200; ++rounds) {
    sc.run_for(2'000);
    stable = kv1->stable(r);
  }
  EXPECT_TRUE(stable) << "home shard's cut never covered the read";
  EXPECT_GE(kv1->stable_ts(r.shard), r.read_ts);
}

}  // namespace
}  // namespace faust::shard
