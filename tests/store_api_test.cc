// The api::Store facade contract: ONE client surface over every
// deployment shape.
//
// The same seeded op script (puts, erases, gets, lists, and mixed batch
// apply()s) is run through open_store() on three backends —
//
//   (a) a single FAUST deployment (the same backend at S = 1),
//   (b) a sharded deployment in deterministic mode,
//   (c) a sharded deployment in threaded mode (one OS thread per shard)
//
// — and every operation's result struct must agree across the three,
// after normalizing the deployment-specific coordinates (timestamps and
// shard indices differ between deployments by construction; presence,
// values, writers, sequence numbers, failure flags and completeness must
// not). An in-memory model re-derives the expected (seq, writer) winners
// independently, so the backends cannot agree on a wrong answer.
//
// Also pinned here: Ticket wait()/settle() on both substrates, batch
// coalescing semantics (shared publication timestamps, per-shard program
// order around read points), destruction-settling of in-flight tickets,
// and the unified on_event hook (stability advances, shard failures).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adversary/forking_server.h"
#include "api/store.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "faust/cluster.h"
#include "rt/threaded_runtime.h"
#include "shard/sharded_cluster.h"
#include "ustor/server.h"

namespace faust::api {
namespace {

constexpr int kClients = 3;

// --- In-memory reference ----------------------------------------------------

struct Model {
  std::vector<std::map<std::string, std::pair<std::string, std::uint64_t>>> partitions{
      kClients};
  std::vector<std::uint64_t> counters = std::vector<std::uint64_t>(kClients, 0);

  /// Returns true iff the change took effect (no-op-erase rule).
  bool put(ClientId w, const std::string& key, const std::string& value) {
    partitions[static_cast<std::size_t>(w - 1)][key] = {
        value, ++counters[static_cast<std::size_t>(w - 1)]};
    return true;
  }
  bool erase(ClientId w, const std::string& key) {
    if (partitions[static_cast<std::size_t>(w - 1)].erase(key) == 0) return false;
    ++counters[static_cast<std::size_t>(w - 1)];
    return true;
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

// --- Backends ---------------------------------------------------------------

struct Backend {
  virtual ~Backend() = default;
  virtual Store& store(ClientId i) = 0;
  virtual const char* name() const = 0;
};

struct SingleBackend : Backend {
  explicit SingleBackend(std::uint64_t seed) {
    ClusterConfig cfg;
    cfg.n = kClients;
    cfg.seed = seed;
    cfg.faust.dummy_read_period = 0;
    cfg.faust.probe_check_period = 0;
    cluster = std::make_unique<Cluster>(cfg);
    for (ClientId i = 1; i <= kClients; ++i) stores.push_back(open_store(*cluster, i));
  }
  Store& store(ClientId i) override { return *stores[static_cast<std::size_t>(i - 1)]; }
  const char* name() const override { return "single"; }

  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<Store>> stores;
};

struct ShardedBackend : Backend {
  ShardedBackend(std::size_t shards, std::uint64_t seed, shard::ExecMode mode) {
    shard::ShardedClusterConfig cfg;
    cfg.shards = shards;
    cfg.seed = seed;
    cfg.mode = mode;
    cfg.shard_template.n = kClients;
    cfg.shard_template.faust.dummy_read_period = 0;
    cfg.shard_template.faust.probe_check_period = 0;
    cluster = std::make_unique<shard::ShardedCluster>(cfg);
    for (ClientId i = 1; i <= kClients; ++i) stores.push_back(open_store(*cluster, i));
  }
  ~ShardedBackend() override {
    cluster->stop();  // freeze shard threads before the stores unwind
  }
  Store& store(ClientId i) override { return *stores[static_cast<std::size_t>(i - 1)]; }
  const char* name() const override {
    return cluster->threaded() ? "sharded-threaded" : "sharded-deterministic";
  }

  std::unique_ptr<shard::ShardedCluster> cluster;
  std::vector<std::unique_ptr<Store>> stores;
};

// --- Normalization: strip deployment-specific coordinates -------------------

PutResult norm(PutResult r) {
  r.ts = r.ts > 0 ? 1 : 0;
  r.shard = 0;
  r.stable = false;
  return r;
}

GetResult norm(GetResult r) {
  r.read_ts = r.read_ts > 0 ? 1 : 0;
  r.shard = 0;
  r.stable = false;
  return r;
}

ListResult norm(ListResult r) { return r; }  // already deployment-invariant

OpResult norm(OpResult r) {
  r.put = norm(r.put);
  r.get = norm(r.get);
  r.list = norm(r.list);
  return r;
}

bool operator==(const OpResult& a, const OpResult& b) {
  return a.kind == b.kind && a.put == b.put && a.get == b.get && a.list == b.list;
}

// --- The differential script ------------------------------------------------

TEST(StoreApi, SameScriptSameResultsOnEveryBackend) {
  constexpr int kOps = 40;
  constexpr int kKeyPool = 14;
  constexpr std::uint64_t kSeed = 321;

  // Three backends, one script. (The threaded backend resolves tickets by
  // blocking wait(), the deterministic ones by scheduler-stepping
  // settle(); both spellings are exercised below.)
  std::vector<std::unique_ptr<Backend>> backends;
  backends.push_back(std::make_unique<SingleBackend>(kSeed));
  backends.push_back(
      std::make_unique<ShardedBackend>(3, kSeed, shard::ExecMode::kDeterministic));
  backends.push_back(std::make_unique<ShardedBackend>(3, kSeed, shard::ExecMode::kThreaded));
  Model model;

  Rng rng(kSeed);
  for (int op = 1; op <= kOps; ++op) {
    const ClientId who = static_cast<ClientId>(1 + rng.next_below(kClients));
    const std::string key = "key-" + std::to_string(rng.next_below(kKeyPool));
    const std::size_t kind = rng.next_below(12);
    SCOPED_TRACE(::testing::Message() << "op " << op << " client " << who << " key " << key);

    if (kind < 5) {  // put
      const std::string value = "v" + std::to_string(op) + "-c" + std::to_string(who);
      model.put(who, key, value);
      std::vector<PutResult> results;
      for (auto& b : backends) results.push_back(b->store(who).put(key, value).wait());
      for (std::size_t i = 0; i < backends.size(); ++i) {
        EXPECT_GT(results[i].ts, 0u) << backends[i]->name();
        EXPECT_FALSE(results[i].failed) << backends[i]->name();
        EXPECT_EQ(results[i].shard, backends[i]->store(who).home_shard(key))
            << backends[i]->name();
        EXPECT_TRUE(norm(results[i]) == norm(results[0]))
            << backends[i]->name() << " diverged from " << backends[0]->name();
      }
    } else if (kind < 7) {  // erase (frequently a no-op: keys come from a pool)
      const bool effective = model.erase(who, key);
      std::vector<PutResult> results;
      for (auto& b : backends) results.push_back(b->store(who).erase(key).settle());
      for (std::size_t i = 0; i < backends.size(); ++i) {
        EXPECT_EQ(results[i].ts > 0, effective) << backends[i]->name();
        EXPECT_FALSE(results[i].failed) << backends[i]->name();
        EXPECT_TRUE(norm(results[i]) == norm(results[0]))
            << backends[i]->name() << " diverged from " << backends[0]->name();
      }
    } else if (kind < 9) {  // get
      const auto m = model.merged();
      const auto want = m.find(key);
      std::vector<GetResult> results;
      for (auto& b : backends) results.push_back(b->store(who).get(key).wait());
      for (std::size_t i = 0; i < backends.size(); ++i) {
        ASSERT_EQ(results[i].entry.has_value(), want != m.end()) << backends[i]->name();
        if (results[i].entry.has_value()) {
          EXPECT_TRUE(*results[i].entry == want->second) << backends[i]->name();
        }
        EXPECT_GT(results[i].read_ts, 0u) << backends[i]->name();
        EXPECT_FALSE(results[i].failed) << backends[i]->name();
        EXPECT_EQ(results[i].shard, backends[i]->store(who).home_shard(key))
            << backends[i]->name();
        EXPECT_TRUE(norm(results[i]) == norm(results[0]))
            << backends[i]->name() << " diverged from " << backends[0]->name();
      }
    } else if (kind < 10) {  // full list
      const auto want = model.merged();
      for (auto& b : backends) {
        const ListResult r = b->store(who).list().wait();
        EXPECT_TRUE(r.complete) << b->name();
        EXPECT_EQ(r.entries, want) << b->name();
      }
    } else {  // mixed batch apply()
      std::vector<Op> ops;
      std::vector<OpResult> want;
      const int batch_len = static_cast<int>(2 + rng.next_below(5));
      for (int j = 0; j < batch_len; ++j) {
        const std::string bkey = "key-" + std::to_string(rng.next_below(kKeyPool));
        const std::size_t bkind = rng.next_below(8);
        OpResult w;
        if (bkind < 4) {
          const std::string value =
              "b" + std::to_string(op) + "-" + std::to_string(j) + "-c" + std::to_string(who);
          ops.push_back(Op::put(bkey, value));
          model.put(who, bkey, value);
          w.kind = Op::Kind::kPut;
          w.put.ts = 1;  // normalized: a put always publishes
        } else if (bkind < 5) {
          ops.push_back(Op::erase(bkey));
          const bool effective = model.erase(who, bkey);
          w.kind = Op::Kind::kErase;
          w.put.ts = effective ? 1 : 0;
        } else if (bkind < 7) {
          ops.push_back(Op::get(bkey));
          w.kind = Op::Kind::kGet;
          const auto m = model.merged();
          const auto it = m.find(bkey);
          if (it != m.end()) w.get.entry = it->second;
          w.get.read_ts = 1;  // normalized
        } else {
          ops.push_back(Op::list());
          w.kind = Op::Kind::kList;
          w.list.entries = model.merged();
          w.list.complete = true;
        }
        want.push_back(std::move(w));
      }
      for (auto& b : backends) {
        const BatchResult r = b->store(who).apply(ops).wait();
        EXPECT_TRUE(r.ok) << b->name();
        ASSERT_EQ(r.results.size(), want.size()) << b->name();
        for (std::size_t j = 0; j < want.size(); ++j) {
          EXPECT_TRUE(norm(r.results[j]) == want[j])
              << b->name() << " batch slot " << j << " diverged";
        }
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Final full-view agreement, from every client's seat.
  const auto want = model.merged();
  for (auto& b : backends) {
    for (ClientId i = 1; i <= kClients; ++i) {
      const ListResult r = b->store(i).list().wait();
      EXPECT_TRUE(r.complete) << b->name();
      EXPECT_EQ(r.entries, want) << b->name() << " reader " << i;
    }
  }
}

// --- Batch semantics ---------------------------------------------------------

TEST(StoreApi, BatchCoalescesMutationsIntoOnePublication) {
  SingleBackend b(7);
  Store& s = b.store(1);

  // Four puts in one batch: ONE publication — all four share its
  // timestamp — but each draws its own sequence number.
  std::vector<Op> ops;
  for (int k = 0; k < 4; ++k) {
    ops.push_back(Op::put("key" + std::to_string(k), "v" + std::to_string(k)));
  }
  const BatchResult r = s.apply(std::move(ops)).settle();
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.results.size(), 4u);
  const Timestamp shared_ts = r.results[0].put.ts;
  EXPECT_GT(shared_ts, 0u);
  for (const auto& op : r.results) EXPECT_EQ(op.put.ts, shared_ts);

  for (int k = 0; k < 4; ++k) {
    const GetResult g = s.get("key" + std::to_string(k)).settle();
    ASSERT_TRUE(g.entry.has_value());
    EXPECT_EQ(g.entry->seq, static_cast<std::uint64_t>(k + 1))
        << "coalesced puts must still draw distinct, ordered seqs";
  }

  // A batch whose mutations are all no-ops publishes nothing.
  const BatchResult noop =
      s.apply({Op::erase("never-a"), Op::erase("never-b")}).settle();
  ASSERT_TRUE(noop.ok);
  EXPECT_EQ(noop.results[0].put.ts, 0u);
  EXPECT_EQ(noop.results[1].put.ts, 0u);
  EXPECT_FALSE(noop.results[0].put.failed);
}

TEST(StoreApi, BatchReadPointsSplitMutationRuns) {
  // Per-shard program order: a get between two puts of the same key
  // observes the first value, not the second.
  SingleBackend b(8);
  Store& s = b.store(1);
  const BatchResult r =
      s.apply({Op::put("k", "v1"), Op::get("k"), Op::put("k", "v2"), Op::get("k")}).settle();
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.results.size(), 4u);
  ASSERT_TRUE(r.results[1].get.entry.has_value());
  EXPECT_EQ(r.results[1].get.entry->value, "v1");
  EXPECT_EQ(r.results[1].get.entry->seq, 1u);
  ASSERT_TRUE(r.results[3].get.entry.has_value());
  EXPECT_EQ(r.results[3].get.entry->value, "v2");
  EXPECT_EQ(r.results[3].get.entry->seq, 2u);
  EXPECT_LT(r.results[0].put.ts, r.results[2].put.ts)
      << "split runs are separate publications";
}

// --- Tickets -----------------------------------------------------------------

TEST(StoreApi, TicketLifecycle) {
  SingleBackend b(9);
  Store& s = b.store(1);

  Ticket<PutResult> t = s.put("k", "v");
  ASSERT_TRUE(t.valid());
  EXPECT_FALSE(t.ready()) << "nothing resolved before the scheduler runs";
  const PutResult r = t.settle();
  EXPECT_GT(r.ts, 0u);
  EXPECT_TRUE(t.ready());
  EXPECT_TRUE(t.result() == r) << "result() re-reads the resolved value";
  EXPECT_TRUE(t.wait() == r) << "re-waiting an already-resolved ticket is a no-op";

  Ticket<GetResult> g;  // default-constructed tickets are invalid
  EXPECT_FALSE(g.valid());
}

TEST(StoreApi, DestructionSettlesInFlightTickets) {
  // A crashed (silent) server: the op can never complete on its own, and
  // no peer report arrives (probes are off). settle() runs the scheduler
  // dry and reports a failure-marked result while the ticket stays
  // pending; destroying the store then settles it for real.
  ClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 10;
  cfg.faust.dummy_read_period = 0;
  cfg.faust.probe_check_period = 0;
  Cluster cluster(cfg);
  cluster.net().crash(kServerNode);

  auto store = api::open_store(cluster, 1);
  Ticket<PutResult> put = store->put("k", "v");
  Ticket<GetResult> get = store->get("k");
  // A multi-step batch: its first step is in flight at destruction; the
  // REMAINING steps must settle inline instead of issuing fresh engine
  // work into the dying deployment.
  Ticket<BatchResult> batch =
      store->apply({Op::put("k2", "v2"), Op::get("k2"), Op::put("k3", "v3")});

  const PutResult interim = put.settle();
  EXPECT_TRUE(interim.failed) << "scheduler ran dry without completing the op";
  EXPECT_FALSE(put.ready()) << "the operation itself is still in flight";

  store.reset();  // destruction-settling
  ASSERT_TRUE(put.ready());
  ASSERT_TRUE(get.ready());
  EXPECT_TRUE(put.result().failed);
  EXPECT_EQ(put.result().ts, 0u);
  EXPECT_TRUE(get.result().failed);
  ASSERT_TRUE(batch.ready()) << "every step of an in-flight batch must settle";
  const BatchResult b = batch.result();
  EXPECT_FALSE(b.ok);
  ASSERT_EQ(b.results.size(), 3u);
  for (const auto& r : b.results) {
    if (r.kind == Op::Kind::kPut) EXPECT_TRUE(r.put.failed);
    if (r.kind == Op::Kind::kGet) EXPECT_TRUE(r.get.failed);
  }
}

TEST(StoreApi, ThreadedDestructionSettlesInFlightTickets) {
  // Same contract under real threads: stop() freezes the shard runtimes
  // with ops still queued inside them; destroying the store must resolve
  // the tickets with the failure outcome rather than leak them pending.
  shard::ShardedClusterConfig cfg;
  cfg.shards = 2;
  cfg.seed = 11;
  cfg.mode = shard::ExecMode::kThreaded;
  cfg.shard_template.n = 2;
  cfg.shard_template.faust.dummy_read_period = 0;
  cfg.shard_template.faust.probe_check_period = 0;
  auto cluster = std::make_unique<shard::ShardedCluster>(cfg);
  auto store = api::open_store(*cluster, 1);

  // Make shard 0 silent, then issue ops routed there.
  std::atomic<bool> crashed{false};
  cluster->shard_exec(0).post([&] {
    cluster->shard(0).net().crash(kServerNode);
    crashed.store(true, std::memory_order_release);
  });
  ASSERT_TRUE(cluster->await(crashed));
  std::string key0;
  for (int k = 0; key0.empty(); ++k) {
    const std::string key = "t" + std::to_string(k);
    if (cluster->router().shard_of(key) == 0) key0 = key;
  }
  Ticket<PutResult> put = store->put(key0, "v");
  Ticket<ListResult> list = store->list();

  cluster->stop();
  store.reset();
  ASSERT_TRUE(put.ready());
  ASSERT_TRUE(list.ready());
  EXPECT_TRUE(put.result().failed);
  EXPECT_FALSE(list.result().complete) << "shard 0 never contributed";
}

TEST(StoreApi, StoreOverAThreadedClusterResolvesAndSettles) {
  // A bare Cluster whose executor is a threaded runtime: open_store binds
  // the one Store backend at S = 1, every op body runs on the runtime's
  // thread and tickets resolve by blocking wait(). Destruction after
  // stop() still settles an op the silenced server never answered.
  rt::ThreadedRuntimeConfig rt_cfg;
  rt_cfg.start_paused = true;  // no timer may fire into a half-built cluster
  rt::ThreadedRuntime runtime(rt_cfg);
  ClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 12;
  cfg.executor = &runtime;
  cfg.faust.dummy_read_period = 0;
  cfg.faust.probe_check_period = 0;
  Cluster cluster(cfg);
  runtime.start();
  auto writer = open_store(cluster, 1);
  auto reader = open_store(cluster, 2);
  EXPECT_EQ(writer->shards(), 1u);

  const PutResult put = writer->put("k", "v").wait();
  EXPECT_FALSE(put.failed);
  EXPECT_GT(put.ts, 0u);
  const GetResult got = reader->get("k").wait();
  ASSERT_TRUE(got.entry.has_value());
  EXPECT_EQ(got.entry->value, "v");
  EXPECT_EQ(got.entry->writer, 1);
  const ListResult all = reader->list().wait();
  EXPECT_TRUE(all.complete);
  EXPECT_EQ(all.entries.size(), 1u);
  const BatchResult batch =
      writer->apply({Op::put("k2", "v2"), Op::get("k2"), Op::list()}).wait();
  ASSERT_TRUE(batch.ok);
  ASSERT_EQ(batch.results.size(), 3u);
  ASSERT_TRUE(batch.results[1].get.entry.has_value());
  EXPECT_EQ(batch.results[1].get.entry->value, "v2");
  EXPECT_EQ(batch.results[2].list.entries.size(), 2u);

  // The fabric belongs to the runtime's thread: silence the server there.
  ASSERT_TRUE(exec::post_sync(runtime, [&] { cluster.net().crash(kServerNode); }));
  Ticket<PutResult> stuck = writer->put("k", "lost");
  runtime.stop();
  writer.reset();
  ASSERT_TRUE(stuck.ready());
  EXPECT_TRUE(stuck.result().failed);
  EXPECT_EQ(stuck.result().ts, 0u);
}

// --- Events and stability ----------------------------------------------------

TEST(StoreApi, StabilityEventsAndStableResults) {
  ClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 12;
  cfg.faust.dummy_read_period = 300;  // background stability propagation
  Cluster cluster(cfg);
  auto store = api::open_store(cluster, 1);

  std::vector<Timestamp> advances;
  store->on_event([&](const Event& e) {
    if (e.kind == Event::Kind::kStabilityAdvanced) advances.push_back(e.stable_ts);
  });

  const PutResult p = store->put("k", "v").settle();
  ASSERT_GT(p.ts, 0u);
  GetResult g = store->get("k").settle();
  ASSERT_TRUE(g.entry.has_value());

  bool stable = store->stable(g);
  for (int rounds = 0; !stable && rounds < 200; ++rounds) {
    cluster.run_for(2'000);
    stable = store->stable(g);
  }
  EXPECT_TRUE(stable) << "the cut never covered the observing read";
  EXPECT_TRUE(store->stable(p)) << "the write is covered once the cut passes it";
  EXPECT_FALSE(advances.empty()) << "stability advances must surface as events";
  EXPECT_GE(store->stable_ts(0), g.read_ts);
}

TEST(StoreApi, FailedShardSurfacesThroughEventsAndResults) {
  // Shard 0's provider forks its clients; shard 1 stays correct. The
  // facade must emit the failure event, flag ops routed to the dead
  // shard, and keep serving the healthy one — same shape as the legacy
  // ShardedFailAware pins, now through one API.
  shard::ShardedClusterConfig cfg;
  cfg.shards = 2;
  cfg.seed = 17;
  cfg.shard_template.n = 2;
  cfg.shard_template.with_server = false;
  cfg.shard_template.faust.dummy_read_period = 400;
  cfg.shard_template.faust.probe_interval = 3'000;
  cfg.shard_template.faust.probe_check_period = 700;
  shard::ShardedCluster sc(cfg);
  adversary::ForkingServer bad(2, sc.shard(0).net());
  ustor::Server good(2, sc.shard(1).net());

  auto kv1 = api::open_store(sc, 1);
  auto kv2 = api::open_store(sc, 2);
  std::vector<std::size_t> failed_shards;
  kv1->on_event([&](const Event& e) {
    if (e.kind == Event::Kind::kShardFailed) failed_shards.push_back(e.shard);
  });

  std::string key0, key1;
  for (int k = 0; key0.empty() || key1.empty(); ++k) {
    const std::string key = "k" + std::to_string(k);
    (sc.router().shard_of(key) == 0 ? key0 : key1) = key;
  }
  ASSERT_GT(kv1->put(key0, "on-forked-shard").settle().ts, 0u);
  ASSERT_GT(kv1->put(key1, "on-healthy-shard").settle().ts, 0u);

  bad.isolate(2);
  ASSERT_GT(kv2->put(key0, "forked-write").settle().ts, 0u);
  sc.run_for(300'000);  // dummy reads + offline protocol expose the fork

  ASSERT_FALSE(failed_shards.empty());
  for (const std::size_t s : failed_shards) EXPECT_EQ(s, 0u);
  EXPECT_TRUE(kv1->failed(0));
  EXPECT_FALSE(kv1->failed(1));
  EXPECT_TRUE(kv1->any_failed());

  const GetResult dead = kv1->get(key0).settle();
  EXPECT_TRUE(dead.failed);
  EXPECT_EQ(dead.shard, 0u);
  EXPECT_FALSE(kv1->stable(dead));

  const GetResult alive = kv1->get(key1).settle();
  EXPECT_FALSE(alive.failed);
  ASSERT_TRUE(alive.entry.has_value());
  EXPECT_EQ(alive.entry->value, "on-healthy-shard");

  const ListResult l = kv1->list().settle();
  EXPECT_FALSE(l.complete);
  EXPECT_TRUE(l.entries.contains(key1));
  EXPECT_FALSE(l.entries.contains(key0));

  // A batch spanning both shards: the dead shard's slots fail, the
  // healthy shard's slots succeed, ok reports the mix.
  const BatchResult b =
      kv1->apply({Op::put(key0, "x"), Op::put(key1, "y"), Op::get(key1)}).settle();
  EXPECT_FALSE(b.ok);
  EXPECT_TRUE(b.results[0].put.failed);
  EXPECT_FALSE(b.results[1].put.failed);
  ASSERT_TRUE(b.results[2].get.entry.has_value());
  EXPECT_EQ(b.results[2].get.entry->value, "y");
}

// --- Deadlines, breaker and degradation (D10) -------------------------------

namespace {

// Cuts (or heals) every client→server channel of one shard's simulated
// fabric. Threaded shards own their Network on the shard thread, so the
// mutation must serialize onto that runtime.
void cut_shard(shard::ShardedCluster& sc, std::size_t s, bool cut) {
  const auto body = [&sc, s, cut] {
    Cluster& cl = sc.shard(s);
    for (ClientId c = 1; c <= kClients; ++c) {
      if (cut) {
        cl.net().partition(c, kServerNode);
      } else {
        cl.net().heal(c, kServerNode);
      }
    }
  };
  if (sc.threaded()) {
    ASSERT_TRUE(exec::post_sync(sc.shard_exec(s), body));
  } else {
    body();
  }
}

// A threaded two-shard deployment with client retransmission armed (so
// ops stranded by a cut complete after the heal instead of wedging the
// client's op queue forever).
shard::ShardedClusterConfig chaos_store_config(std::uint64_t seed) {
  shard::ShardedClusterConfig cfg;
  cfg.shards = 2;
  cfg.seed = seed;
  cfg.mode = shard::ExecMode::kThreaded;
  cfg.shard_template.n = kClients;
  cfg.shard_template.faust.dummy_read_period = 0;
  cfg.shard_template.faust.probe_check_period = 0;
  cfg.shard_template.faust.retransmit_base = 500;
  return cfg;
}

std::string key_on_shard(const Store& store, std::size_t shard) {
  for (int k = 0;; ++k) {
    std::string key = "dk" + std::to_string(k);
    if (store.home_shard(key) == shard) return key;
  }
}

}  // namespace

TEST(StoreApiD10, WaitDeadlineResolvesTypedTimeoutNotHang) {
  // The satellite-(a) pin: a put routed into a partition must resolve to
  // Status::kTimedOut within the configured deadline — never the silent
  // 120 s default-wait hang — and the op itself stays in flight: after
  // the heal, retransmission completes it and the value is readable.
  shard::ShardedCluster sc(chaos_store_config(51));
  auto store = api::open_store(sc, 1);
  store->set_wait_timeout(std::chrono::milliseconds(200));

  const std::string key = key_on_shard(*store, 0);
  cut_shard(sc, 0, true);

  const auto t0 = std::chrono::steady_clock::now();
  const PutResult r = store->put(key, "through-the-cut").wait();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(r.status, Status::kTimedOut);
  EXPECT_LT(elapsed, std::chrono::seconds(30))
      << "a deadline wait must return promptly, not block for minutes";
  EXPECT_EQ(r.ts, 0u) << "nothing completed yet";

  cut_shard(sc, 0, false);
  // The timed-out ticket abandoned the WAIT, not the op: retransmission
  // finishes it after the heal, and a fresh read observes the write.
  GetResult g;
  for (int round = 0; round < 100; ++round) {
    g = store->get(key).wait_for(std::chrono::milliseconds(500));
    if (g.status == Status::kOk && g.entry.has_value()) break;
  }
  ASSERT_TRUE(g.entry.has_value()) << "the stranded op never completed";
  EXPECT_EQ(g.entry->value, "through-the-cut");
  EXPECT_FALSE(store->any_failed())
      << "a partition is a timing fault and must never fire fail_i";
  sc.stop();
}

TEST(StoreApiD10, BreakerOpensRefusesFastAndRecovers) {
  shard::ShardedCluster sc(chaos_store_config(52));
  auto store = api::open_store(sc, 1);
  store->set_wait_timeout(std::chrono::milliseconds(150));
  store->set_breaker(/*threshold=*/2, /*cooldown_ops=*/3);

  const std::string key0 = key_on_shard(*store, 0);
  const std::string key1 = key_on_shard(*store, 1);
  cut_shard(sc, 0, true);

  // Two consecutive deadline expiries trip shard 0's breaker.
  EXPECT_EQ(store->put(key0, "a").wait().status, Status::kTimedOut);
  EXPECT_EQ(store->put(key0, "b").wait().status, Status::kTimedOut);
  EXPECT_TRUE(store->breaker_open(0));

  // Open breaker: writes refuse fast (typed, no deadline burned) ...
  const auto t0 = std::chrono::steady_clock::now();
  const PutResult refused = store->put(key0, "c").wait();
  EXPECT_EQ(refused.status, Status::kUnavailable);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(100))
      << "a refusal must not queue behind the partition";
  // ... reads with no cache tier degrade to typed unavailability ...
  EXPECT_EQ(store->get(key0).wait().status, Status::kUnavailable);
  // ... and the healthy shard is untouched (the breaker is per-shard).
  EXPECT_EQ(store->put(key1, "healthy").wait_for(std::chrono::seconds(10)).status,
            Status::kOk);
  EXPECT_FALSE(store->breaker_open(1));

  cut_shard(sc, 0, false);
  // Every cooldown-th refusal passes through as the recovery probe; once
  // one completes against the healed shard, the breaker closes.
  PutResult recovered;
  for (int round = 0; round < 100; ++round) {
    recovered = store->put(key0, "after-heal").wait_for(std::chrono::milliseconds(500));
    if (recovered.status == Status::kOk) break;
  }
  EXPECT_EQ(recovered.status, Status::kOk) << "the breaker never recovered";
  EXPECT_FALSE(store->breaker_open(0));
  EXPECT_FALSE(store->any_failed());
  sc.stop();
}

TEST(StoreApiD10, DegradedReadsServeStaleFromCacheFlaggedNeverStable) {
  // With the D8 cache tier wired, an unreachable shard's reads fall back
  // to verified-but-possibly-stale cache state: kOk, cached=true, as_of
  // set — and never reported stable. Writes still refuse fast.
  shard::ShardedClusterConfig cfg = chaos_store_config(53);
  cfg.shard_template.cache.enabled = true;
  cfg.shard_template.cache.with_node = true;
  shard::ShardedCluster sc(cfg);
  auto store = api::open_store(sc, 1);
  store->set_wait_timeout(std::chrono::milliseconds(150));
  store->set_breaker(/*threshold=*/2, /*cooldown_ops=*/100);  // no probes here

  const std::string key = key_on_shard(*store, 0);
  ASSERT_EQ(store->put(key, "cached-value").wait_for(std::chrono::seconds(10)).status,
            Status::kOk);
  // Warm the cache tier: an ordinary read fills every register slot the
  // observing snapshot touches.
  ASSERT_EQ(store->get(key).wait_for(std::chrono::seconds(10)).status, Status::kOk);

  cut_shard(sc, 0, true);
  EXPECT_EQ(store->put(key, "x").wait().status, Status::kTimedOut);
  EXPECT_EQ(store->put(key, "y").wait().status, Status::kTimedOut);
  ASSERT_TRUE(store->breaker_open(0));

  const GetResult degraded = store->get(key).wait();
  EXPECT_EQ(degraded.status, Status::kOk) << "the cache tier should have answered";
  EXPECT_TRUE(degraded.cached) << "a degraded read must be flagged as cache-served";
  EXPECT_GT(degraded.as_of, 0u) << "the staleness horizon must be reported";
  EXPECT_FALSE(degraded.stable) << "served-stale data must never claim stability";
  ASSERT_TRUE(degraded.entry.has_value());
  EXPECT_EQ(degraded.entry->value, "cached-value");
  EXPECT_EQ(store->put(key, "z").wait().status, Status::kUnavailable);
  EXPECT_FALSE(store->any_failed());
  sc.stop();
}

}  // namespace
}  // namespace faust::api
