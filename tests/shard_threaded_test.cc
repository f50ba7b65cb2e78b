// Differential testing of the THREADED shard execution mode
// (ShardedCluster ExecMode::kThreaded: one rt::ThreadedRuntime per
// shard).
//
// Threaded executions are not deterministic, so unlike
// shard_differential_test this file never compares event order. What it
// pins instead:
//
//   1. Set-equivalence against the in-memory model: a seeded workload
//      replayed op-for-op under kThreaded produces, at every quiescent
//      point, exactly the model's merged view (same key set, same
//      (value, writer, seq) winners) — operations driven to completion
//      one at a time are deterministic in outcome even when the shard
//      interleaving is not.
//   2. Pipelined fan-out: hundreds of in-flight puts/gets/lists issued
//      across all shards at once (the api::Store batch chains and list
//      merge under genuine concurrency) all complete, and the final
//      merged view again equals the model's.
//   3. Histories: per-shard register histories recorded with real-time
//      stamps from concurrent shard threads pass the same
//      linearizability checker the simulated histories do.
//   4. Fail-aware settling under threads: in-flight ops on a shard whose
//      provider fails complete with the failure outcome instead of
//      hanging, exactly as in the deterministic mode.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/store.h"
#include "checker/history.h"
#include "checker/linearizability.h"
#include "common/rng.h"
#include "kvstore/kv_client.h"
#include "shard/sharded_cluster.h"
#include "ustor/messages.h"

namespace faust::shard {
namespace {

using namespace std::chrono_literals;

constexpr int kClients = 3;

/// In-memory reference, identical in spirit to shard_differential_test's:
/// per-writer partitions merged by the (seq, writer) rule.
struct Model {
  std::vector<std::map<std::string, std::pair<std::string, std::uint64_t>>> partitions{kClients};
  std::vector<std::uint64_t> counters = std::vector<std::uint64_t>(kClients, 0);

  void put(ClientId w, const std::string& key, const std::string& value) {
    partitions[static_cast<std::size_t>(w - 1)][key] = {
        value, ++counters[static_cast<std::size_t>(w - 1)]};
  }
  void erase(ClientId w, const std::string& key) {
    // No-op-erase rule: absent keys consume no sequence number.
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

/// A kThreaded deployment plus one api::Store per logical client.
/// Destruction stops the shard threads before the stores unwind, per the
/// Store destructor contract.
struct ThreadedRig {
  ThreadedRig(std::size_t shards, std::uint64_t seed, sim::Time dummy_period = 0) {
    ShardedClusterConfig cfg;
    cfg.shards = shards;
    cfg.seed = seed;
    cfg.mode = ExecMode::kThreaded;
    cfg.shard_template.n = kClients;
    cfg.shard_template.faust.dummy_read_period = dummy_period;
    cfg.shard_template.faust.probe_check_period = 0;
    cluster = std::make_unique<ShardedCluster>(cfg);
    for (ClientId i = 1; i <= kClients; ++i) kv.push_back(api::open_store(*cluster, i));
  }

  ~ThreadedRig() { cluster->stop(); }

  // Completion state is heap-shared with the handler: if an await times
  // out (slow CI machine), the op may still complete — or be settled by
  // teardown — after the helper's frame is gone, and the late handler
  // must write into owned memory, not an unwound stack.
  void put(ClientId i, const std::string& k, const std::string& v) {
    auto done = std::make_shared<std::atomic<bool>>(false);
    kv[static_cast<std::size_t>(i - 1)]->put(
        k, v, [done](const api::PutResult&) { done->store(true, std::memory_order_release); });
    ASSERT_TRUE(cluster->await(*done)) << "threaded put timed out";
  }
  void erase(ClientId i, const std::string& k) {
    auto done = std::make_shared<std::atomic<bool>>(false);
    kv[static_cast<std::size_t>(i - 1)]->erase(
        k, [done](const api::PutResult&) { done->store(true, std::memory_order_release); });
    ASSERT_TRUE(cluster->await(*done)) << "threaded erase timed out";
  }
  api::GetResult get(ClientId i, const std::string& k) {
    struct State {
      std::atomic<bool> done{false};
      api::GetResult out;
    };
    auto st = std::make_shared<State>();
    kv[static_cast<std::size_t>(i - 1)]->get(k, [st](const api::GetResult& r) {
      st->out = r;
      st->done.store(true, std::memory_order_release);
    });
    EXPECT_TRUE(cluster->await(st->done)) << "threaded get timed out";
    return st->out;
  }
  api::ListResult list(ClientId i) {
    struct State {
      std::atomic<bool> done{false};
      api::ListResult out;
    };
    auto st = std::make_shared<State>();
    kv[static_cast<std::size_t>(i - 1)]->list([st](const api::ListResult& r) {
      st->out = r;
      st->done.store(true, std::memory_order_release);
    });
    EXPECT_TRUE(cluster->await(st->done)) << "threaded list timed out";
    return st->out;
  }

  std::unique_ptr<ShardedCluster> cluster;
  std::vector<std::unique_ptr<api::Store>> kv;
};

void expect_view_equals_model(const std::map<std::string, kv::KvEntry>& got,
                              const std::map<std::string, kv::KvEntry>& want,
                              std::size_t shards, std::uint64_t seed, int after_op) {
  ASSERT_EQ(got.size(), want.size()) << "key set diverged: S=" << shards << " seed=" << seed
                                     << " after op " << after_op;
  for (const auto& [key, w] : want) {
    const auto it = got.find(key);
    ASSERT_NE(it, got.end()) << "missing key " << key;
    EXPECT_EQ(it->second.value, w.value) << "key " << key;
    EXPECT_EQ(it->second.writer, w.writer) << "key " << key;
    EXPECT_EQ(it->second.seq, w.seq) << "key " << key;
  }
}

TEST(ShardThreaded, SequentialWorkloadMatchesModel) {
  constexpr int kOps = 48;
  constexpr int kCheckEvery = 16;
  constexpr int kKeyPool = 16;
  for (const std::size_t shards : {2u, 4u}) {
    for (const std::uint64_t seed : {101u, 202u}) {
      SCOPED_TRACE(::testing::Message() << "S=" << shards << " seed=" << seed);
      Rng rng(seed);
      ThreadedRig rig(shards, seed);
      Model model;
      for (int op = 1; op <= kOps; ++op) {
        const ClientId who = static_cast<ClientId>(1 + rng.next_below(kClients));
        const std::string key = "key-" + std::to_string(rng.next_below(kKeyPool));
        const std::size_t kind = rng.next_below(10);
        if (kind < 6) {
          const std::string value = "v" + std::to_string(op) + "-c" + std::to_string(who);
          rig.put(who, key, value);
          model.put(who, key, value);
        } else if (kind < 8) {
          rig.erase(who, key);
          model.erase(who, key);
        } else {
          const api::GetResult got = rig.get(who, key);
          const auto m = model.merged();
          const auto want = m.find(key);
          ASSERT_EQ(got.entry.has_value(), want != m.end());
          if (got.entry.has_value()) {
            EXPECT_EQ(got.entry->value, want->second.value);
            EXPECT_EQ(got.entry->writer, want->second.writer);
            EXPECT_EQ(got.entry->seq, want->second.seq);
          }
          EXPECT_EQ(got.shard, rig.kv[0]->home_shard(key));
          EXPECT_FALSE(got.failed);
        }
        if (op % kCheckEvery == 0 || op == kOps) {
          const ClientId reader = static_cast<ClientId>(1 + rng.next_below(kClients));
          const api::ListResult sl = rig.list(reader);
          EXPECT_TRUE(sl.complete);
          expect_view_equals_model(sl.entries, model.merged(), shards, seed, op);
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(ShardThreaded, PipelinedFanOutCompletesAndConverges) {
  // Per-client key namespaces keep the expected winner deterministic
  // (every key has one writer, whose last issued put wins: per
  // (client, shard) the FaustClient queue preserves issue order even
  // though shards complete out of order relative to each other).
  constexpr std::size_t kShards = 4;
  constexpr int kKeysPerClient = 12;
  constexpr int kRounds = 3;
  // Completions are counted against the precomputed grand total — a
  // plain in-flight counter could transiently hit zero while the main
  // thread is still issuing, releasing the wait early.
  constexpr int kTotalOps = kRounds * kClients * (kKeysPerClient + 1);
  // Declared before the rig: on an early (assertion) return the rig's
  // teardown settles in-flight ops, whose handlers write these — they
  // must outlive the deployment.
  std::atomic<int> completed{0};
  std::atomic<bool> all_done{false};
  std::atomic<int> lists_ok{0};
  const auto op_done = [&] {
    if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == kTotalOps) {
      all_done.store(true, std::memory_order_release);
    }
  };
  ThreadedRig rig(kShards, /*seed=*/4242);
  Model model;

  for (int round = 0; round < kRounds; ++round) {
    for (ClientId c = 1; c <= kClients; ++c) {
      for (int k = 0; k < kKeysPerClient; ++k) {
        const std::string key = "c" + std::to_string(c) + "-k" + std::to_string(k);
        const std::string value = "r" + std::to_string(round) + "-" + key;
        rig.kv[static_cast<std::size_t>(c - 1)]->put(key, value,
                                                     [&](const api::PutResult&) { op_done(); });
        model.put(c, key, value);
      }
      // Interleave a fan-out list per client per round: its merge runs
      // concurrently with puts completing on every shard. Snapshot
      // contents are timing-dependent; only completeness is pinned.
      rig.kv[static_cast<std::size_t>(c - 1)]->list([&](const api::ListResult& r) {
        if (r.complete) lists_ok.fetch_add(1, std::memory_order_relaxed);
        op_done();
      });
    }
  }
  ASSERT_TRUE(rig.cluster->await(all_done, 60s)) << "pipelined workload never drained";
  EXPECT_EQ(lists_ok.load(), kRounds * kClients) << "no shard failed; lists must be complete";
  EXPECT_FALSE(rig.cluster->any_failed());

  const api::ListResult final_view = rig.list(1);
  EXPECT_TRUE(final_view.complete);
  // The Store draws every put's sequence ticket at plan time, on this
  // thread, in issue order — so even though the shard chains race, each
  // key's converged (value, writer, seq) is exactly the model's (per key
  // there is one writer, and its home shard preserves that writer's
  // issue order).
  const auto want = model.merged();
  ASSERT_EQ(final_view.entries.size(), want.size());
  for (const auto& [key, w] : want) {
    const auto it = final_view.entries.find(key);
    ASSERT_NE(it, final_view.entries.end()) << "missing key " << key;
    EXPECT_EQ(it->second.value, w.value) << "key " << key;
    EXPECT_EQ(it->second.writer, w.writer) << "key " << key;
    EXPECT_EQ(it->second.seq, w.seq) << "key " << key;
  }
}

TEST(ShardThreaded, ConcurrentShardHistoriesStayLinearizable) {
  // Raw register traffic on every shard at once: each logical client runs
  // an op chain per shard, driven from completion callbacks (so all
  // protocol work happens on the shard's runtime thread), stamped with
  // the monotonic clock. Each shard is an independent register space, so
  // each shard's history must independently pass the simulator's
  // linearizability checker.
  constexpr std::size_t kShards = 3;
  constexpr int kOpsPerChain = 16;

  struct ShardTrace {
    checker::HistoryRecorder recorder;
    std::mutex mu;
  };
  // Everything the shard threads touch is declared BEFORE the deployment:
  // on an early (assertion) return the cluster is destroyed — joining its
  // threads — first, while traces/chains are still alive.
  std::vector<ShardTrace> traces(kShards);
  std::atomic<int> chains_left{static_cast<int>(kShards) * kClients};
  std::atomic<bool> all_done{false};

  const auto now_ns = [] {
    return static_cast<sim::Time>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                      std::chrono::steady_clock::now().time_since_epoch())
                                      .count());
  };

  struct Chain {
    ShardedCluster* sc;
    std::size_t s;
    ClientId i;
    int remaining;
    ShardTrace* trace;
    std::atomic<int>* chains_left;
    std::atomic<bool>* all_done;
    const std::function<sim::Time()>* clock;
    int op_index = 0;

    void next() {
      if (remaining-- == 0) {
        if (chains_left->fetch_sub(1, std::memory_order_acq_rel) == 1) {
          all_done->store(true, std::memory_order_release);
        }
        return;
      }
      FaustClient& f = sc->shard(s).client(i);
      const int k = op_index++;
      if (k % 2 == 0) {
        const std::string v = "s" + std::to_string(s) + "-c" + std::to_string(i) + "-" +
                              std::to_string(k);
        int rec;
        {
          std::lock_guard lock(trace->mu);
          rec = trace->recorder.begin(i, ustor::OpCode::kWrite, i, to_bytes(v), (*clock)());
        }
        f.write(to_bytes(v), [this, rec](Timestamp t) {
          {
            std::lock_guard lock(trace->mu);
            trace->recorder.end(rec, (*clock)(), t);
          }
          next();
        });
      } else {
        const ClientId j = static_cast<ClientId>((k % kClients) + 1);
        int rec;
        {
          std::lock_guard lock(trace->mu);
          rec = trace->recorder.begin(i, ustor::OpCode::kRead, j, std::nullopt, (*clock)());
        }
        f.read(j, [this, rec](const ustor::Value& v, Timestamp t) {
          {
            std::lock_guard lock(trace->mu);
            trace->recorder.end(rec, (*clock)(), t, v);
          }
          next();
        });
      }
    }
  };

  const std::function<sim::Time()> clock = now_ns;
  std::vector<std::unique_ptr<Chain>> chains;

  ShardedClusterConfig cfg;
  cfg.shards = kShards;
  cfg.seed = 99;
  cfg.mode = ExecMode::kThreaded;
  cfg.shard_template.n = kClients;
  cfg.shard_template.faust.dummy_read_period = 0;
  cfg.shard_template.faust.probe_check_period = 0;
  ShardedCluster sc(cfg);

  for (std::size_t s = 0; s < kShards; ++s) {
    for (ClientId i = 1; i <= kClients; ++i) {
      chains.push_back(std::unique_ptr<Chain>(new Chain{&sc, s, i, kOpsPerChain, &traces[s],
                                                        &chains_left, &all_done, &clock}));
    }
  }
  // Kick every chain off on its shard's own thread; from then on each
  // chain self-drives from completion callbacks.
  for (auto& c : chains) {
    sc.shard_exec(c->s).post([chain = c.get()] { chain->next(); });
  }

  ASSERT_TRUE(sc.await(all_done, 60s)) << "threaded register workload timed out";
  sc.stop();  // freeze: histories and failure flags are now safe to read

  EXPECT_FALSE(sc.any_failed());
  for (std::size_t s = 0; s < kShards; ++s) {
    const auto res = checker::check_linearizable(traces[s].recorder.history());
    EXPECT_TRUE(res.ok) << "shard " << s << ": " << res.violation;
    EXPECT_EQ(traces[s].recorder.history().size(),
              static_cast<std::size_t>(kClients * kOpsPerChain));
  }
}

TEST(ShardThreaded, MidOperationFailureSettlesInFlightOps) {
  // Threaded twin of the deterministic mid-failure test: shard 0's server
  // goes silent, ops routed there hang until a peer's FAILURE report
  // lands — then every in-flight op must settle with the failure outcome,
  // on the shard's own thread.
  // Handler-visible state first (it must outlive the rig; see the
  // pipelined test), then the deployment.
  std::atomic<bool> failed_surfaced{false};
  std::atomic<bool> crashed{false};
  std::atomic<bool> got{false}, put_done{false}, listed{false};
  api::GetResult gr;
  Timestamp put_ts = 77;
  api::ListResult lr;

  ThreadedRig rig(2, /*seed=*/31);
  // Installed before traffic starts: events fire on the shard threads.
  rig.kv[0]->on_event([&](const api::Event& e) {
    if (e.kind != api::Event::Kind::kShardFailed) return;
    EXPECT_EQ(e.shard, 0u);
    failed_surfaced.store(true, std::memory_order_release);
  });
  std::string key0, key1;
  for (int k = 0; key0.empty() || key1.empty(); ++k) {
    const std::string key = "mid" + std::to_string(k);
    (rig.cluster->router().shard_of(key) == 0 ? key0 : key1) = key;
  }
  rig.put(1, key0, "before");
  rig.put(1, key1, "healthy");
  if (::testing::Test::HasFatalFailure()) return;

  // Crash the server from the shard's own thread (the network fabric is
  // owned by it), then issue ops that can never complete on their own.
  rig.cluster->shard_exec(0).post([&] {
    rig.cluster->shard(0).net().crash(kServerNode);
    crashed.store(true, std::memory_order_release);
  });
  ASSERT_TRUE(rig.cluster->await(crashed));

  rig.kv[0]->get(key0, [&](const api::GetResult& r) {
    gr = r;
    got.store(true, std::memory_order_release);
  });
  rig.kv[0]->put(key0, "after-crash", [&](const api::PutResult& r) {
    put_ts = r.ts;
    put_done.store(true, std::memory_order_release);
  });
  rig.kv[0]->list([&](const api::ListResult& r) {
    lr = r;
    listed.store(true, std::memory_order_release);
  });

  // Client 2 reports the provider failed over the offline channel (§6).
  rig.cluster->shard_exec(0).post([&] {
    rig.cluster->shard(0).mail().post(2, 1, ustor::encode(ustor::FailureMessage{}));
  });

  ASSERT_TRUE(rig.cluster->await(got, 60s)) << "in-flight get must settle on fail_i";
  ASSERT_TRUE(rig.cluster->await(put_done, 60s)) << "in-flight put must settle on fail_i";
  ASSERT_TRUE(rig.cluster->await(listed, 60s)) << "fan-out list must deliver healthy shard";
  EXPECT_TRUE(gr.failed);
  EXPECT_EQ(gr.shard, 0u);
  EXPECT_EQ(put_ts, 0u);
  EXPECT_FALSE(lr.complete);
  EXPECT_TRUE(lr.entries.contains(key1));
  EXPECT_FALSE(lr.entries.contains(key0));
  // The fail hook settles the in-flight ops BEFORE it emits the event,
  // so the three handlers above can fire before the flag is set.
  ASSERT_TRUE(rig.cluster->await(failed_surfaced, 60s));
  EXPECT_TRUE(failed_surfaced.load());
}

TEST(ShardThreaded, OpsIssuedAfterStopSettleWithFailureOutcomes) {
  // After stop() every shard runtime refuses posts, so no op body can
  // run. Each handler must still fire exactly once with its failure
  // outcome (at the latest when the store is destroyed), never be
  // silently dropped. Everything below runs on this thread.
  int puts = 0, erases = 0, gets = 0, lists = 0;
  Timestamp put_ts = 77, erase_ts = 77;
  api::GetResult gr;
  api::ListResult lr;
  lr.complete = true;

  ThreadedRig rig(2, /*seed=*/43);
  rig.put(1, "k", "v");
  if (::testing::Test::HasFatalFailure()) return;
  rig.cluster->stop();

  api::Store& kv = *rig.kv[0];
  kv.put("k", "after-stop", [&](const api::PutResult& r) {
    ++puts;
    put_ts = r.ts;
  });
  kv.erase("k", [&](const api::PutResult& r) {
    ++erases;
    erase_ts = r.ts;
  });
  kv.get("k", [&](const api::GetResult& r) {
    ++gets;
    gr = r;
  });
  kv.list([&](const api::ListResult& r) {
    ++lists;
    lr = r;
  });
  rig.kv[0].reset();

  EXPECT_EQ(puts, 1);
  EXPECT_EQ(put_ts, 0u);
  EXPECT_EQ(erases, 1);
  EXPECT_EQ(erase_ts, 0u);
  EXPECT_EQ(gets, 1);
  EXPECT_TRUE(gr.failed);
  EXPECT_EQ(gr.shard, rig.cluster->router().shard_of("k"));
  EXPECT_EQ(lists, 1);
  EXPECT_FALSE(lr.complete);
}

}  // namespace
}  // namespace faust::shard
