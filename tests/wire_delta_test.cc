// D6 — O(change) on the wire: verifiable delta SUBMIT/REPLY.
//
// The delta wire protocol is pure transport optimization: the bytes that
// cross the network shrink to the change set, but every value a client
// accepts is verified against the same DATA-signature machinery as the
// full path, and any base mismatch degrades transparently to a full-value
// exchange. This file pins:
//
//   * the end-to-end delta write/read paths and their counters;
//   * the acceptance bounds — single-key SUBMIT bytes at K=16384 within
//     4× of K=256, and the all-unchanged snapshot read shipping O(1)
//     bytes per partition (both on the live byte counters, not estimates);
//   * the fallback protocol — a reader whose verified base is evicted
//     mid-run completes correctly via a full re-read, without fail_i;
//   * the Byzantine story — four delta-specific server lies are rejected,
//     memos stay sound, and the victim recovers through the fallback;
//   * the differential oracle — the delta wire (kChunked) vs the
//     full-value wire (kFlat) yields byte-identical merged views and
//     stability cuts, single and sharded.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/delta_tamper_server.h"
#include "common/rng.h"
#include "faust/cluster.h"
#include "kvstore/kv_client.h"
#include "shard/sharded_cluster.h"
#include "shard/sharded_kv_client.h"
#include "ustor/messages.h"

namespace faust::kv {
namespace {

constexpr auto kSubmitTag = static_cast<std::uint8_t>(ustor::MsgType::kSubmit);
constexpr auto kSubmitDeltaTag = static_cast<std::uint8_t>(ustor::MsgType::kSubmitDelta);
constexpr auto kReplyTag = static_cast<std::uint8_t>(ustor::MsgType::kReply);
constexpr auto kReplyDeltaTag = static_cast<std::uint8_t>(ustor::MsgType::kReplyDelta);

/// Which correct server answers the rig's clients: the in-memory
/// ustor::Server, or the crash-durable storage::PersistentServer (WAL in
/// a fresh temp directory). Both answer SUBMIT_DELTA the same way.
enum class Backend { kMemory, kDurable };

/// Fresh temp directory; removed recursively on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    path = std::string(::testing::TempDir()) + "/faust_wire_delta_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

const char* backend_name(Backend b) {
  return b == Backend::kMemory ? "ustor::Server" : "storage::PersistentServer";
}

struct Rig {
  /// `digest`: kChunked speaks the delta wire, kFlat the full-value wire.
  explicit Rig(std::uint64_t seed, ustor::DigestMode digest = ustor::DigestMode::kChunked,
               int n = 3, bool with_server = true, Backend backend = Backend::kMemory) {
    ClusterConfig cfg;
    cfg.n = n;
    cfg.seed = seed;
    cfg.faust.dummy_read_period = 0;
    cfg.faust.probe_check_period = 0;
    cfg.faust.data_digest = digest;
    cfg.with_server = with_server;
    if (backend == Backend::kDurable) cfg.durability_dir = dir.path;
    cluster = std::make_unique<Cluster>(cfg);
    for (ClientId i = 1; i <= n; ++i) {
      kv.push_back(std::make_unique<KvClient>(cluster->client(i)));
    }
  }

  KvClient& client(ClientId i) { return *kv[static_cast<std::size_t>(i - 1)]; }
  ustor::Client& engine(ClientId i) { return cluster->client(i).engine(); }

  void drive(const bool& done) {
    std::size_t steps = 0;
    while (!done && steps < 2'000'000 && cluster->sched().step()) ++steps;
  }

  void put(ClientId i, const std::string& k, const std::string& v) {
    bool done = false;
    client(i).put(k, v, [&](Timestamp) { done = true; });
    drive(done);
    ASSERT_TRUE(done);
  }

  bool try_get(ClientId i, const std::string& k, std::optional<KvEntry>* out) {
    bool done = false;
    client(i).get(k, [&](std::optional<KvEntry> e, Timestamp) {
      *out = std::move(e);
      done = true;
    });
    drive(done);
    return done;
  }

  std::map<std::string, KvEntry> list(ClientId i) {
    bool done = false;
    std::map<std::string, KvEntry> out;
    client(i).list([&](const std::map<std::string, KvEntry>& m, Timestamp) {
      out = m;
      done = true;
    });
    drive(done);
    EXPECT_TRUE(done);
    return out;
  }

  /// Bulk-loads `count` keys into writer `i`'s partition in one publish.
  void bulk_load(ClientId i, int count, std::size_t value_len,
                 const std::string& prefix = "key-") {
    std::vector<KvClient::SeqChange> batch;
    std::uint64_t seq = client(i).put_seq();
    for (int k = 0; k < count; ++k) {
      batch.push_back(KvClient::SeqChange{prefix + std::to_string(k),
                                          std::string(value_len, 'x'), ++seq});
    }
    bool done = false;
    client(i).apply_with_seqs(batch, [&](Timestamp) { done = true; });
    drive(done);
    ASSERT_TRUE(done);
  }

  TempDir dir;  // declared first: outlives the cluster's WAL handle
  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<KvClient>> kv;
};

// --- End-to-end delta paths and accounting ---------------------------------

TEST(WireDelta, DeltaWritePathShipsSplicesAndVerifies) {
  Rig rig(101);
  rig.bulk_load(1, 64, 24);  // first publish: full (seeds the server base)
  EXPECT_EQ(rig.client(1).publish_fulls(), 1u);
  EXPECT_EQ(rig.client(1).publish_deltas(), 0u);

  const auto before = rig.cluster->net().total_for(kSubmitDeltaTag);
  rig.put(1, "key-7", "edited!");  // single-key edit: ships as SUBMIT_DELTA
  EXPECT_EQ(rig.client(1).publish_deltas(), 1u);
  EXPECT_EQ(rig.engine(1).delta_submits(), 1u);
  const auto after = rig.cluster->net().total_for(kSubmitDeltaTag);
  EXPECT_EQ(after.messages, before.messages + 1);
  EXPECT_GT(after.bytes, before.bytes);

  // Readers verify the spliced publication like any other: same view.
  std::optional<KvEntry> got;
  ASSERT_TRUE(rig.try_get(2, "key-7", &got));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->value, "edited!");
  EXPECT_FALSE(rig.cluster->any_failed());
}

TEST(WireDelta, NetworkCountersBucketizeByTagAndSumToTotal) {
  for (const Backend backend : {Backend::kMemory, Backend::kDurable}) {
    SCOPED_TRACE(backend_name(backend));
    Rig rig(102, ustor::DigestMode::kChunked, 3, true, backend);
    rig.put(1, "a", "1");
    rig.put(1, "a", "2");
    std::optional<KvEntry> e;
    ASSERT_TRUE(rig.try_get(2, "a", &e));
    ASSERT_TRUE(rig.try_get(2, "a", &e));

    const net::Network& net = rig.cluster->net();
    std::uint64_t msgs = 0, bytes = 0;
    for (const net::ChannelStats& s : net.total_by_type()) {
      msgs += s.messages;
      bytes += s.bytes;
    }
    EXPECT_EQ(msgs, net.total().messages);
    EXPECT_EQ(bytes, net.total().bytes);
    // The workload exercised full submits, delta submits, full replies and
    // delta replies; every bucket it used is non-empty.
    EXPECT_GT(net.total_for(kSubmitTag).messages, 0u);
    EXPECT_GT(net.total_for(kSubmitDeltaTag).messages, 0u);
    EXPECT_GT(net.total_for(kReplyTag).messages, 0u);
    EXPECT_GT(net.total_for(kReplyDeltaTag).messages, 0u);
    // Per-channel accounting: the reader→server channel carries its delta
    // submits and nothing of the server→reader reply traffic.
    EXPECT_GT(net.channel_for(2, kServerNode, kSubmitDeltaTag).messages, 0u);
    EXPECT_EQ(net.channel_for(2, kServerNode, kReplyDeltaTag).messages, 0u);
  }
}

// --- The acceptance bounds -------------------------------------------------

/// SUBMIT bytes for 10 single-key puts after bulk-loading K keys.
std::uint64_t delta_put_bytes(int k_keys, std::uint64_t seed) {
  Rig rig(seed);
  rig.bulk_load(1, k_keys, 24);
  const auto before = rig.cluster->net().total_for(kSubmitDeltaTag);
  for (int p = 0; p < 10; ++p) {
    rig.put(1, "key-" + std::to_string(p * (k_keys / 16)), "new-value!");
  }
  EXPECT_EQ(rig.engine(1).delta_submits(), 10u) << "K=" << k_keys;
  const auto after = rig.cluster->net().total_for(kSubmitDeltaTag);
  EXPECT_EQ(after.messages, before.messages + 10) << "K=" << k_keys;
  return after.bytes - before.bytes;
}

TEST(WireDelta, SubmitBytesPerPutTrackTheChangeNotTheKeyspace) {
  // The headline acceptance bound: single-key put SUBMIT bytes at
  // K=16384 within 4× of K=256 — per-op cost tracks the change set.
  const std::uint64_t small = delta_put_bytes(256, 201);
  const std::uint64_t large = delta_put_bytes(16384, 201);
  EXPECT_LE(large, 4 * small)
      << "delta SUBMIT bytes grew with the keyspace: K=256 → " << small
      << " bytes/10 puts, K=16384 → " << large;
}

/// REPLY_DELTA bytes for one all-unchanged get after bulk-loading K keys.
std::uint64_t unchanged_read_bytes(int k_keys, std::uint64_t seed, Backend backend) {
  Rig rig(seed, ustor::DigestMode::kChunked, 3, true, backend);
  // Every writer holds a K/3-key partition, so the reader ends up with a
  // verified base for all three registers.
  for (ClientId w = 1; w <= 3; ++w) {
    rig.bulk_load(w, k_keys / 3, 24, "w" + std::to_string(w) + "-key-");
  }
  std::optional<KvEntry> e;
  EXPECT_TRUE(rig.try_get(2, "w1-key-0", &e));  // cold: full replies, warms memos
  const auto before = rig.cluster->net().total_for(kReplyDeltaTag);
  const std::uint64_t unchanged_before = rig.engine(2).delta_replies_unchanged();
  EXPECT_TRUE(rig.try_get(2, "w1-key-1", &e));  // warm: nothing changed anywhere
  const auto after = rig.cluster->net().total_for(kReplyDeltaTag);
  // Every register read of the warm get was answered "unchanged".
  EXPECT_GE(rig.engine(2).delta_replies_unchanged(), unchanged_before + 3) << "K=" << k_keys;
  EXPECT_GE(after.messages, before.messages + 3) << "K=" << k_keys;
  return (after.bytes - before.bytes) / (after.messages - before.messages);
}

TEST(WireDelta, AllUnchangedSnapshotReadShipsO1BytesPerPartition) {
  // The second acceptance bound, on the live counters: an all-unchanged
  // snapshot costs a small constant per partition, independent of K.
  for (const Backend backend : {Backend::kMemory, Backend::kDurable}) {
    SCOPED_TRACE(backend_name(backend));
    const std::uint64_t small = unchanged_read_bytes(256, 202, backend);
    const std::uint64_t large = unchanged_read_bytes(16384, 202, backend);
    EXPECT_EQ(large, small)
        << "per-reply \"unchanged\" bytes must not depend on the keyspace";
    EXPECT_LT(large, 1024u) << "the unchanged token must stay O(1)-sized";
  }
}

// --- Fallback: evicted base mid-run ----------------------------------------

TEST(WireDelta, EvictedBaseMidRunFallsBackToFullRead) {
  Rig rig(103);
  rig.put(1, "k", "v1");
  std::optional<KvEntry> e;
  ASSERT_TRUE(rig.try_get(2, "k", &e));  // verifies + memoizes the base
  ASSERT_TRUE(rig.engine(2).has_verified_base(1));

  // Issue a get — its first register read advertises the memoized base —
  // then evict every verified base BEFORE driving delivery: the replies
  // can no longer be resolved against anything.
  bool done = false;
  std::optional<KvEntry> out;
  rig.client(2).get("k", [&](std::optional<KvEntry> got, Timestamp) {
    out = std::move(got);
    done = true;
  });
  for (ClientId j = 1; j <= 3; ++j) rig.engine(2).evict_verified_value(j);
  rig.drive(done);
  ASSERT_TRUE(done) << "the fallback path must complete the op";
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->value, "v1");
  EXPECT_GE(rig.engine(2).delta_fallbacks(), 1u) << "the eviction must have forced a fallback";
  EXPECT_FALSE(rig.cluster->client(2).failed())
      << "a base mismatch is a degradation, never an accusation";
}

// --- Byzantine: delta-specific server lies ---------------------------------

class WireDeltaByzantineTest : public ::testing::TestWithParam<adversary::DeltaTamper> {};

TEST_P(WireDeltaByzantineTest, LieIsRejectedMemosSoundFallbackRecovers) {
  Rig rig(104, ustor::DigestMode::kChunked, /*n=*/3, /*with_server=*/false);
  adversary::DeltaTamperServer server(3, rig.cluster->net(), GetParam(),
                                      /*victim=*/2, /*fire_on_read=*/1);

  rig.put(1, "k", "v1");
  std::optional<KvEntry> e;
  ASSERT_TRUE(rig.try_get(2, "k", &e));  // memoizes the v1 base
  EXPECT_EQ(e->value, "v1");
  rig.put(1, "k", "v2");

  // The next get advertises the stale v1 base; the server fires its lie.
  std::optional<KvEntry> out;
  ASSERT_TRUE(rig.try_get(2, "k", &out)) << "the victim must recover and complete";
  EXPECT_TRUE(server.fired());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->value, "v2") << "the fallback must deliver the genuine current value";
  EXPECT_GE(rig.engine(2).delta_fallbacks(), 1u);
  EXPECT_FALSE(rig.cluster->client(2).failed())
      << "a delta mismatch is not transferable evidence; fail_i must not fire";

  // The memos were never polluted: subsequent reads verify and serve the
  // genuine state without incident.
  ASSERT_TRUE(rig.try_get(2, "k", &out));
  EXPECT_EQ(out->value, "v2");
  EXPECT_FALSE(rig.cluster->client(2).failed());
}

INSTANTIATE_TEST_SUITE_P(AllLies, WireDeltaByzantineTest,
                         ::testing::Values(adversary::DeltaTamper::kSpliceBytes,
                                           adversary::DeltaTamper::kForgedRoot,
                                           adversary::DeltaTamper::kLieUnchanged,
                                           adversary::DeltaTamper::kStaleBase),
                         [](const auto& info) {
                           switch (info.param) {
                             case adversary::DeltaTamper::kSpliceBytes: return "SpliceBytes";
                             case adversary::DeltaTamper::kForgedRoot: return "ForgedRoot";
                             case adversary::DeltaTamper::kLieUnchanged: return "LieUnchanged";
                             case adversary::DeltaTamper::kStaleBase: return "StaleBase";
                             default: return "None";
                           }
                         });

// --- Differential oracle: delta wire (kChunked) vs full wire (kFlat) --------

TEST(WireDeltaDifferential, ViewsAndStabilityCutsIdenticalWithDeltasOnAndOff) {
  // Same seed, same ops, only FaustConfig::data_digest differs — kChunked
  // speaks the delta wire, kFlat the full-value wire: merged views AND
  // stability cuts must match exactly. Message counts are identical in a
  // fault-free run (advertised reads still cost one SUBMIT + one REPLY),
  // so even the delay-model draws line up.
  Rig on(77, ustor::DigestMode::kChunked);
  Rig off(77, ustor::DigestMode::kFlat);
  Rng rng(5);
  for (int op = 0; op < 60; ++op) {
    const ClientId who = static_cast<ClientId>(1 + rng.next_below(3));
    const std::string key = "key-" + std::to_string(rng.next_below(10));
    const std::size_t kind = rng.next_below(10);
    if (kind < 7) {
      const std::string value = "v" + std::to_string(op);
      on.put(who, key, value);
      off.put(who, key, value);
    } else {
      std::optional<KvEntry> a, b;
      ASSERT_TRUE(on.try_get(who, key, &a));
      ASSERT_TRUE(off.try_get(who, key, &b));
      ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
      if (a.has_value()) {
        EXPECT_EQ(a->value, b->value);
        EXPECT_EQ(a->writer, b->writer);
        EXPECT_EQ(a->seq, b->seq);
      }
    }
  }
  for (ClientId i = 1; i <= 3; ++i) {
    EXPECT_EQ(on.list(i), off.list(i)) << "reader " << i;
    EXPECT_EQ(on.cluster->client(i).stability_cut(), off.cluster->client(i).stability_cut())
        << "client " << i;
    EXPECT_EQ(on.cluster->client(i).fully_stable_timestamp(),
              off.cluster->client(i).fully_stable_timestamp());
  }
  // The comparison must actually exercise the delta machinery on one side…
  EXPECT_GT(on.engine(1).delta_submits() + on.engine(2).delta_submits() +
                on.engine(3).delta_submits(),
            0u);
  EXPECT_GT(on.engine(1).delta_replies_unchanged() + on.engine(2).delta_replies_unchanged() +
                on.engine(3).delta_replies_unchanged() + on.engine(1).delta_replies_spliced() +
                on.engine(2).delta_replies_spliced() + on.engine(3).delta_replies_spliced(),
            0u);
  // …and none on the other.
  for (ClientId i = 1; i <= 3; ++i) {
    EXPECT_EQ(off.engine(i).delta_submits(), 0u);
    EXPECT_EQ(off.engine(i).delta_reads_advertised(), 0u);
  }
}

TEST(WireDeltaDifferential, ShardedViewsIdenticalWithDeltasOnAndOff) {
  const auto build = [](ustor::DigestMode digest) {
    shard::ShardedClusterConfig cfg;
    cfg.shards = 3;
    cfg.seed = 88;
    cfg.shard_template.n = 3;
    cfg.shard_template.faust.dummy_read_period = 0;
    cfg.shard_template.faust.probe_check_period = 0;
    cfg.shard_template.faust.data_digest = digest;
    return std::make_unique<shard::ShardedCluster>(cfg);
  };
  const auto run = [](shard::ShardedCluster& cluster) {
    std::vector<std::unique_ptr<shard::ShardedKvClient>> kvs;
    for (ClientId i = 1; i <= 3; ++i) {
      kvs.push_back(std::make_unique<shard::ShardedKvClient>(cluster, i));
    }
    Rng rng(9);
    for (int op = 0; op < 40; ++op) {
      const std::size_t who = rng.next_below(3);
      const std::string key = "key-" + std::to_string(rng.next_below(12));
      bool done = false;
      if (rng.next_below(4) != 0) {
        kvs[who]->put(key, "v" + std::to_string(op), [&](Timestamp) { done = true; });
      } else {
        kvs[who]->erase(key, [&](Timestamp) { done = true; });
      }
      EXPECT_TRUE(cluster.drive(done, 2'000'000));
    }
    bool done = false;
    std::map<std::string, KvEntry> view;
    kvs[0]->list([&](const shard::ShardedListResult& r) {
      view = r.entries;
      done = true;
    });
    EXPECT_TRUE(cluster.drive(done, 2'000'000));
    return view;
  };
  auto on = build(ustor::DigestMode::kChunked);
  auto off = build(ustor::DigestMode::kFlat);
  const auto view_on = run(*on);
  const auto view_off = run(*off);
  EXPECT_FALSE(view_on.empty());
  EXPECT_EQ(view_on, view_off);
}

}  // namespace
}  // namespace faust::kv
