// Byzantine cache node: every lie an EvilCacheNode can tell must be
// REJECTED by the client-side verification (tampered values and splices,
// forged digests/signatures/bases, bogus negatives, fake unchanged
// tokens, poisoned slots and forged delta histories) or at
// worst degrade to stale-but-authentic data with the staleness surfaced
// (stale-beyond-TTL serving). In every mode the client falls back to the
// home shard and reads the CORRECT value, and the deployment never
// condemns anyone — the cache is not a protocol party, so no fail_i.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/evil_cache.h"
#include "cache/cache_client.h"
#include "faust/cluster.h"
#include "kvstore/kv_client.h"

namespace faust::adversary {
namespace {

using cache::CacheClient;
using cache::CacheOptions;
using cache::kCacheNodeId;

struct EvilRig {
  ClusterConfig cfg;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<EvilCacheNode> node;
  std::vector<std::unique_ptr<kv::KvClient>> kv;
  std::vector<std::unique_ptr<CacheClient>> hops;

  explicit EvilRig(EvilCacheNode::Mode mode, std::uint64_t seed = 99, int n = 3,
                   exec::Time ttl = 200'000) {
    cfg.n = n;
    cfg.seed = seed;
    cfg.faust.dummy_read_period = 0;
    cfg.faust.probe_check_period = 0;
    cluster = std::make_unique<Cluster>(cfg);
    CacheOptions opts;
    opts.enabled = true;
    opts.ttl = ttl;
    node = std::make_unique<EvilCacheNode>(kCacheNodeId, cluster->net(), cluster->exec(),
                                           n, opts, mode);
    for (ClientId i = 1; i <= n; ++i) {
      kv.push_back(std::make_unique<kv::KvClient>(cluster->client(i)));
      hops.push_back(std::make_unique<CacheClient>(
          i, kCacheNodeId, n, cluster->sigs(), cfg.faust.data_digest, cluster->net(),
          cluster->exec(), opts.lookup_timeout));
      kv.back()->attach_cache(hops.back().get());
    }
  }

  kv::KvClient& client(ClientId i) { return *kv[static_cast<std::size_t>(i - 1)]; }
  CacheClient& hop(ClientId i) { return *hops[static_cast<std::size_t>(i - 1)]; }

  void drive(const bool& done) {
    std::size_t steps = 0;
    while (!done && steps < 2'000'000 && cluster->sched().step()) ++steps;
  }

  void put(ClientId i, const std::string& k, const std::string& v) {
    bool done = false;
    client(i).put(k, v, [&](Timestamp) { done = true; });
    drive(done);
    ASSERT_TRUE(done);
    cluster->run_for(100);  // fills land
  }

  struct Got {
    std::optional<kv::KvEntry> entry;
    kv::ReadOrigin origin;
    bool completed = false;
  };

  Got get(ClientId i, const std::string& k, bool bypass = false) {
    bool done = false;
    Got out;
    client(i).get_ex(k, bypass,
                     [&](std::optional<kv::KvEntry> e, Timestamp,
                         const kv::ReadOrigin& origin) {
                       out.entry = std::move(e);
                       out.origin = origin;
                       done = true;
                     });
    drive(done);
    out.completed = done;
    cluster->run_for(100);
    return out;
  }
};

/// Modes whose distortions must be rejected wholesale: the client reads
/// the correct value through the engine fallback every single time.
class RejectedDistortion : public ::testing::TestWithParam<EvilCacheNode::Mode> {};

TEST_P(RejectedDistortion, ClientRejectsFallsBackAndNobodyIsCondemned) {
  EvilRig rig(GetParam());
  rig.put(1, "k", "payload-one");
  rig.put(2, "other", "payload-two");

  for (int round = 0; round < 3; ++round) {
    for (ClientId reader = 1; reader <= 3; ++reader) {
      const EvilRig::Got got = rig.get(reader, "k");
      ASSERT_TRUE(got.completed) << "round " << round << " reader " << int(reader);
      ASSERT_TRUE(got.entry.has_value());
      EXPECT_EQ(got.entry->value, "payload-one")
          << "a Byzantine cache must never change an observed value";
      EXPECT_EQ(got.entry->writer, 1);
    }
  }

  EXPECT_GT(rig.node->corruptions(), 0u) << "the adversary must actually have lied";
  std::uint64_t rejected = 0;
  for (ClientId i = 1; i <= 3; ++i) rejected += rig.hop(i).sections_rejected();
  EXPECT_GT(rejected, 0u) << "distorted sections must be scored kRejected, not missed";
  EXPECT_FALSE(rig.cluster->any_failed())
      << "cache lies are absorbed by fallback — they never condemn the shard";
}

INSTANTIATE_TEST_SUITE_P(AllDistortions, RejectedDistortion,
                         ::testing::Values(EvilCacheNode::Mode::kTamperValue,
                                           EvilCacheNode::Mode::kForgeDigest,
                                           EvilCacheNode::Mode::kForgeSig));

/// RejectedDistortion with a put between reads, so that the readers'
/// advertised bases trail the slot and the node serves kDelta sections:
/// forged splices, forged bases and the digest/signature forgeries on the
/// delta form are all rejected into a correct fallback.
class RejectedDeltaDistortion : public ::testing::TestWithParam<EvilCacheNode::Mode> {};

TEST_P(RejectedDeltaDistortion, ClientRejectsDeltaSectionsFallsBackAndNobodyIsCondemned) {
  EvilRig rig(GetParam());
  // A partition large enough that a one-key change ships as splices.
  for (int k = 0; k < 30; ++k) rig.put(1, "pre" + std::to_string(k), std::string(24, 'p'));
  rig.put(2, "other", "payload-two");

  for (int round = 0; round < 4; ++round) {
    const std::string want = "payload-" + std::to_string(round);
    rig.put(1, "k", want);
    // The writer reads last: its own slot follows its publications, so it
    // advertises the current digest and is answered with the unchanged
    // token. Under kForgeDigest / kForgeSig that token is forged too, and
    // the fallback read it causes refills the slot under a newer binding
    // with a fresh history — after that no trailing reader gets a delta.
    for (const ClientId reader : {ClientId{2}, ClientId{3}, ClientId{1}}) {
      const EvilRig::Got got = rig.get(reader, "k");
      ASSERT_TRUE(got.completed) << "round " << round << " reader " << int(reader);
      ASSERT_TRUE(got.entry.has_value());
      EXPECT_EQ(got.entry->value, want)
          << "a Byzantine cache must never change an observed value";
      EXPECT_EQ(got.entry->writer, 1);
    }
  }

  EXPECT_GT(rig.node->delta_hits(), 0u) << "the variant must actually serve delta sections";
  EXPECT_GT(rig.node->corruptions(), 0u) << "the adversary must actually have lied";
  std::uint64_t rejected = 0;
  for (ClientId i = 1; i <= 3; ++i) rejected += rig.hop(i).sections_rejected();
  EXPECT_GT(rejected, 0u) << "distorted sections must be scored kRejected, not missed";
  EXPECT_FALSE(rig.cluster->any_failed())
      << "cache lies are absorbed by fallback — they never condemn the shard";
}

INSTANTIATE_TEST_SUITE_P(DeltaDistortions, RejectedDeltaDistortion,
                         ::testing::Values(EvilCacheNode::Mode::kTamperSplice,
                                           EvilCacheNode::Mode::kForgeBase,
                                           EvilCacheNode::Mode::kForgeDigest,
                                           EvilCacheNode::Mode::kForgeSig));

/// The genuine binding of writer 1's latest publication: what an honest
/// fill of it carries, and what a poisoner can copy.
struct Binding {
  Timestamp ts = 0;
  crypto::Hash digest{};
  Bytes sig;
  Bytes value;
};

Binding put_and_bind(EvilRig& rig, const std::string& k, const std::string& v) {
  Binding b;
  rig.client(1).put(k, v, [&](Timestamp t) { b.ts = t; });
  std::size_t steps = 0;
  while (b.ts == 0 && steps < 2'000'000 && rig.cluster->sched().step()) ++steps;
  EXPECT_GT(b.ts, 0u);
  rig.cluster->run_for(100);
  const BytesView enc = rig.client(1).encoded_partition();
  b.value.assign(enc.begin(), enc.end());
  b.digest = ustor::value_digest(rig.cfg.faust.data_digest, enc);
  const BytesView sig = rig.cluster->client(1).last_write_sig();
  b.sig.assign(sig.begin(), sig.end());
  return b;
}

TEST(EvilCache, HonestRefillReplacesTamperedBytesUnderTheGenuineBinding) {
  // An honest node, but a poisoned slot: after writer 1's slot expired, a
  // fill arrived with the writer's genuine (writer_ts, digest, signature)
  // over bytes with one flipped bit. Reader 2 has no base, is served the
  // tampered bytes, rejects them and falls back; its read-through fill
  // carries the genuine bytes under the same binding, and must replace
  // the held ones — so the next reader without a base is served from the
  // cache with no rejection.
  EvilRig rig(EvilCacheNode::Mode::kHonest, 99, 3, /*ttl=*/10'000);
  const Binding b = put_and_bind(rig, "k", "genuine");
  rig.cluster->run_for(20'000);
  ASSERT_FALSE(rig.node->holds(1));

  cache::FillSection poison;
  poison.writer = 1;
  poison.present = true;
  poison.writer_ts = b.ts;
  poison.digest = b.digest;
  poison.sig = b.sig;
  poison.value = b.value;
  poison.value[poison.value.size() / 2] ^= 0x01;
  poison.as_of = b.ts;
  std::vector<cache::FillSection> fills;
  fills.push_back(std::move(poison));
  rig.hop(3).fill(std::move(fills));
  rig.cluster->run_for(100);

  const EvilRig::Got first = rig.get(2, "k");
  ASSERT_TRUE(first.completed);
  ASSERT_TRUE(first.entry.has_value());
  EXPECT_EQ(first.entry->value, "genuine");
  EXPECT_EQ(rig.hop(2).sections_rejected(), 1u);

  const EvilRig::Got next = rig.get(3, "k");
  ASSERT_TRUE(next.completed);
  ASSERT_TRUE(next.entry.has_value());
  EXPECT_EQ(next.entry->value, "genuine");
  EXPECT_TRUE(next.origin.cached);
  EXPECT_EQ(rig.hop(3).sections_rejected(), 0u)
      << "an honest refill must wash the tampered bytes out of the slot";
  EXPECT_FALSE(rig.cluster->any_failed());
}

TEST(EvilCache, ForgedDeltaHistoryIsRejectedAndTheSlotHeals) {
  // A Byzantine client pushes a delta fill with garbage splices under the
  // real base, the real new root and the real DATA signature. The node
  // verifies nothing and chains it; readers must reject what it rebuilds,
  // fall back, and their refills must heal the slot.
  EvilRig rig(EvilCacheNode::Mode::kHonest);
  rig.client(1).attach_cache(nullptr);  // the writer's own pushes stay out
  for (int k = 0; k < 20; ++k) rig.put(1, "pre" + std::to_string(k), std::string(24, 'p'));
  const Binding before = put_and_bind(rig, "k", "old");
  const EvilRig::Got seeded = rig.get(2, "k");  // read-through seeds the slot
  ASSERT_TRUE(seeded.entry.has_value());
  ASSERT_TRUE(rig.node->holds(1));

  const Binding after = put_and_bind(rig, "k", "new");
  cache::FillSection forged;
  forged.writer = 1;
  forged.present = true;
  forged.writer_ts = after.ts;
  forged.digest = after.digest;
  forged.sig = after.sig;
  forged.as_of = after.ts;
  forged.delta = true;
  forged.base = before.digest;
  forged.new_size = before.value.size();
  forged.splices = {ustor::Splice{8, 4, Bytes{'X', 'X', 'X', 'X'}}};
  std::vector<cache::FillSection> fills;
  fills.push_back(std::move(forged));
  rig.hop(3).fill(std::move(fills));
  rig.cluster->run_for(100);
  ASSERT_EQ(rig.node->delta_fills(), 1u) << "the forged record must actually be chained";

  const EvilRig::Got got = rig.get(2, "k");
  ASSERT_TRUE(got.completed);
  ASSERT_TRUE(got.entry.has_value());
  EXPECT_EQ(got.entry->value, "new");
  EXPECT_EQ(rig.node->delta_hits(), 1u) << "reader 2's base reaches the forged record";
  EXPECT_EQ(rig.hop(2).sections_rejected(), 1u);

  const EvilRig::Got healed = rig.get(3, "k");
  ASSERT_TRUE(healed.completed);
  ASSERT_TRUE(healed.entry.has_value());
  EXPECT_EQ(healed.entry->value, "new");
  EXPECT_TRUE(healed.origin.cached);
  EXPECT_EQ(rig.hop(3).sections_rejected(), 0u);
  EXPECT_FALSE(rig.cluster->any_failed());
}

TEST(EvilCache, BogusNegativeIsRefutedByTheClientsOwnKnowledge) {
  EvilRig rig(EvilCacheNode::Mode::kBogusNegative);
  rig.put(1, "k", "written");

  // Seed the reader's verified knowledge through the authoritative path:
  // the bypass read decodes X_1 and memoizes its digest.
  const EvilRig::Got seeded = rig.get(2, "k", /*bypass=*/true);
  ASSERT_TRUE(seeded.completed);
  ASSERT_TRUE(seeded.entry.has_value());

  // From here on, "X_1 was never written" is REFUTED outright: registers
  // never revert to ⊥, and the reader's own memo proves it was written.
  const EvilRig::Got second = rig.get(2, "k");
  ASSERT_TRUE(second.completed);
  ASSERT_TRUE(second.entry.has_value())
      << "a bogus negative must never erase a known-written register";
  EXPECT_EQ(second.entry->value, "written");
  EXPECT_GT(rig.hop(2).sections_rejected(), 0u);
  EXPECT_FALSE(rig.cluster->any_failed());
}

TEST(EvilCache, AcceptedNegativeIsAtWorstStaleAndHonestlyDated) {
  // A negative for a register the reader has NO verified knowledge of is
  // unverifiable-but-consistent: the client may accept it, and the merged
  // view then lags. The defence is honesty, not omniscience — the
  // all-negative snapshot reports cached=true with freshness horizon 0
  // ("never verified"), so a caller that needs freshness knows to bypass,
  // and the bypass path always sees the truth.
  EvilRig rig(EvilCacheNode::Mode::kBogusNegative);
  rig.put(1, "k", "written");
  const EvilRig::Got blinded = rig.get(2, "k");
  ASSERT_TRUE(blinded.completed);
  if (blinded.origin.cached && !blinded.entry.has_value()) {
    EXPECT_EQ(blinded.origin.as_of, 0u)
        << "a fabricated negative carries no credible freshness horizon";
  }
  const EvilRig::Got truth = rig.get(2, "k", /*bypass=*/true);
  ASSERT_TRUE(truth.completed);
  ASSERT_TRUE(truth.entry.has_value());
  EXPECT_EQ(truth.entry->value, "written");
  EXPECT_FALSE(rig.cluster->any_failed());
}

TEST(EvilCache, FakeUnchangedRejectedUnlessItIsActuallyTrue) {
  EvilRig rig(EvilCacheNode::Mode::kFakeUnchanged);
  rig.put(1, "k", "v1");
  (void)rig.get(2, "k");  // seeds the reader's memo with v1's digest

  // The writer moves on; the push fill updates the cache to v2. The evil
  // node now serves "unchanged" for a digest (v2) that does NOT match the
  // reader's advertised base (v1) — verification must reject it and the
  // engine fallback must deliver v2.
  rig.put(1, "k", "v2");
  const EvilRig::Got got = rig.get(2, "k");
  ASSERT_TRUE(got.completed);
  ASSERT_TRUE(got.entry.has_value());
  EXPECT_EQ(got.entry->value, "v2");
  EXPECT_GT(rig.node->corruptions(), 0u);
  EXPECT_GT(rig.hop(2).sections_rejected(), 0u);
  EXPECT_FALSE(rig.cluster->any_failed());
}

TEST(EvilCache, StaleBeyondTtlIsAuthenticAndSurfacedNeverFresh) {
  // TTL 3k ticks, but the evil node never expires anything. Without push
  // fills from the writer (only the reader has a cache hop) the node
  // keeps serving v1 long past its lifetime — which the client accepts
  // ONLY as what it is: authentic data with an old as_of horizon, never
  // eligible for stability. The bypass path sees v2 throughout.
  ClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 77;
  cfg.faust.dummy_read_period = 0;
  cfg.faust.probe_check_period = 0;
  Cluster cluster(cfg);
  CacheOptions opts;
  opts.enabled = true;
  opts.ttl = 3'000;
  EvilCacheNode node(kCacheNodeId, cluster.net(), cluster.exec(), cfg.n, opts,
                     EvilCacheNode::Mode::kStaleBeyondTtl);
  kv::KvClient writer(cluster.client(1));
  kv::KvClient reader(cluster.client(2));
  CacheClient hop(2, kCacheNodeId, cfg.n, cluster.sigs(), cfg.faust.data_digest,
                  cluster.net(), cluster.exec(), opts.lookup_timeout);
  reader.attach_cache(&hop);

  const auto drive = [&](const bool& done) {
    std::size_t steps = 0;
    while (!done && steps < 2'000'000 && cluster.sched().step()) ++steps;
  };
  bool ok = false;
  writer.put("k", "v1", [&](Timestamp) { ok = true; });
  drive(ok);
  cluster.run_for(100);
  bool read1 = false;
  reader.get_ex("k", false,
                [&](std::optional<kv::KvEntry> e, Timestamp, const kv::ReadOrigin&) {
                  ASSERT_TRUE(e.has_value());
                  read1 = true;
                });
  drive(read1);
  cluster.run_for(100);  // read-through fill lands: cache holds v1

  ok = false;
  writer.put("k", "v2", [&](Timestamp) { ok = true; });  // no push fill (no hop)
  drive(ok);
  cluster.run_for(10'000);  // way past the TTL an honest node would honour

  Timestamp fresh_ts = 0;
  bool fresh = false;
  reader.get_ex("k", /*bypass_cache=*/true,
                [&](std::optional<kv::KvEntry> e, Timestamp t, const kv::ReadOrigin&) {
                  ASSERT_TRUE(e.has_value());
                  EXPECT_EQ(e->value, "v2");
                  fresh_ts = t;
                  fresh = true;
                });
  drive(fresh);

  bool read2 = false;
  reader.get_ex("k", false,
                [&](std::optional<kv::KvEntry> e, Timestamp t, const kv::ReadOrigin& o) {
                  ASSERT_TRUE(e.has_value());
                  if (o.cached) {
                    // Served stale: content is authentic v1, and both the
                    // snapshot timestamp and as_of date it BEFORE v2.
                    EXPECT_EQ(e->value, "v1");
                    EXPECT_GT(o.as_of, 0u);
                    EXPECT_LT(t, fresh_ts);
                  } else {
                    EXPECT_EQ(e->value, "v2");
                  }
                  read2 = true;
                });
  drive(read2);
  EXPECT_EQ(node.expirations(), 0u) << "the evil node never expires";
  EXPECT_FALSE(cluster.any_failed());
}

TEST(EvilCache, FrozenFillsDegradeToAMissMachine) {
  EvilRig rig(EvilCacheNode::Mode::kFreezeFills);
  rig.put(1, "k", "v1");
  EXPECT_EQ(rig.node->fills_accepted(), 0u);
  for (int round = 0; round < 3; ++round) {
    const EvilRig::Got got = rig.get(2, "k");
    ASSERT_TRUE(got.completed);
    ASSERT_TRUE(got.entry.has_value());
    EXPECT_EQ(got.entry->value, "v1");
    EXPECT_FALSE(got.origin.cached) << "nothing is ever cached, so nothing is served";
  }
  EXPECT_EQ(rig.node->hits(), 0u);
  EXPECT_GT(rig.hop(2).sections_missed(), 0u);
  EXPECT_FALSE(rig.cluster->any_failed());
}

TEST(EvilCache, DeadCacheNodeTimesOutIntoFallback) {
  // No node at all under kCacheNodeId: every lookup waits out the timer,
  // scores a miss, and the engine serves the read. Liveness is bounded by
  // the lookup timeout, correctness is untouched.
  ClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 31;
  cfg.faust.dummy_read_period = 0;
  cfg.faust.probe_check_period = 0;
  Cluster cluster(cfg);
  kv::KvClient writer(cluster.client(1));
  kv::KvClient reader(cluster.client(2));
  CacheClient hop(2, kCacheNodeId, cfg.n, cluster.sigs(), cfg.faust.data_digest,
                  cluster.net(), cluster.exec(), /*lookup_timeout=*/500);
  reader.attach_cache(&hop);

  const auto drive = [&](const bool& done) {
    std::size_t steps = 0;
    while (!done && steps < 2'000'000 && cluster.sched().step()) ++steps;
  };
  bool ok = false;
  writer.put("k", "v", [&](Timestamp) { ok = true; });
  drive(ok);
  bool read = false;
  reader.get_ex("k", false,
                [&](std::optional<kv::KvEntry> e, Timestamp, const kv::ReadOrigin& o) {
                  ASSERT_TRUE(e.has_value());
                  EXPECT_EQ(e->value, "v");
                  EXPECT_FALSE(o.cached);
                  read = true;
                });
  drive(read);
  ASSERT_TRUE(read);
  EXPECT_GE(hop.timeouts(), 1u);
  EXPECT_FALSE(cluster.any_failed());
}

}  // namespace
}  // namespace faust::adversary
