// D8 edge-cache tier semantics: wire codec hardening, TTL expiry, LRU
// arena eviction, negative-entry invalidation, the O(1) unchanged fast
// path, writer push fills, surfaced staleness, and the deltas×cache 2×2
// differential (the cache is pure performance — bypass-cache merged
// views are byte-identical across every tuning × cache combination).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/store.h"
#include "cache/cache_client.h"
#include "cache/cache_node.h"
#include "cache/cache_wire.h"
#include "faust/cluster.h"
#include "kvstore/kv_client.h"

namespace faust::cache {
namespace {

// --- Wire codec round-trips and hardening ----------------------------------

crypto::Hash test_hash(std::uint8_t fill) {
  crypto::Hash h{};
  h.fill(fill);
  return h;
}

TEST(CacheWire, GetRoundTrip) {
  GetMessage m;
  m.req_id = 77;
  m.bases = {std::nullopt, test_hash(0xAB), std::nullopt};
  const Bytes enc = encode_get(m);
  const auto dec = decode_get(enc);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->req_id, 77u);
  ASSERT_EQ(dec->bases.size(), 3u);
  EXPECT_FALSE(dec->bases[0].has_value());
  ASSERT_TRUE(dec->bases[1].has_value());
  EXPECT_EQ(*dec->bases[1], test_hash(0xAB));
}

TEST(CacheWire, ReplyRoundTrip) {
  std::vector<OutSection> sections(3);
  sections[0].status = SectionStatus::kMiss;
  sections[1].status = SectionStatus::kHit;
  sections[1].writer_ts = 42;
  sections[1].digest = test_hash(0x01);
  sections[1].sig = Bytes{1, 2, 3};
  sections[1].value = std::make_shared<const Bytes>(Bytes{9, 8, 7, 6});
  sections[1].as_of = 40;
  sections[2].status = SectionStatus::kNegative;
  sections[2].as_of = 11;
  const Bytes enc = encode_reply(5, sections);
  const auto dec = decode_reply_view(enc);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->req_id, 5u);
  ASSERT_EQ(dec->sections.size(), 3u);
  EXPECT_EQ(dec->sections[0].status, SectionStatus::kMiss);
  EXPECT_EQ(dec->sections[1].status, SectionStatus::kHit);
  EXPECT_EQ(dec->sections[1].writer_ts, 42u);
  EXPECT_EQ(dec->sections[1].digest, test_hash(0x01));
  EXPECT_EQ(Bytes(dec->sections[1].sig.begin(), dec->sections[1].sig.end()),
            (Bytes{1, 2, 3}));
  EXPECT_EQ(Bytes(dec->sections[1].value.begin(), dec->sections[1].value.end()),
            (Bytes{9, 8, 7, 6}));
  EXPECT_EQ(dec->sections[1].as_of, 40u);
  EXPECT_EQ(dec->sections[2].status, SectionStatus::kNegative);
  EXPECT_EQ(dec->sections[2].as_of, 11u);
}

TEST(CacheWire, FillRoundTrip) {
  std::vector<FillSection> fills(2);
  fills[0].writer = 2;
  fills[0].present = true;
  fills[0].writer_ts = 9;
  fills[0].digest = test_hash(0x33);
  fills[0].sig = Bytes{4, 5};
  fills[0].value = Bytes{1, 1, 2, 3, 5};
  fills[0].as_of = 9;
  fills[1].writer = 3;
  fills[1].present = false;
  fills[1].as_of = 4;
  const Bytes enc = encode_fill(fills);
  const auto dec = decode_fill_view(enc);
  ASSERT_TRUE(dec.has_value());
  ASSERT_EQ(dec->sections.size(), 2u);
  EXPECT_EQ(dec->sections[0].writer, 2);
  EXPECT_TRUE(dec->sections[0].present);
  EXPECT_EQ(dec->sections[0].writer_ts, 9u);
  EXPECT_EQ(Bytes(dec->sections[0].value.begin(), dec->sections[0].value.end()),
            (Bytes{1, 1, 2, 3, 5}));
  EXPECT_FALSE(dec->sections[1].present);
  EXPECT_EQ(dec->sections[1].as_of, 4u);
}

TEST(CacheWire, MalformedInputsAreRejected) {
  EXPECT_FALSE(decode_get(BytesView()).has_value());
  EXPECT_FALSE(decode_reply_view(BytesView()).has_value());
  EXPECT_FALSE(decode_fill_view(BytesView()).has_value());

  GetMessage m;
  m.req_id = 1;
  m.bases = {test_hash(0x01)};
  Bytes enc = encode_get(m);
  // Wrong leading tag.
  Bytes wrong = enc;
  wrong[0] = 0xEE;
  EXPECT_FALSE(decode_get(wrong).has_value());
  // Truncations at every prefix length must fail, never crash or accept.
  for (std::size_t len = 1; len < enc.size(); ++len) {
    EXPECT_FALSE(decode_get(BytesView(enc.data(), len)).has_value()) << len;
  }
  // Trailing garbage.
  enc.push_back(0x00);
  EXPECT_FALSE(decode_get(enc).has_value());

  std::vector<OutSection> sections(1);
  sections[0].status = SectionStatus::kHit;
  sections[0].value = std::make_shared<const Bytes>(Bytes{1, 2, 3});
  Bytes reply = encode_reply(2, sections);
  for (std::size_t len = 1; len < reply.size(); ++len) {
    EXPECT_FALSE(decode_reply_view(BytesView(reply.data(), len)).has_value()) << len;
  }
}

// --- Cache semantics against a live deployment -----------------------------

struct CacheRig {
  ClusterConfig cfg;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<CacheNode> node;
  std::vector<std::unique_ptr<kv::KvClient>> kv;
  std::vector<std::unique_ptr<CacheClient>> hops;

  explicit CacheRig(std::uint64_t seed, CacheOptions copts = make_opts(),
                    ustor::DigestMode digest = ustor::DigestMode::kChunked, int n = 3) {
    cfg.n = n;
    cfg.seed = seed;
    cfg.faust.dummy_read_period = 0;
    cfg.faust.probe_check_period = 0;
    cfg.faust.data_digest = digest;
    cluster = std::make_unique<Cluster>(cfg);
    node = std::make_unique<CacheNode>(kCacheNodeId, cluster->net(), cluster->exec(), n,
                                       copts);
    for (ClientId i = 1; i <= n; ++i) {
      kv.push_back(std::make_unique<kv::KvClient>(cluster->client(i)));
      hops.push_back(std::make_unique<CacheClient>(
          i, kCacheNodeId, n, cluster->sigs(), cfg.faust.data_digest, cluster->net(),
          cluster->exec(), copts.lookup_timeout));
      kv.back()->attach_cache(hops.back().get());
    }
  }

  static CacheOptions make_opts() {
    CacheOptions o;
    o.enabled = true;
    return o;
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
    settle();
  }

  struct Got {
    std::optional<kv::KvEntry> entry;
    Timestamp ts = 0;
    kv::ReadOrigin origin;
  };

  Got get(ClientId i, const std::string& k, bool bypass = false) {
    bool done = false;
    Got out;
    client(i).get_ex(k, bypass,
                     [&](std::optional<kv::KvEntry> e, Timestamp t,
                         const kv::ReadOrigin& origin) {
                       out.entry = std::move(e);
                       out.ts = t;
                       out.origin = origin;
                       done = true;
                     });
    drive(done);
    EXPECT_TRUE(done);
    settle();
    return out;
  }

  std::map<std::string, kv::KvEntry> list(ClientId i, bool bypass) {
    bool done = false;
    std::map<std::string, kv::KvEntry> out;
    client(i).list_ex(bypass, [&](const std::map<std::string, kv::KvEntry>& m, Timestamp,
                                  const kv::ReadOrigin&) {
      out = m;
      done = true;
    });
    drive(done);
    EXPECT_TRUE(done);
    settle();
    return out;
  }

  /// Lets fire-and-forget fills (and any probe traffic) land.
  void settle(sim::Time d = 100) { cluster->run_for(d); }
};

TEST(CacheSemantics, ReadThroughFillServesNextSnapshot) {
  CacheRig rig(21);
  rig.put(1, "k", "v1");

  // First reader snapshot: push fill from the writer may already hold
  // X_1, the reader's own and third slots fill negatively on read-through.
  const CacheRig::Got first = rig.get(2, "k");
  ASSERT_TRUE(first.entry.has_value());
  EXPECT_EQ(first.entry->value, "v1");

  // Second snapshot: every register resolves at the cache — no engine
  // contact at all — and the provenance is surfaced.
  const std::uint64_t engine_before = rig.client(2).registers_engine_read();
  const CacheRig::Got second = rig.get(2, "k");
  ASSERT_TRUE(second.entry.has_value());
  EXPECT_EQ(second.entry->value, "v1");
  EXPECT_TRUE(second.origin.cached);
  EXPECT_GT(second.origin.as_of, 0u);
  EXPECT_EQ(rig.client(2).registers_engine_read(), engine_before)
      << "a fully cached snapshot issues no register reads";
  EXPECT_GE(rig.client(2).snapshots_cached(), 1u);
  EXPECT_EQ(rig.hop(2).sections_rejected(), 0u);
}

TEST(CacheSemantics, WriterPushFillPrimesTheCacheWithoutAnyRead) {
  CacheRig rig(22);
  EXPECT_FALSE(rig.node->holds(1));
  rig.put(1, "k", "v1");
  EXPECT_TRUE(rig.node->holds(1)) << "publish must push-fill the writer's register";
  EXPECT_GE(rig.client(1).cache_push_fills(), 1u);
  EXPECT_GE(rig.node->fills_accepted(), 1u);

  // A fresh reader's first snapshot is already served X_1 from the cache.
  const CacheRig::Got got = rig.get(2, "k");
  ASSERT_TRUE(got.entry.has_value());
  EXPECT_EQ(got.entry->value, "v1");
  EXPECT_TRUE(got.origin.cached);
  EXPECT_GE(rig.hop(2).sections_served(), 1u);
}

TEST(CacheSemantics, UnchangedFastPathShipsNoBytes) {
  CacheRig rig(23);
  rig.put(1, "k", std::string(2'000, 'x'));
  (void)rig.get(2, "k");  // fills cache + the reader's decode memo

  const std::uint64_t unchanged_before = rig.hop(2).sections_unchanged();
  const CacheRig::Got again = rig.get(2, "k");
  ASSERT_TRUE(again.entry.has_value());
  EXPECT_GT(rig.hop(2).sections_unchanged(), unchanged_before)
      << "a repeat lookup advertising the verified base digest must be "
         "answered with the O(1) unchanged token, not the 2KB value";
  EXPECT_GT(rig.node->unchanged_hits(), 0u);
}

TEST(CacheSemantics, TtlExpiryFallsBackToTheEngine) {
  CacheOptions opts = CacheRig::make_opts();
  opts.ttl = 3'000;
  CacheRig rig(24, opts);
  rig.put(1, "k", "v1");
  (void)rig.get(2, "k");
  ASSERT_TRUE(rig.node->holds(1));

  rig.cluster->run_for(10'000);  // well past the TTL
  EXPECT_FALSE(rig.node->holds(1)) << "expired entries read as absent";

  const std::uint64_t engine_before = rig.client(2).registers_engine_read();
  const CacheRig::Got got = rig.get(2, "k");
  ASSERT_TRUE(got.entry.has_value());
  EXPECT_EQ(got.entry->value, "v1");
  EXPECT_GT(rig.node->expirations(), 0u);
  EXPECT_GT(rig.client(2).registers_engine_read(), engine_before)
      << "expiry must force engine reads (which re-fill the cache)";
  EXPECT_TRUE(rig.node->holds(1)) << "the fallback read-through re-fills";
}

TEST(CacheSemantics, NegativeEntryInvalidatedByLaterPut) {
  CacheRig rig(25);
  // Read before any write: all n registers fill negatively.
  const CacheRig::Got empty = rig.get(2, "k");
  EXPECT_FALSE(empty.entry.has_value());
  ASSERT_TRUE(rig.node->holds(1)) << "negative entry for the unwritten register";

  // The later put's push fill must displace the negative (⊥ → written is
  // the only legal direction).
  rig.put(1, "k", "v1");
  const CacheRig::Got got = rig.get(2, "k");
  ASSERT_TRUE(got.entry.has_value());
  EXPECT_EQ(got.entry->value, "v1");

  // And a negative can never displace present content: replay a negative
  // fill for the (now written) register 1 and re-read.
  std::vector<FillSection> bogus(1);
  bogus[0].writer = 1;
  bogus[0].present = false;
  bogus[0].as_of = 1'000'000'000;
  rig.hop(2).fill(std::move(bogus));
  rig.settle();
  const std::uint64_t rejected_before = rig.node->fills_rejected();
  EXPECT_GT(rig.node->fills_rejected(), 0u);
  (void)rejected_before;
  const CacheRig::Got still = rig.get(3, "k");
  ASSERT_TRUE(still.entry.has_value());
  EXPECT_EQ(still.entry->value, "v1");
}

TEST(CacheSemantics, LruEvictionKeepsTheArenaBounded) {
  CacheOptions opts = CacheRig::make_opts();
  opts.arena_bytes = 600;  // fits ~one 512-byte partition
  CacheRig rig(26, opts);
  rig.put(1, "a", std::string(512, '1'));
  rig.put(2, "b", std::string(512, '2'));
  rig.put(3, "c", std::string(512, '3'));
  EXPECT_GT(rig.node->evictions(), 0u);
  EXPECT_LE(rig.node->arena_used(), opts.arena_bytes);

  // Reads still serve correct values — evicted slots just miss through.
  for (const auto& [key, want] : std::map<std::string, char>{
           {"a", '1'}, {"b", '2'}, {"c", '3'}}) {
    const CacheRig::Got got = rig.get(1, key);
    ASSERT_TRUE(got.entry.has_value()) << key;
    EXPECT_EQ(got.entry->value, std::string(512, want)) << key;
  }
}

TEST(CacheSemantics, StaleWithinTtlIsSurfacedNotHidden) {
  // Only the READER gets a cache hop: the writer's v2 publish sends no
  // push fill, so the cache legitimately holds v1 until TTL expiry. The
  // cached read must surface its provenance (cached + as_of) rather than
  // masquerade as fresh — and the bypass path must see v2 immediately.
  ClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 27;
  cfg.faust.dummy_read_period = 0;
  cfg.faust.probe_check_period = 0;
  Cluster cluster(cfg);
  CacheOptions opts = CacheRig::make_opts();
  CacheNode node(kCacheNodeId, cluster.net(), cluster.exec(), cfg.n, opts);
  kv::KvClient writer(cluster.client(1));
  kv::KvClient reader(cluster.client(2));
  CacheClient hop(2, kCacheNodeId, cfg.n, cluster.sigs(), cfg.faust.data_digest,
                  cluster.net(), cluster.exec(), opts.lookup_timeout);
  reader.attach_cache(&hop);

  const auto drive = [&](const bool& done) {
    std::size_t steps = 0;
    while (!done && steps < 2'000'000 && cluster.sched().step()) ++steps;
  };
  bool put_done = false;
  writer.put("k", "v1", [&](Timestamp) { put_done = true; });
  drive(put_done);
  cluster.run_for(100);

  bool got1 = false;
  reader.get_ex("k", false, [&](std::optional<kv::KvEntry> e, Timestamp,
                                const kv::ReadOrigin&) {
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->value, "v1");
    got1 = true;
  });
  drive(got1);
  cluster.run_for(100);  // read-through fill lands

  put_done = false;
  writer.put("k", "v2", [&](Timestamp) { put_done = true; });
  drive(put_done);
  cluster.run_for(100);

  bool got2 = false;
  Timestamp fresh_ts = 0;
  reader.get_ex("k", /*bypass_cache=*/true,
                [&](std::optional<kv::KvEntry> e, Timestamp t, const kv::ReadOrigin& o) {
                  ASSERT_TRUE(e.has_value());
                  EXPECT_EQ(e->value, "v2") << "bypass is the authoritative view";
                  EXPECT_FALSE(o.cached);
                  fresh_ts = t;
                  got2 = true;
                });
  drive(got2);

  bool got3 = false;
  reader.get_ex("k", false,
                [&](std::optional<kv::KvEntry> e, Timestamp t, const kv::ReadOrigin& o) {
                  ASSERT_TRUE(e.has_value());
                  if (o.cached && t < fresh_ts) {
                    // The stale window: v1 served, but as_of honestly dates it.
                    EXPECT_EQ(e->value, "v1");
                    EXPECT_GT(o.as_of, 0u);
                    EXPECT_LT(o.as_of, fresh_ts);
                  } else {
                    EXPECT_EQ(e->value, "v2");
                  }
                  got3 = true;
                });
  drive(got3);
  EXPECT_FALSE(cluster.any_failed());
}

// --- api::Store provenance + stability conservatism -------------------------

TEST(CacheStore, CachedGetSurfacesOriginAndIsNeverStable) {
  ClusterConfig cfg;
  cfg.n = 3;
  cfg.seed = 28;
  cfg.faust.dummy_read_period = 0;
  cfg.faust.probe_check_period = 0;
  cfg.cache.enabled = true;  // Cluster owns the node; the store attaches hops
  Cluster cluster(cfg);
  auto s1 = api::open_store(cluster, 1);
  auto s2 = api::open_store(cluster, 2);

  ASSERT_GT(s1->put("k", "v").settle().ts, 0u);
  cluster.run_for(100);

  (void)s2->get("k").settle();  // read-through fill
  cluster.run_for(100);
  const api::GetResult g = s2->get("k").settle();
  ASSERT_TRUE(g.entry.has_value());
  EXPECT_EQ(g.entry->value, "v");
  EXPECT_TRUE(g.cached) << "second read must be cache-served end to end";
  EXPECT_GT(g.as_of, 0u);
  EXPECT_FALSE(g.stable) << "cache-served reads are never stability-eligible";
  EXPECT_FALSE(s2->stable(g)) << "even after cuts advance, cached results stay ineligible";

  // The authoritative engine path is untouched: a batch whose list op
  // bypasses nothing still reads correctly through the cache tier.
  const api::ListResult all = s2->list().settle();
  ASSERT_TRUE(all.complete);
  ASSERT_TRUE(all.entries.count("k"));
  EXPECT_EQ(all.entries.at("k").value, "v");
}

// --- The digest mode × cache differential (2×2, byte-identical views) -------

TEST(CacheDifferential, DigestModeAndCacheAreInvisibleInTheMergedView) {
  // Same seeded op script under {kChunked, kFlat} × {cache, no-cache}:
  // the bypass-cache merged views (and entry-for-entry winners) must be
  // IDENTICAL — the cache and the delta wire are performance, never
  // semantics.
  const auto run = [](bool with_cache, ustor::DigestMode digest) {
    CacheOptions opts = CacheRig::make_opts();
    opts.enabled = with_cache;
    CacheRig rig(29, opts, digest);
    if (!with_cache) {
      for (auto& c : rig.kv) c->attach_cache(nullptr);
    }
    const char* const keys[] = {"alpha", "beta", "gamma", "delta"};
    for (int round = 0; round < 4; ++round) {
      for (ClientId w = 1; w <= 3; ++w) {
        rig.put(w, keys[(round + w) % 4],
                "r" + std::to_string(round) + "w" + std::to_string(w));
        // Interleave cached reads so the cache actually serves traffic.
        (void)rig.get(static_cast<ClientId>(1 + (round + w) % 3), keys[w % 4]);
      }
    }
    rig.put(2, "beta", "final");
    bool erased = false;
    rig.client(3).erase("gamma", [&](Timestamp) { erased = true; });
    rig.drive(erased);
    rig.settle();
    return rig.list(1, /*bypass=*/true);
  };

  const auto base = run(false, ustor::DigestMode::kFlat);
  EXPECT_EQ(run(false, ustor::DigestMode::kChunked), base);
  EXPECT_EQ(run(true, ustor::DigestMode::kFlat), base);
  EXPECT_EQ(run(true, ustor::DigestMode::kChunked), base);
  ASSERT_FALSE(base.empty());
  ASSERT_TRUE(base.count("beta"));
  EXPECT_EQ(base.at("beta").value, "final");
}

}  // namespace
}  // namespace faust::cache
