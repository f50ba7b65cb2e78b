// D8 edge-cache tier semantics: wire codec hardening, TTL expiry, LRU
// arena eviction, negative-entry invalidation, the O(1) unchanged fast
// path, writer push fills, surfaced staleness, the delta tier (splice
// fills and kDelta sections), and the deltas×cache 2×2 differential (the
// cache is pure performance — bypass-cache merged views are
// byte-identical across every tuning × cache combination).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <span>
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

std::vector<ustor::Splice> test_splices() {
  return {ustor::Splice{3, 2, Bytes{7, 7, 7}}, ustor::Splice{0, 0, Bytes{}},
          ustor::Splice{9, 1, Bytes{1}}};
}

/// A reply whose only section is a kDelta over `splices` (split in two
/// runs, as a node serving two history records would).
Bytes delta_reply(const std::vector<ustor::Splice>& splices) {
  std::vector<OutSection> sections(1);
  sections[0].status = SectionStatus::kDelta;
  sections[0].writer_ts = 42;
  sections[0].digest = test_hash(0x01);
  sections[0].sig = Bytes{1, 2, 3};
  sections[0].as_of = 40;
  sections[0].delta.base_digest = test_hash(0x02);
  sections[0].delta.new_size = 77;
  const std::span<const ustor::Splice> all(splices);
  sections[0].delta.runs = {all.first(1), all.subspan(1)};
  return encode_reply(5, sections);
}

std::vector<FillSection> delta_fill() {
  std::vector<FillSection> fills(1);
  fills[0].writer = 2;
  fills[0].present = true;
  fills[0].writer_ts = 9;
  fills[0].digest = test_hash(0x33);
  fills[0].sig = Bytes{4, 5};
  fills[0].as_of = 9;
  fills[0].delta = true;
  fills[0].base = test_hash(0x44);
  fills[0].new_size = 1'000;
  fills[0].splices = test_splices();
  return fills;
}

void expect_splices(const std::vector<ustor::SpliceView>& got,
                    const std::vector<ustor::Splice>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t q = 0; q < got.size(); ++q) {
    EXPECT_EQ(got[q].offset, want[q].offset);
    EXPECT_EQ(got[q].erase_len, want[q].erase_len);
    EXPECT_EQ(Bytes(got[q].insert.begin(), got[q].insert.end()), want[q].insert);
  }
}

TEST(CacheWire, DeltaSectionRoundTrip) {
  const Bytes enc = delta_reply(test_splices());
  const auto dec = decode_reply_view(enc);
  ASSERT_TRUE(dec.has_value());
  ASSERT_EQ(dec->sections.size(), 1u);
  const ReplySectionView& s = dec->sections[0];
  EXPECT_EQ(s.status, SectionStatus::kDelta);
  EXPECT_EQ(s.writer_ts, 42u);
  EXPECT_EQ(s.digest, test_hash(0x01));
  EXPECT_EQ(Bytes(s.sig.begin(), s.sig.end()), (Bytes{1, 2, 3}));
  EXPECT_EQ(s.base, test_hash(0x02));
  EXPECT_EQ(s.new_size, 77u);
  EXPECT_EQ(s.as_of, 40u);
  expect_splices(s.splices, test_splices());  // the two runs, concatenated
}

TEST(CacheWire, DeltaFillRoundTrip) {
  const Bytes enc = encode_fill(delta_fill());
  const auto dec = decode_fill_view(enc);
  ASSERT_TRUE(dec.has_value());
  ASSERT_EQ(dec->sections.size(), 1u);
  const FillSectionView& s = dec->sections[0];
  EXPECT_EQ(s.writer, 2);
  EXPECT_TRUE(s.present);
  EXPECT_TRUE(s.delta);
  EXPECT_EQ(s.writer_ts, 9u);
  EXPECT_EQ(s.digest, test_hash(0x33));
  EXPECT_EQ(Bytes(s.sig.begin(), s.sig.end()), (Bytes{4, 5}));
  EXPECT_EQ(s.base, test_hash(0x44));
  EXPECT_EQ(s.new_size, 1'000u);
  EXPECT_TRUE(s.value.empty());
  EXPECT_EQ(s.as_of, 9u);
  expect_splices(s.splices, test_splices());
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

  // The delta forms: truncation at every offset fails.
  const Bytes delta = delta_reply(test_splices());
  const Bytes fill = encode_fill(delta_fill());
  for (std::size_t len = 0; len < delta.size(); ++len) {
    EXPECT_FALSE(decode_reply_view(BytesView(delta.data(), len)).has_value()) << len;
  }
  for (std::size_t len = 0; len < fill.size(); ++len) {
    EXPECT_FALSE(decode_fill_view(BytesView(fill.data(), len)).has_value()) << len;
  }
  // Status and fill-form bytes past the last defined one are refused
  // (tag u8, req_id u64, count u32, then the status; tag, count u32,
  // writer u32, then the form).
  Bytes bad_status = delta;
  bad_status[1 + 8 + 4] = static_cast<std::uint8_t>(SectionStatus::kDelta) + 1;
  EXPECT_FALSE(decode_reply_view(bad_status).has_value());
  Bytes bad_form = fill;
  ASSERT_EQ(bad_form[1 + 4 + 4], 2);
  bad_form[1 + 4 + 4] = 3;
  EXPECT_FALSE(decode_fill_view(bad_form).has_value());
  // A splice count the rest of the message cannot hold is refused before
  // anything is reserved: claim 1,000 splices (each at least 20 bytes) in
  // a message with well under 20,000 left.
  const auto claim_splices = [](Bytes b, std::size_t at) {
    EXPECT_EQ(b[at], 3);  // the three test splices
    b[at] = 0xE8;
    b[at + 1] = 0x03;
    return b;
  };
  const std::size_t section_count_at = 1 + 8 + 4 + 1 + 8 + 32 + 4 + 3 + 32 + 8;
  EXPECT_FALSE(decode_reply_view(claim_splices(delta, section_count_at)).has_value());
  const std::size_t fill_count_at = 1 + 4 + 4 + 1 + 8 + 32 + 4 + 2 + 32 + 8;
  EXPECT_FALSE(decode_fill_view(claim_splices(fill, fill_count_at)).has_value());
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

// --- The delta tier: splice fills and kDelta sections -----------------------

std::string key_of(int k) {
  std::string digits = std::to_string(k);
  return "key" + std::string(4 - digits.size(), '0') + digits;
}

/// Writer `w` publishes `count` keys in one (full) publication.
void preload(CacheRig& rig, ClientId w, int count, std::size_t value_len = 24) {
  std::vector<kv::KvClient::SeqChange> changes;
  for (int k = 0; k < count; ++k) {
    changes.push_back({key_of(k), std::string(value_len, static_cast<char>('a' + k % 26)),
                       static_cast<std::uint64_t>(k + 1)});
  }
  bool done = false;
  rig.client(w).apply_with_seqs(changes, [&](Timestamp) { done = true; });
  rig.drive(done);
  ASSERT_TRUE(done);
  rig.settle();
}

TEST(CacheDelta, ChangedPartitionShipsSplicesNotThePartition) {
  CacheRig rig(31);
  preload(rig, 1, 1'000);
  ASSERT_GT(rig.client(1).encoded_partition().size(), 40'000u);
  const CacheRig::Got before = rig.get(2, key_of(500));
  ASSERT_TRUE(before.entry.has_value());

  const net::Network& net = rig.cluster->net();
  const auto tag = [](MsgType t) { return static_cast<std::uint8_t>(t); };
  const std::uint64_t fill0 = net.total_for(tag(MsgType::kFill)).bytes;
  rig.put(1, key_of(500), "changed");
  const std::uint64_t fill_bytes = net.total_for(tag(MsgType::kFill)).bytes - fill0;

  const std::uint64_t reply0 = net.total_for(tag(MsgType::kReply)).bytes;
  const std::uint64_t engine0 = rig.client(2).registers_engine_read();
  const CacheRig::Got after = rig.get(2, key_of(500));
  const std::uint64_t reply_bytes = net.total_for(tag(MsgType::kReply)).bytes - reply0;

  ASSERT_TRUE(after.entry.has_value());
  EXPECT_EQ(after.entry->value, "changed");
  EXPECT_TRUE(after.origin.cached);
  EXPECT_EQ(rig.client(2).registers_engine_read(), engine0) << "served by the cache alone";
  EXPECT_EQ(rig.node->delta_fills(), 1u);
  EXPECT_EQ(rig.hop(2).sections_delta(), 1u);
  EXPECT_EQ(rig.hop(2).sections_rejected(), 0u);
  EXPECT_LT(fill_bytes, 1'024u) << "the push fill must carry splices, not the partition";
  EXPECT_LT(reply_bytes, 1'024u) << "the changed slot must be answered with splices";
}

TEST(CacheDelta, DeltaFillOffTheHeldBaseDropsTheSlotAndAnEngineReadRefillsIt) {
  CacheRig rig(32);
  preload(rig, 1, 50);
  (void)rig.get(2, key_of(1));
  ASSERT_TRUE(rig.node->holds(1));

  // A publication the cache never sees; the next push fill's base is its
  // root, not the one the slot holds.
  rig.client(1).attach_cache(nullptr);
  rig.put(1, key_of(10), "unseen");
  rig.client(1).attach_cache(&rig.hop(1));
  rig.put(1, key_of(11), "next");
  EXPECT_EQ(rig.node->slots_dropped(), 1u);
  EXPECT_EQ(rig.node->delta_fills(), 0u);
  EXPECT_FALSE(rig.node->holds(1)) << "a newer write proves the held slot stale";

  const std::uint64_t engine0 = rig.client(2).registers_engine_read();
  const CacheRig::Got miss = rig.get(2, key_of(11));
  ASSERT_TRUE(miss.entry.has_value());
  EXPECT_EQ(miss.entry->value, "next");
  EXPECT_GT(rig.client(2).registers_engine_read(), engine0);
  EXPECT_TRUE(rig.node->holds(1)) << "the engine read's fill re-seeds the slot in full";

  const std::uint64_t engine1 = rig.client(2).registers_engine_read();
  const CacheRig::Got hit = rig.get(2, key_of(10));
  ASSERT_TRUE(hit.entry.has_value());
  EXPECT_EQ(hit.entry->value, "unseen");
  EXPECT_TRUE(hit.origin.cached);
  EXPECT_EQ(rig.client(2).registers_engine_read(), engine1);
  EXPECT_EQ(rig.hop(2).sections_rejected(), 0u);
}

TEST(CacheDelta, BasesPastTheHistoryOrRunsNoSmallerThanTheValueGetFullHits) {
  {
    // Depth: reader 3 is 8 records behind (delta), reader 2 nine (full).
    CacheRig rig(33);
    preload(rig, 1, 50);
    (void)rig.get(2, key_of(0));
    (void)rig.get(3, key_of(0));
    rig.put(1, key_of(0), "v1");
    (void)rig.get(3, key_of(0));
    for (int v = 2; v <= 9; ++v) rig.put(1, key_of(0), "v" + std::to_string(v));
    EXPECT_EQ(rig.node->delta_fills(), 9u);

    const std::uint64_t deltas = rig.node->delta_hits();
    const std::uint64_t hits = rig.node->hits();
    const CacheRig::Got near = rig.get(3, key_of(0));
    ASSERT_TRUE(near.entry.has_value());
    EXPECT_EQ(near.entry->value, "v9");
    EXPECT_EQ(rig.node->delta_hits(), deltas + 1);
    EXPECT_EQ(rig.node->hits(), hits);

    const CacheRig::Got far = rig.get(2, key_of(0));
    ASSERT_TRUE(far.entry.has_value());
    EXPECT_EQ(far.entry->value, "v9");
    EXPECT_EQ(rig.node->delta_hits(), deltas + 1);
    EXPECT_EQ(rig.node->hits(), hits + 1) << "a base older than 8 records gets the value";
  }
  {
    // Size: a 458-byte partition whose puts each ship ~160 B of splices.
    // Two records behind (~310 B) is a delta, three (~490 B) the value.
    CacheRig rig(34);
    rig.put(1, "a", std::string(300, 'a'));
    (void)rig.get(2, "a");
    rig.put(1, "b", std::string(120, '1'));
    (void)rig.get(3, "a");
    rig.put(1, "b", std::string(120, '2'));
    rig.put(1, "b", std::string(120, '3'));
    EXPECT_EQ(rig.client(1).publish_deltas(), 3u);

    const std::uint64_t deltas = rig.node->delta_hits();
    const std::uint64_t hits = rig.node->hits();
    const CacheRig::Got near = rig.get(3, "b");
    ASSERT_TRUE(near.entry.has_value());
    EXPECT_EQ(near.entry->value, std::string(120, '3'));
    EXPECT_EQ(rig.node->delta_hits(), deltas + 1);

    const CacheRig::Got far = rig.get(2, "b");
    ASSERT_TRUE(far.entry.has_value());
    EXPECT_EQ(far.entry->value, std::string(120, '3'));
    EXPECT_EQ(rig.node->delta_hits(), deltas + 1);
    EXPECT_EQ(rig.node->hits(), hits + 1) << "runs no smaller than the value: ship the value";
  }
}

TEST(CacheDelta, OutOfBoundsSplicesLeaveTheSlotUnchanged) {
  CacheRig rig(35);
  preload(rig, 1, 50);
  (void)rig.get(2, key_of(3));
  const crypto::Hash held =
      ustor::value_digest(ustor::DigestMode::kChunked, rig.client(1).encoded_partition());

  std::vector<FillSection> bogus(1);
  bogus[0].writer = 1;
  bogus[0].present = true;
  bogus[0].writer_ts = 1'000'000;
  bogus[0].digest = test_hash(0x66);
  bogus[0].sig = Bytes{1};
  bogus[0].as_of = 1'000'000;
  bogus[0].delta = true;
  bogus[0].base = held;
  bogus[0].new_size = 5;
  bogus[0].splices = {ustor::Splice{1u << 30, 0, Bytes{1, 2, 3, 4, 5}}};
  const std::uint64_t rejected0 = rig.node->fills_rejected();
  rig.hop(3).fill(std::move(bogus));
  rig.settle();
  EXPECT_EQ(rig.node->fills_rejected(), rejected0 + 1);
  EXPECT_EQ(rig.node->delta_fills(), 0u);
  EXPECT_EQ(rig.node->slots_dropped(), 0u);

  // The slot still holds what reader 2 verified: "unchanged", no engine.
  const std::uint64_t unchanged0 = rig.hop(2).sections_unchanged();
  const std::uint64_t engine0 = rig.client(2).registers_engine_read();
  const CacheRig::Got got = rig.get(2, key_of(3));
  ASSERT_TRUE(got.entry.has_value());
  EXPECT_EQ(got.entry->value, std::string(24, 'd'));
  EXPECT_GT(rig.hop(2).sections_unchanged(), unchanged0);
  EXPECT_EQ(rig.client(2).registers_engine_read(), engine0);
}

TEST(CacheDelta, ClientRebuildsAndVerifiesEveryDeltaSection) {
  // No node: the test answers the client's lookups itself, with kDelta
  // sections built from a real writer's publications.
  ClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 36;
  cfg.faust.dummy_read_period = 0;
  cfg.faust.probe_check_period = 0;
  Cluster cluster(cfg);
  kv::KvClient writer(cluster.client(1));
  CacheClient hop(2, kCacheNodeId, cfg.n, cluster.sigs(), cfg.faust.data_digest, cluster.net(),
                  cluster.exec(), /*lookup_timeout=*/0);
  const auto publish = [&](const std::string& key) {
    Timestamp ts = 0;
    writer.put(key, "value-of-" + key, [&](Timestamp t) { ts = t; });
    std::size_t steps = 0;
    while (ts == 0 && steps < 2'000'000 && cluster.sched().step()) ++steps;
    EXPECT_GT(ts, 0u);
    return ts;
  };
  publish("a");
  const Bytes base(writer.encoded_partition().begin(), writer.encoded_partition().end());
  const Timestamp ts = publish("b");
  const Bytes next(writer.encoded_partition().begin(), writer.encoded_partition().end());
  const BytesView sig = cluster.client(1).last_write_sig();
  const auto digest = [](const Bytes& b) {
    return ustor::value_digest(ustor::DigestMode::kChunked, BytesView(b));
  };

  std::uint64_t req = 0;
  const auto serve = [&](std::vector<ustor::Splice> splices, const crypto::Hash& echoed,
                         std::uint64_t new_size) {
    std::optional<CacheClient::Section> got;
    std::vector<CacheClient::Base> bases(2);
    bases[0] = CacheClient::Base{true, digest(base), [&] { return base; }};
    hop.lookup(std::move(bases), [&](const CacheClient::Result& r) {
      got = r.sections[0];
      if (got->outcome == Outcome::kServed) {
        EXPECT_EQ(Bytes(got->value.begin(), got->value.end()), next);
      }
    });
    std::vector<OutSection> sections(2);
    sections[0].status = SectionStatus::kDelta;
    sections[0].writer_ts = ts;
    sections[0].digest = digest(next);
    sections[0].sig = Bytes(sig.begin(), sig.end());
    sections[0].as_of = ts;
    sections[0].delta.base_digest = echoed;
    sections[0].delta.new_size = new_size;
    sections[0].delta.runs = {std::span<const ustor::Splice>(splices)};
    hop.on_message(kCacheNodeId, encode_reply(++req, sections));
    EXPECT_TRUE(got.has_value());
    return got.has_value() ? got->outcome : Outcome::kMiss;
  };
  const std::vector<ustor::Splice> whole = {ustor::Splice{0, base.size(), next}};

  EXPECT_EQ(serve(whole, digest(base), next.size()), Outcome::kServed);
  EXPECT_EQ(hop.sections_delta(), 1u);
  EXPECT_EQ(serve(whole, digest(next), next.size()), Outcome::kRejected)
      << "an echoed base other than the advertised one";
  EXPECT_EQ(serve({ustor::Splice{base.size() + 1, 0, Bytes{1}}}, digest(base), base.size() + 1),
            Outcome::kRejected)
      << "a splice past the end of the base";
  EXPECT_EQ(serve(whole, digest(base), next.size() + 1), Outcome::kRejected)
      << "a size the runs do not produce";
  std::vector<ustor::Splice> tampered = whole;
  tampered[0].insert.back() ^= 0x01;
  EXPECT_EQ(serve(tampered, digest(base), next.size()), Outcome::kRejected)
      << "runs that rebuild other bytes than the signed ones";
  EXPECT_EQ(hop.sections_delta(), 1u);
  EXPECT_EQ(hop.sections_rejected(), 4u);
  EXPECT_FALSE(cluster.any_failed());
}

TEST(CacheDelta, WritersOwnSlotFollowsItsPublications) {
  // A writer that reads back its own register after each put must not pull
  // its own splices through the cache: its memo already holds the bytes it
  // signed, so the lookup advertises the current digest and the cache
  // answers with the unchanged token.
  CacheRig rig(38);
  for (int round = 0; round < 5; ++round) {
    rig.put(1, key_of(round % 2), "round-" + std::to_string(round));
    const std::uint64_t unchanged0 = rig.hop(1).sections_unchanged();
    const std::uint64_t engine0 = rig.client(1).registers_engine_read();
    const CacheRig::Got got = rig.get(1, key_of(round % 2));
    ASSERT_TRUE(got.entry.has_value());
    EXPECT_EQ(got.entry->value, "round-" + std::to_string(round));
    // Slots 2 and 3 are ⊥ (misses, then negatives): only the own slot can
    // be unchanged.
    EXPECT_EQ(rig.hop(1).sections_unchanged(), unchanged0 + 1u) << "round " << round;
    EXPECT_EQ(rig.hop(1).sections_delta(), 0u) << "round " << round;
    if (round > 0) EXPECT_EQ(rig.client(1).registers_engine_read(), engine0);
  }
  EXPECT_EQ(rig.hop(1).sections_rejected(), 0u);

  // Without a cache the writer's engine read of its own register returns
  // the digest it published: a memo hit, no scan.
  ClusterConfig cfg;
  cfg.n = 3;
  cfg.seed = 39;
  cfg.faust.dummy_read_period = 0;
  cfg.faust.probe_check_period = 0;
  Cluster cluster(cfg);
  kv::KvClient writer(cluster.client(1));
  const auto drive = [&](const bool& done) {
    std::size_t steps = 0;
    while (!done && steps < 2'000'000 && cluster.sched().step()) ++steps;
    ASSERT_TRUE(done);
  };
  for (int round = 0; round < 5; ++round) {
    bool put_done = false;
    writer.put(key_of(round % 2), "round-" + std::to_string(round),
               [&](Timestamp) { put_done = true; });
    drive(put_done);
    const std::uint64_t hits0 = writer.decode_memo_hits();
    bool got_done = false;
    std::optional<kv::KvEntry> got;
    writer.get(key_of(round % 2), [&](std::optional<kv::KvEntry> e, Timestamp) {
      got = std::move(e);
      got_done = true;
    });
    drive(got_done);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->value, "round-" + std::to_string(round));
    EXPECT_EQ(writer.decode_memo_hits(), hits0 + 1u) << "round " << round;
    EXPECT_EQ(writer.decode_memo_misses(), 0u) << "round " << round;
  }
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
  // The delta tier runs exactly where publications are deltas: the
  // kChunked leg with a cache serves kDelta sections and applies delta
  // fills, the kFlat leg does neither.
  std::uint64_t delta_sections = 0;
  std::uint64_t delta_fills = 0;
  const auto run = [&](bool with_cache, ustor::DigestMode digest) {
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
    delta_sections = rig.node->delta_hits();
    delta_fills = rig.node->delta_fills();
    return rig.list(1, /*bypass=*/true);
  };

  const auto base = run(false, ustor::DigestMode::kFlat);
  EXPECT_EQ(run(false, ustor::DigestMode::kChunked), base);
  EXPECT_EQ(run(true, ustor::DigestMode::kFlat), base);
  EXPECT_EQ(delta_sections, 0u);
  EXPECT_EQ(delta_fills, 0u);
  EXPECT_EQ(run(true, ustor::DigestMode::kChunked), base);
  EXPECT_GE(delta_sections, 1u);
  EXPECT_GE(delta_fills, 1u);
  ASSERT_FALSE(base.empty());
  ASSERT_TRUE(base.count("beta"));
  EXPECT_EQ(base.at("beta").value, "final");
}

}  // namespace
}  // namespace faust::cache
