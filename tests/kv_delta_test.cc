// O(change) KV machinery: incremental partition encoding, version-keyed
// decode memos and the merged-view cache must be pure performance —
// publications byte-identical to encode_partition() of an in-memory
// model, merged views and stability cuts identical across the kChunked
// and kFlat digest modes — and must never weaken the Byzantine story: a tampered or replayed partition is rejected by the
// FAUST/USTOR checks BEFORE any memo is consulted (the memos are keyed
// only by verified digests).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/tamper_server.h"
#include "api/store.h"
#include "common/rng.h"
#include "faust/cluster.h"
#include "kvstore/kv_client.h"

namespace faust::kv {
namespace {

struct Rig {
  Rig(std::uint64_t seed, ustor::DigestMode digest, int n = 3, bool with_server = true) {
    ClusterConfig cfg;
    cfg.n = n;
    cfg.seed = seed;
    cfg.faust.dummy_read_period = 0;
    cfg.faust.probe_check_period = 0;
    cfg.faust.data_digest = digest;
    cfg.with_server = with_server;
    cluster = std::make_unique<Cluster>(cfg);
    for (ClientId i = 1; i <= n; ++i) {
      kv.push_back(std::make_unique<KvClient>(cluster->client(i)));
    }
  }

  KvClient& client(ClientId i) { return *kv[static_cast<std::size_t>(i - 1)]; }

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

  void erase(ClientId i, const std::string& k) {
    bool done = false;
    client(i).erase(k, [&](Timestamp) { done = true; });
    drive(done);
    ASSERT_TRUE(done);
  }

  /// Returns false iff the op hung (e.g. the client failed mid-read).
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

  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<KvClient>> kv;
};

// --- Incremental encoding --------------------------------------------------

TEST(IncrementalEncoding, SplicedBufferAlwaysEqualsFullReencode) {
  // Seeded random workload of puts (fresh keys, same-size overwrites,
  // size-changing overwrites), erases (first/middle/last), and batches;
  // after every op the maintained buffer must equal a from-scratch
  // canonical encoding — splices are invisible.
  Rig rig(11, ustor::DigestMode::kChunked);
  Rng rng(7);
  std::vector<std::string> keys;
  for (int op = 0; op < 120; ++op) {
    const std::size_t kind = rng.next_below(10);
    if (kind < 6 || keys.empty()) {  // put (maybe fresh)
      std::string key;
      if (keys.empty() || rng.next_below(2) == 0) {
        key = "key-" + std::to_string(rng.next_below(40));
        keys.push_back(key);
      } else {
        key = keys[rng.next_below(keys.size())];
      }
      rig.put(1, key, std::string(1 + rng.next_below(40), 'x'));
    } else if (kind < 8) {  // erase (often present, sometimes absent)
      rig.erase(1, keys[rng.next_below(keys.size())]);
    } else {  // coalesced batch, one publication
      std::vector<KvClient::SeqChange> batch;
      std::uint64_t seq = rig.client(1).put_seq();
      for (int b = 0; b < 3; ++b) {
        batch.push_back(KvClient::SeqChange{"batch-" + std::to_string(rng.next_below(10)),
                                            std::string(1 + rng.next_below(20), 'y'), ++seq});
      }
      bool done = false;
      rig.client(1).apply_with_seqs(batch, [&](Timestamp) { done = true; });
      rig.drive(done);
      ASSERT_TRUE(done);
    }
    const Bytes fresh = encode_partition(rig.client(1).own_partition());
    const BytesView kept = rig.client(1).encoded_partition();
    ASSERT_EQ(Bytes(kept.begin(), kept.end()), fresh) << "after op " << op;
  }
  // The workload above must have exercised the splice path, not rebuilt.
  EXPECT_GT(rig.client(1).encode_splices(), 100u);
  EXPECT_LE(rig.client(1).encode_rebuilds(), 1u);
}

TEST(IncrementalEncoding, PublishedBytesIdenticalToModelEncoding) {
  // Same ops through a kChunked and a kFlat engine and an in-memory
  // model of writer 2's partition (key -> value, seq; the seq counts puts
  // and effective erases): both engines must keep exactly the canonical
  // encoding of the model (the digest mode changes cost, never bytes).
  Rig chunked(21, ustor::DigestMode::kChunked);
  Rig flat(21, ustor::DigestMode::kFlat);
  std::map<std::string, std::pair<std::string, std::uint64_t>> model;
  std::uint64_t seq = 0;
  Rng rng(3);
  for (int op = 0; op < 40; ++op) {
    const std::string key = "k" + std::to_string(rng.next_below(12));
    if (rng.next_below(4) == 0) {
      chunked.erase(2, key);
      flat.erase(2, key);
      if (model.erase(key) > 0) ++seq;
    } else {
      const std::string value = "v" + std::to_string(op);
      chunked.put(2, key, value);
      flat.put(2, key, value);
      model[key] = {value, ++seq};
    }
    const Bytes want = encode_map(model);
    const BytesView a = chunked.client(2).encoded_partition();
    const BytesView b = flat.client(2).encoded_partition();
    ASSERT_EQ(Bytes(a.begin(), a.end()), want) << "kChunked after op " << op;
    ASSERT_EQ(Bytes(b.begin(), b.end()), want) << "kFlat after op " << op;
  }
  EXPECT_GT(chunked.client(2).encode_splices(), 0u);
  EXPECT_GT(flat.client(2).encode_splices(), 0u);
}

// --- Decode memos and the merged-view cache --------------------------------

TEST(DecodeMemo, UnchangedSnapshotsSkipDecodeAndMerge) {
  Rig rig(31, ustor::DigestMode::kChunked);
  rig.put(1, "a", "1");
  rig.put(2, "b", "2");
  rig.put(3, "c", "3");

  std::optional<KvEntry> e;
  ASSERT_TRUE(rig.try_get(1, "a", &e));  // cold: fills the memos
  const std::uint64_t hits_after_warm = rig.client(1).decode_memo_hits();
  const std::uint64_t merged_after_warm = rig.client(1).merged_cache_hits();

  for (int round = 1; round <= 5; ++round) {
    std::optional<KvEntry> got;
    ASSERT_TRUE(rig.try_get(1, "b", &got));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->value, "2");
    // Every register read hit the decode memo and the merge was skipped.
    EXPECT_EQ(rig.client(1).decode_memo_hits(), hits_after_warm + 3u * static_cast<unsigned>(round));
    EXPECT_EQ(rig.client(1).merged_cache_hits(), merged_after_warm + static_cast<unsigned>(round));
  }
}

TEST(DecodeMemo, WriteInvalidatesExactlyTheChangedPartition) {
  Rig rig(32, ustor::DigestMode::kChunked);
  rig.put(1, "a", "1");
  rig.put(2, "b", "2");
  rig.put(3, "c", "3");
  std::optional<KvEntry> e;
  ASSERT_TRUE(rig.try_get(1, "a", &e));  // warm

  rig.put(3, "c", "3-new");  // one partition changes

  const std::uint64_t misses_before = rig.client(1).decode_memo_misses();
  std::optional<KvEntry> got;
  ASSERT_TRUE(rig.try_get(1, "c", &got));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->value, "3-new") << "memo must never serve stale content";
  EXPECT_EQ(rig.client(1).decode_memo_misses(), misses_before + 1u)
      << "only the rewritten partition re-decodes";

  // And the view is exactly the (seq, writer) merge of the state written.
  const std::map<std::string, KvEntry> model = {
      {"a", KvEntry{"1", 1, 1}}, {"b", KvEntry{"2", 2, 1}}, {"c", KvEntry{"3-new", 3, 2}}};
  EXPECT_EQ(rig.list(1), model);
}

TEST(DecodeMemo, ViewsAndStabilityCutsIdenticalAcrossDigestModes) {
  // The acceptance pin: a kChunked deployment (delta wire) and a kFlat
  // one (full-value wire) must produce identical winners AND identical
  // stability cuts. Same cluster seed + same ops = same message schedule
  // (the digest mode changes message sizes, not counts, and delays are
  // drawn per message), so even the cut vectors match exactly.
  Rig chunked(77, ustor::DigestMode::kChunked);
  Rig flat(77, ustor::DigestMode::kFlat);
  Rng rng(5);
  for (int op = 0; op < 60; ++op) {
    const ClientId who = static_cast<ClientId>(1 + rng.next_below(3));
    const std::string key = "key-" + std::to_string(rng.next_below(10));
    const std::size_t kind = rng.next_below(10);
    if (kind < 6) {
      const std::string value = "v" + std::to_string(op);
      chunked.put(who, key, value);
      flat.put(who, key, value);
    } else if (kind < 8) {
      chunked.erase(who, key);
      flat.erase(who, key);
    } else {
      std::optional<KvEntry> a, b;
      ASSERT_TRUE(chunked.try_get(who, key, &a));
      ASSERT_TRUE(flat.try_get(who, key, &b));
      ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
      if (a.has_value()) {
        EXPECT_EQ(a->value, b->value);
        EXPECT_EQ(a->writer, b->writer);
        EXPECT_EQ(a->seq, b->seq);
      }
    }
  }
  for (ClientId i = 1; i <= 3; ++i) {
    EXPECT_EQ(chunked.list(i), flat.list(i)) << "reader " << i;
    EXPECT_EQ(chunked.cluster->client(i).stability_cut(),
              flat.cluster->client(i).stability_cut())
        << "client " << i;
    EXPECT_EQ(chunked.cluster->client(i).fully_stable_timestamp(),
              flat.cluster->client(i).fully_stable_timestamp());
  }
  EXPECT_GT(chunked.client(1).decode_memo_hits() + chunked.client(2).decode_memo_hits() +
                chunked.client(3).decode_memo_hits(),
            0u)
      << "the comparison must actually exercise the memo path";
}

// --- Byzantine regressions -------------------------------------------------

TEST(DecodeMemoByzantine, TamperedPartitionUnderReusedVersionIsRejectedNotServed) {
  // The server substitutes a forged partition while keeping the genuine
  // DATA signature (adversary::Tamper::kValueFreshSig): the USTOR line-50
  // check fails BEFORE the KV layer sees anything — the decode memo is
  // keyed only by verified digests, so it is neither consulted nor
  // polluted, and no stale or forged view is ever delivered.
  Rig rig(41, ustor::DigestMode::kChunked, /*n=*/3, /*with_server=*/false);
  // The victim (client 2) will fire on its 4th op: gets cost 3 reads, so
  // that is the first read of its SECOND get — after the memos are warm.
  adversary::TamperServer server(3, rig.cluster->net(), adversary::Tamper::kValueFreshSig,
                                 /*victim=*/2, /*fire_on_op=*/4);

  rig.put(1, "k", "genuine");
  std::optional<KvEntry> warm;
  ASSERT_TRUE(rig.try_get(2, "k", &warm));
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->value, "genuine");
  const std::uint64_t hits_before = rig.client(2).decode_memo_hits();

  std::optional<KvEntry> out;
  const bool completed = rig.try_get(2, "k", &out);
  EXPECT_TRUE(server.fired());
  EXPECT_FALSE(completed) << "a get over tampered bytes must not complete";
  EXPECT_TRUE(rig.cluster->client(2).failed()) << "fail_i must fire";
  EXPECT_EQ(rig.client(2).decode_memo_hits(), hits_before)
      << "the unverified read must not touch the memo";
}

TEST(DecodeMemoByzantine, StaleReplayUnderOldVersionIsRejectedNotServed) {
  // The replay attack (Tamper::kStaleTimestamp): old value with its
  // perfectly valid old DATA signature. The freshness checks (lines
  // 51–52) fire before the memo could replay the old decode — holding a
  // memoized copy of exactly that stale content must not weaken detection.
  Rig rig(42, ustor::DigestMode::kChunked, /*n=*/3, /*with_server=*/false);
  adversary::TamperServer server(3, rig.cluster->net(), adversary::Tamper::kStaleTimestamp,
                                 /*victim=*/2, /*fire_on_op=*/7);

  rig.put(1, "k", "old-value");
  std::optional<KvEntry> seen;
  ASSERT_TRUE(rig.try_get(2, "k", &seen));  // memoizes the OLD partition
  EXPECT_EQ(seen->value, "old-value");
  rig.put(1, "k", "new-value");
  ASSERT_TRUE(rig.try_get(2, "k", &seen));  // sees and memoizes the new one
  EXPECT_EQ(seen->value, "new-value");

  std::optional<KvEntry> out;
  const bool completed = rig.try_get(2, "k", &out);  // replay fires here
  EXPECT_TRUE(server.fired());
  EXPECT_FALSE(completed) << "the replayed snapshot must not complete";
  EXPECT_TRUE(rig.cluster->client(2).failed());
}

// --- The unbatched Store::get path -----------------------------------------

TEST(StoreSingleGet, LoneGetMatchesBatchOfOneAndServesFromOneSnapshot) {
  // A lone Store::get IS a batch of one read point: same snapshot
  // machinery, same result — and through the engine's merged-view memo an
  // unchanged snapshot is served without decoding or copying.
  ClusterConfig cfg;
  cfg.n = 3;
  cfg.seed = 51;
  cfg.faust.dummy_read_period = 0;
  cfg.faust.probe_check_period = 0;
  Cluster cluster(cfg);
  auto writer = api::open_store(cluster, 1);
  auto reader = api::open_store(cluster, 2);
  ASSERT_GT(writer->put("key", "value").settle().ts, 0u);

  const api::GetResult lone = reader->get("key").settle();
  std::vector<api::Op> batch;
  batch.push_back(api::Op::get("key"));
  const api::BatchResult b = reader->apply(std::move(batch)).settle();
  ASSERT_TRUE(b.ok);
  ASSERT_TRUE(lone.entry.has_value());
  ASSERT_TRUE(b.results[0].get.entry.has_value());
  EXPECT_EQ(lone.entry->value, b.results[0].get.entry->value);
  EXPECT_EQ(lone.entry->writer, b.results[0].get.entry->writer);
  EXPECT_EQ(lone.entry->seq, b.results[0].get.entry->seq);
  EXPECT_FALSE(lone.failed);
  EXPECT_GT(lone.read_ts, 0u);
}

}  // namespace
}  // namespace faust::kv
