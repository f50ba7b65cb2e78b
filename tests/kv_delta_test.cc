// O(change) KV machinery: incremental partition encoding, digest-keyed
// partition indexes and point gets by binary search must be pure
// performance — publications byte-identical to encode_partition() of an
// in-memory model, every get and list equal to a model, merged views and
// stability cuts identical across the kChunked and kFlat digest modes,
// one validator behind the index and decode_partition — and must never
// weaken the Byzantine story: a tampered or replayed partition is
// rejected by the FAUST/USTOR checks BEFORE any memo is consulted (the
// memos are keyed only by verified digests).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "adversary/tamper_server.h"
#include "api/store.h"
#include "common/rng.h"
#include "faust/cluster.h"
#include "kvstore/kv_client.h"
#include "wire/encoder.h"

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

// --- Decode memos and point gets ------------------------------------------

TEST(DecodeMemo, UnchangedSnapshotsSkipDecodeAndMerge) {
  Rig rig(31, ustor::DigestMode::kChunked);
  rig.put(1, "a", "1");
  rig.put(2, "b", "2");
  rig.put(3, "c", "3");

  std::optional<KvEntry> e;
  ASSERT_TRUE(rig.try_get(1, "a", &e));  // cold: fills the memos
  const std::uint64_t hits_after_warm = rig.client(1).decode_memo_hits();

  for (int round = 1; round <= 5; ++round) {
    std::optional<KvEntry> got;
    ASSERT_TRUE(rig.try_get(1, "b", &got));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->value, "2");
    // Every register read hit the decode memo and no merge ran.
    EXPECT_EQ(rig.client(1).decode_memo_hits(), hits_after_warm + 3u * static_cast<unsigned>(round));
    EXPECT_EQ(rig.client(1).merged_views(), 0u);
  }
  // A changed snapshot is answered by binary searches too; only a list
  // builds the merged view.
  rig.put(2, "b", "2-new");
  std::optional<KvEntry> got;
  ASSERT_TRUE(rig.try_get(1, "b", &got));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->value, "2-new");
  EXPECT_EQ(rig.client(1).merged_views(), 0u) << "gets never build the merged view";
  EXPECT_EQ(rig.list(1).size(), 3u);
  EXPECT_EQ(rig.client(1).merged_views(), 1u);
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

// --- Point gets: a differential against an in-memory model -----------------

/// Every writer's partition as the model holds it: key -> writer -> (value,
/// seq). The merged winner is the largest (seq, writer).
struct PointModel {
  std::map<std::string, std::map<ClientId, std::pair<std::string, std::uint64_t>>> held;
  std::map<ClientId, std::uint64_t> seq;  // each writer's put counter
  bool saw_tie = false;                   // a get's winner shared its seq

  std::optional<KvEntry> get(const std::string& key) {
    const auto it = held.find(key);
    if (it == held.end() || it->second.empty()) return std::nullopt;
    std::optional<KvEntry> best;
    std::size_t at_best_seq = 0;
    for (const auto& [writer, entry] : it->second) {
      if (!best.has_value() || entry.second > best->seq) {
        best = KvEntry{entry.first, writer, entry.second};
        at_best_seq = 1;
      } else if (entry.second == best->seq) {
        best = KvEntry{entry.first, writer, entry.second};  // writers ascend
        ++at_best_seq;
      }
    }
    if (at_best_seq > 1) saw_tie = true;
    return best;
  }

  std::map<std::string, KvEntry> list() {
    std::map<std::string, KvEntry> out;
    for (const auto& [key, writers] : held) {
      if (const auto e = get(key)) out.emplace(key, *e);
    }
    return out;
  }
};

struct PointGetCase {
  ustor::DigestMode digest;
  int keys;
};

class PointGetDifferential : public ::testing::TestWithParam<PointGetCase> {};

TEST_P(PointGetDifferential, EveryGetAndListEqualsTheModel) {
  // Random streams of puts, erases and apply() batches (some with seq
  // ties across writers) against n = 3 writers. Writer 3 stays silent for
  // the first half, so its partition is ⊥; the keyspace is preloaded with
  // keys held by one or two writers, and later writes reach all three.
  const PointGetCase param = GetParam();
  Rig rig(900 + static_cast<std::uint64_t>(param.keys), param.digest);
  PointModel model;
  Rng rng(17 + static_cast<std::uint64_t>(param.keys));
  const auto key_of = [](std::size_t k) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%05zu", k);
    return std::string(buf);
  };
  const auto apply = [&](ClientId w, const std::vector<KvClient::SeqChange>& changes) {
    bool done = false;
    rig.client(w).apply_with_seqs(changes, [&](Timestamp) { done = true; });
    rig.drive(done);
    ASSERT_TRUE(done);
    for (const auto& c : changes) {
      model.seq[w] = std::max(model.seq[w], c.seq);
      if (c.value.has_value()) {
        model.held[c.key][w] = {*c.value, c.seq};
      } else {
        model.held[c.key].erase(w);
      }
    }
  };

  std::set<std::size_t> holder_counts;  // writers holding a key, as seen
  const auto note = [&](const std::string& key) { holder_counts.insert(model.held[key].size()); };
  if (param.keys > 8) {
    // Preload: key k is held by writer 1, writer 2, or both.
    for (ClientId w = 1; w <= 2; ++w) {
      std::vector<KvClient::SeqChange> load;
      std::uint64_t seq = model.seq[w];
      for (std::size_t k = 0; k < static_cast<std::size_t>(param.keys); ++k) {
        const std::size_t holders = k % 3;  // 0: writer 1, 1: writer 2, 2: both
        if ((w == 1 && holders == 1) || (w == 2 && holders == 0)) continue;
        load.push_back({key_of(k), "pre-" + std::to_string(k), ++seq});
      }
      apply(w, load);
    }
    for (std::size_t k = 0; k < 3; ++k) note(key_of(k));
  }

  const auto pick_key = [&] {
    // Half the ops hit a small hot set, so keys gather several writers.
    const std::size_t k = rng.chance(0.5) ? rng.next_below(8)
                                          : rng.next_below(static_cast<std::uint64_t>(param.keys));
    return key_of(k);
  };
  constexpr int kOps = 240;
  std::size_t gets = 0, lists = 0;
  for (int op = 0; op < kOps; ++op) {
    const ClientId writers = op < kOps / 2 ? 2 : 3;
    const ClientId w = static_cast<ClientId>(1 + rng.next_below(writers));
    const std::size_t kind = rng.next_below(20);
    if (kind < 6) {
      const std::string key = pick_key();
      const std::string value = "v" + std::to_string(op);
      rig.put(w, key, value);
      model.held[key][w] = {value, ++model.seq[w]};
      note(key);
    } else if (kind < 8) {
      const std::string key = pick_key();
      rig.erase(w, key);
      if (model.held[key].erase(w) > 0) ++model.seq[w];
      note(key);
    } else if (kind < 10) {
      // A batch of puts and erases under fresh, caller-drawn seqs.
      std::vector<KvClient::SeqChange> batch;
      std::uint64_t seq = model.seq[w];
      for (std::size_t b = 0; b < 1 + rng.next_below(4); ++b) {
        std::optional<std::string> value;
        if (!rng.chance(0.3)) value = "b" + std::to_string(op) + "." + std::to_string(b);
        batch.push_back({pick_key(), value, ++seq});
      }
      apply(w, batch);
      for (const auto& c : batch) note(c.key);
    } else if (kind < 11) {
      // The same key under the same seq from two writers: the larger
      // writer id must win.
      std::uint64_t top = 0;
      for (const auto& [writer, seq] : model.seq) top = std::max(top, seq);
      const std::string key = pick_key();
      const ClientId a = static_cast<ClientId>(1 + rng.next_below(writers));
      const ClientId b = static_cast<ClientId>(1 + (a % writers));
      apply(a, {{key, "tie-a" + std::to_string(op), top + 1}});
      apply(b, {{key, "tie-b" + std::to_string(op), top + 1}});
      note(key);
      std::optional<KvEntry> got;
      ASSERT_TRUE(rig.try_get(a, key, &got)) << "op " << op;
      EXPECT_EQ(got, model.get(key)) << "op " << op << " tie on " << key;
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->writer, std::max(a, b));
    } else if (kind < 19) {
      const ClientId reader = static_cast<ClientId>(1 + rng.next_below(3));
      const std::string key = rng.chance(0.1) ? "absent" : pick_key();
      std::optional<KvEntry> got;
      ASSERT_TRUE(rig.try_get(reader, key, &got)) << "op " << op;
      EXPECT_EQ(got, model.get(key)) << "op " << op << " key " << key << " reader " << reader;
      ++gets;
    } else {
      const ClientId reader = static_cast<ClientId>(1 + rng.next_below(3));
      EXPECT_EQ(rig.list(reader), model.list()) << "op " << op << " reader " << reader;
      ++lists;
    }
  }
  for (ClientId reader = 1; reader <= 3; ++reader) {
    EXPECT_EQ(rig.list(reader), model.list()) << "reader " << reader;
  }
  EXPECT_TRUE(holder_counts.count(1) && holder_counts.count(2) && holder_counts.count(3))
      << "keys held by one, two and three writers";
  EXPECT_TRUE(model.saw_tie) << "a seq tie across writers must have been resolved";
  EXPECT_GT(gets, 50u);
  EXPECT_GT(lists, 3u);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndKeyspaces, PointGetDifferential,
    ::testing::Values(PointGetCase{ustor::DigestMode::kChunked, 8},
                      PointGetCase{ustor::DigestMode::kChunked, 1024},
                      PointGetCase{ustor::DigestMode::kFlat, 8},
                      PointGetCase{ustor::DigestMode::kFlat, 1024}),
    [](const ::testing::TestParamInfo<PointGetCase>& info) {
      return std::string(info.param.digest == ustor::DigestMode::kChunked ? "Chunked" : "Flat") +
             "K" + std::to_string(info.param.keys);
    });

// --- One validator: the offset index against a reference decoder -----------

/// The strings decoder the offset index replaced, kept verbatim as the
/// reference the validator must agree with.
std::optional<Partition> reference_decode(BytesView data) {
  wire::Reader r(data);
  const std::uint32_t count = r.get_u32();
  if (!r.ok() || count > (1u << 20)) return std::nullopt;
  Partition p;
  p.reserve(std::min<std::size_t>(count, r.remaining() / 16 + 1));
  for (std::uint32_t k = 0; k < count && r.ok(); ++k) {
    PartitionEntry e;
    e.key = to_string(r.get_bytes_view());
    e.value = to_string(r.get_bytes_view());
    e.seq = r.get_u64();
    if (!r.ok()) return std::nullopt;
    if (!p.empty() && e.key <= p.back().key) return std::nullopt;
    p.push_back(std::move(e));
  }
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return p;
}

/// The index must accept exactly what the reference accepts, with the same
/// (key, value, seq) triples, and find every key (and no other).
void expect_validator_agrees(const Bytes& buf, const std::string& what) {
  SCOPED_TRACE(what);
  const auto ref = reference_decode(buf);
  const auto offsets = index_partition(buf);
  ASSERT_EQ(offsets.has_value(), ref.has_value());
  EXPECT_EQ(decode_partition(buf), ref);
  const PartitionIndex index(std::make_shared<const Bytes>(buf));
  if (!ref.has_value()) {
    EXPECT_EQ(index.size(), 0u) << "a rejected buffer reads as an empty partition";
    return;
  }
  ASSERT_EQ(index.size(), ref->size());
  const auto held = [&](const std::string& key) {
    return std::any_of(ref->begin(), ref->end(),
                       [&](const PartitionEntry& e) { return e.key == key; });
  };
  for (std::size_t i = 0; i < ref->size(); ++i) {
    const PartitionIndex::Entry e = index.entry(i);
    EXPECT_EQ(e.key, (*ref)[i].key);
    EXPECT_EQ(e.value, (*ref)[i].value);
    EXPECT_EQ(e.seq, (*ref)[i].seq);
    const auto found = index.find((*ref)[i].key);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->value, (*ref)[i].value);
    const std::string next = (*ref)[i].key + '\0';
    EXPECT_EQ(index.find(next).has_value(), held(next));
  }
  EXPECT_EQ(index.find("\xff\xff\xff\xff").has_value(), held("\xff\xff\xff\xff"));
}

TEST(PartitionValidator, OffsetIndexAcceptsExactlyWhatTheReferenceDecoderAccepts) {
  Rng rng(23);
  std::size_t accepted = 0, rejected = 0;
  for (int trial = 0; trial < 40; ++trial) {
    // A canonical encoding with short keys over a small alphabet that
    // includes bytes above 0x7f (keys order as unsigned bytes).
    std::map<std::string, std::pair<std::string, std::uint64_t>> m;
    const std::size_t entries = rng.next_below(7);
    while (m.size() < entries) {
      std::string key(rng.next_below(4), '\0');
      for (char& c : key) c = "a\x01\x7f\x80\xff"[rng.next_below(5)];
      m[key] = {std::string(rng.next_below(6), 'v'), rng.next_u64()};
    }
    const Bytes enc = encode_map(m);
    expect_validator_agrees(enc, "canonical");

    const auto index = index_partition(enc);
    ASSERT_TRUE(index.has_value());
    std::vector<std::size_t> offsets(index->begin(), index->end());
    offsets.push_back(enc.size());
    const auto splice_entries = [&](std::size_t i, std::size_t j) {
      return Bytes(enc.begin() + static_cast<std::ptrdiff_t>(offsets[i]),
                   enc.begin() + static_cast<std::ptrdiff_t>(offsets[j]));
    };
    std::vector<std::pair<std::string, Bytes>> variants;
    for (std::size_t len = 0; len < enc.size(); ++len) {
      variants.emplace_back("truncated",
                            Bytes(enc.begin(), enc.begin() + static_cast<std::ptrdiff_t>(len)));
    }
    for (std::size_t bit = 0; bit < enc.size() * 8; ++bit) {
      Bytes flipped = enc;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      variants.emplace_back("bit flip", flipped);
    }
    for (std::size_t i = 0; i + 1 < m.size(); ++i) {
      Bytes swapped(enc.begin(), enc.begin() + static_cast<std::ptrdiff_t>(offsets[i]));
      append(swapped, splice_entries(i + 1, i + 2));
      append(swapped, splice_entries(i, i + 1));
      append(swapped, splice_entries(i + 2, m.size()));
      variants.emplace_back("swapped pair", swapped);
    }
    for (std::size_t i = 0; i < m.size(); ++i) {
      Bytes dup(enc.begin(), enc.begin() + static_cast<std::ptrdiff_t>(offsets[i + 1]));
      append(dup, splice_entries(i, m.size()));
      dup[0] = static_cast<std::uint8_t>(m.size() + 1);  // count (< 256 here)
      variants.emplace_back("duplicated key", dup);
    }
    for (const std::uint8_t tail : {0x00, 0xff}) {
      Bytes trailing = enc;
      trailing.push_back(tail);
      variants.emplace_back("trailing byte", trailing);
    }
    for (const auto& [what, buf] : variants) {
      expect_validator_agrees(buf, what);
      (reference_decode(buf).has_value() ? accepted : rejected) += 1;
    }
  }
  EXPECT_GT(accepted, 40u) << "some mutations (value bytes, seqs) stay canonical";
  EXPECT_GT(rejected, 1000u);
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
  // machinery, same result — one binary search per memoized partition.
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
