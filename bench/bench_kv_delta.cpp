// O(change) KV operations (PERF.md "O(change) operations"): put/get cost
// against keyspace size K, on a kChunked deployment (chunked DATA
// digests + the delta wire; second arg 0) and on a kFlat one (the
// paper-literal flat hash over the full-value wire; second arg 1). Both
// run the incremental partition encoding and the version-keyed decode
// memos. The legacy full-reencode/full-decode numbers these rows were
// first compared against are kept in bench/results/BENCH_kv_delta.pre.json.
//
// The claims under test:
//   * put throughput at K=16384 stays within ~2x of K=256 on kChunked
//     (a flat digest re-hashes the whole partition per put);
//   * single-op get throughput at K=3072/n=3 gains >= 5x from the decode
//     memo (reads of unchanged registers skip the partition scan);
//   * a get is n binary searches, never a merged map (merged_views stays
//     0), so the mixed workload's throughput, which rebuilds one
//     partition index after each write, falls far less than the keyspace
//     grows from K=256 to K=16384.
//
// K counts TOTAL keys; with n=3 writers each partition holds ~K/3
// entries. Engine-level measurement (kv::KvClient over one Cluster, the
// same rig as the differential oracle) so the numbers isolate the KV/
// crypto/wire stack, not the api::Store batching layer.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "faust/cluster.h"
#include "kvstore/kv_client.h"

namespace {

using namespace faust;

constexpr int kWriters = 3;

std::string key_of(int k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%06d", k);
  return buf;
}

std::string value_of(int v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "v%07d", v % 10'000'000);
  return buf;
}

struct DeltaRig {
  DeltaRig(int total_keys, bool flat) {
    ClusterConfig cfg;
    cfg.n = kWriters;
    cfg.seed = 4242;
    cfg.delay = net::DelayModel{1, 1};
    cfg.faust.dummy_read_period = 0;
    cfg.faust.probe_check_period = 0;
    cfg.faust.data_digest = flat ? ustor::DigestMode::kFlat : ustor::DigestMode::kChunked;
    cluster = std::make_unique<Cluster>(cfg);
    for (ClientId i = 1; i <= kWriters; ++i) {
      kv.push_back(std::make_unique<kv::KvClient>(cluster->client(i)));
    }
    // Bulk-load K keys round-robin over the writers: one publication per
    // writer (apply_with_seqs), so setup stays cheap even at K=16384.
    std::vector<std::vector<kv::KvClient::SeqChange>> load(kWriters);
    std::vector<std::uint64_t> seq(kWriters, 0);
    for (int k = 0; k < total_keys; ++k) {
      const int w = k % kWriters;
      load[static_cast<std::size_t>(w)].push_back(
          kv::KvClient::SeqChange{key_of(k), value_of(k), ++seq[static_cast<std::size_t>(w)]});
    }
    for (int w = 0; w < kWriters; ++w) {
      bool done = false;
      kv[static_cast<std::size_t>(w)]->apply_with_seqs(load[static_cast<std::size_t>(w)],
                                                       [&](Timestamp) { done = true; });
      drive(done);
    }
  }

  void drive(const bool& done) {
    while (!done && cluster->sched().step()) {
    }
  }

  void put(int k, int v) {
    bool done = false;
    kv[static_cast<std::size_t>(k % kWriters)]->put(key_of(k), value_of(v),
                                                    [&](Timestamp) { done = true; });
    drive(done);
  }

  std::optional<kv::KvEntry> get(ClientId reader, int k) {
    bool done = false;
    std::optional<kv::KvEntry> out;
    kv[static_cast<std::size_t>(reader - 1)]->get(
        key_of(k), [&](std::optional<kv::KvEntry> e, Timestamp) {
          out = std::move(e);
          done = true;
        });
    drive(done);
    return out;
  }

  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<kv::KvClient>> kv;
};

void set_mode_counters(benchmark::State& state, const DeltaRig& rig, double ops) {
  state.counters["keys"] = static_cast<double>(state.range(0));
  state.counters["flat"] = static_cast<double>(state.range(1));
  state.counters["ops_per_sec"] = benchmark::Counter(ops, benchmark::Counter::kIsRate);
  std::uint64_t splices = 0, rebuilds = 0, memo_hits = 0, merged_views = 0;
  for (const auto& c : rig.kv) {
    splices += c->encode_splices();
    rebuilds += c->encode_rebuilds();
    memo_hits += c->decode_memo_hits();
    merged_views += c->merged_views();
  }
  state.counters["encode_splices"] = static_cast<double>(splices);
  state.counters["encode_rebuilds"] = static_cast<double>(rebuilds);
  state.counters["decode_memo_hits"] = static_cast<double>(memo_hits);
  state.counters["merged_views"] = static_cast<double>(merged_views);
}

/// Overwrite-heavy puts into pre-populated partitions of ~K/3 entries.
void BM_KvDeltaPut(benchmark::State& state) {
  const int total_keys = static_cast<int>(state.range(0));
  const bool flat = state.range(1) != 0;
  DeltaRig rig(total_keys, flat);
  int k = 0, v = 1'000'000;
  for (auto _ : state) {
    rig.put(k % total_keys, ++v);
    k += 7919;  // prime stride: spread splices across the partition
  }
  set_mode_counters(state, rig, static_cast<double>(state.iterations()));
}
BENCHMARK(BM_KvDeltaPut)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({3072, 0})
    ->Args({3072, 1})
    ->Args({16384, 0})
    ->Args({16384, 1})
    ->MinTime(0.1);

/// Read-heavy single-key gets (n register reads each) over unchanged
/// registers — the decode-memo steady state.
void BM_KvDeltaGet(benchmark::State& state) {
  const int total_keys = static_cast<int>(state.range(0));
  const bool flat = state.range(1) != 0;
  DeltaRig rig(total_keys, flat);
  benchmark::DoNotOptimize(rig.get(1, 0));  // warm the memos
  int k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.get(1, k % total_keys));
    k += 7919;
  }
  set_mode_counters(state, rig, static_cast<double>(state.iterations()));
}
BENCHMARK(BM_KvDeltaGet)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({3072, 0})
    ->Args({3072, 1})
    ->Args({16384, 0})
    ->Args({16384, 1})
    ->MinTime(0.1);

/// Mixed workload: mostly reads, occasional writes — memos re-validate
/// only the one changed partition after each write.
void BM_KvDeltaMixed(benchmark::State& state) {
  const int total_keys = static_cast<int>(state.range(0));
  const bool flat = state.range(1) != 0;
  DeltaRig rig(total_keys, flat);
  int k = 0, v = 2'000'000;
  for (auto _ : state) {
    if (k % 8 == 0) {
      rig.put(k % total_keys, ++v);
    } else {
      benchmark::DoNotOptimize(rig.get(1, k % total_keys));
    }
    ++k;
  }
  set_mode_counters(state, rig, static_cast<double>(state.iterations()));
}
BENCHMARK(BM_KvDeltaMixed)
    ->Args({256, 0})
    ->Args({3072, 0})
    ->Args({3072, 1})
    ->Args({16384, 0})
    ->MinTime(0.1);

/// The read path's per-snapshot pieces on three 1,024-entry partitions in
/// perfbench's shape (every writer holds the same keys "k%016llx", values
/// of 8-64 B): scanning one changed partition (the index) or decoding it
/// into strings, one get (a binary search per partition) and one list
/// (the merged map).
struct ReadShape {
  ReadShape() {
    std::vector<std::shared_ptr<const kv::PartitionIndex>> parts;
    for (int w = 0; w < kWriters; ++w) {
      kv::Partition p;
      for (unsigned long long k = 0; k < 1024; ++k) {
        char key[24];  // a shard holds about every other key of K = 2048
        std::snprintf(key, sizeof(key), "k%016llx", 2 * k);
        p.push_back({key, std::string(8 + (k * 7 + w) % 57, static_cast<char>('a' + w)),
                     k + static_cast<unsigned long long>(w)});
        if (w == 0) keys.push_back(key);
      }
      bytes.push_back(std::make_shared<const Bytes>(kv::encode_partition(p)));
      parts.push_back(std::make_shared<const kv::PartitionIndex>(bytes.back()));
    }
    view = std::make_unique<kv::SnapshotView>(std::move(parts), &merged_views);
  }

  std::vector<std::shared_ptr<const Bytes>> bytes;
  std::vector<std::string> keys;
  std::uint64_t merged_views = 0;
  std::unique_ptr<kv::SnapshotView> view;
};

void BM_ReadPartitionScan(benchmark::State& state) {
  const ReadShape shape;
  for (auto _ : state) benchmark::DoNotOptimize(kv::index_partition(*shape.bytes[0]));
  state.counters["bytes"] = static_cast<double>(shape.bytes[0]->size());
}
BENCHMARK(BM_ReadPartitionScan)->Unit(benchmark::kMicrosecond)->MinTime(0.1);

void BM_ReadPartitionDecode(benchmark::State& state) {
  const ReadShape shape;
  for (auto _ : state) benchmark::DoNotOptimize(kv::decode_partition(*shape.bytes[0]));
}
BENCHMARK(BM_ReadPartitionDecode)->Unit(benchmark::kMicrosecond)->MinTime(0.1);

void BM_ReadSnapshotFind(benchmark::State& state) {
  const ReadShape shape;
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(shape.view->find(shape.keys[k]));
    k = (k + 7919) % shape.keys.size();
  }
}
BENCHMARK(BM_ReadSnapshotFind)->Unit(benchmark::kMicrosecond)->MinTime(0.1);

void BM_ReadSnapshotMerge(benchmark::State& state) {
  const ReadShape shape;
  for (auto _ : state) benchmark::DoNotOptimize(shape.view->merge());
}
BENCHMARK(BM_ReadSnapshotMerge)->Unit(benchmark::kMicrosecond)->MinTime(0.1);

}  // namespace

#include "json_main.h"
FAUST_BENCH_MAIN();
