// O(change) on the wire (PERF.md "Bytes per op"): SUBMIT/REPLY bytes per
// operation against keyspace size K, on a kChunked deployment, which
// speaks the D6 delta wire protocol (SUBMIT_DELTA / REPLY_DELTA +
// advertised read bases; second arg 1), and on a kFlat one, which speaks
// the full-value wire (second arg 0). The engine-side machinery
// (incremental encode, decode memos) runs in both, so the bytes/op
// counters isolate the wire claim. The kFlat rows also hash flat instead
// of chunked; bench/results/BENCH_wire_delta.post.json keeps the rows
// recorded with chunked digests on the full-value wire.
//
// The claims under test:
//   * SUBMIT bytes for a single-key put at K=16384 stay within 4x of
//     K=256 on the delta wire (full-value SUBMITs scale with the partition);
//   * an all-unchanged snapshot read ships O(1) bytes per partition
//     (REPLY_DELTA "unchanged" tokens, a few hundred bytes vs the full
//     value — the residue is the version vector + L/P lists, not data).
//
// Byte counts come from the net::Network per-message-type accounting
// (total_for(tag)), measured as deltas across the timed loop and
// reported as user counters: submit_bytes_per_op / reply_bytes_per_op
// sum the full and delta variants of each direction, so the two modes
// are directly comparable. CI's perf-smoke job parses these counters
// out of BENCH_wire_delta.json and asserts the 4x bound.
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

struct WireRig {
  WireRig(int total_keys, bool chunked) {
    ClusterConfig cfg;
    cfg.n = kWriters;
    cfg.seed = 4242;
    cfg.delay = net::DelayModel{1, 1};
    cfg.faust.dummy_read_period = 0;
    cfg.faust.probe_check_period = 0;
    cfg.faust.data_digest = chunked ? ustor::DigestMode::kChunked : ustor::DigestMode::kFlat;
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

  /// SUBMIT-direction bytes so far: full + delta variants summed, so
  /// delta and full runs report through the same counter.
  std::uint64_t submit_bytes() const {
    const auto& n = cluster->net();
    return n.total_for(static_cast<std::uint8_t>(ustor::MsgType::kSubmit)).bytes +
           n.total_for(static_cast<std::uint8_t>(ustor::MsgType::kSubmitDelta)).bytes;
  }

  /// REPLY-direction bytes so far (full + delta).
  std::uint64_t reply_bytes() const {
    const auto& n = cluster->net();
    return n.total_for(static_cast<std::uint8_t>(ustor::MsgType::kReply)).bytes +
           n.total_for(static_cast<std::uint8_t>(ustor::MsgType::kReplyDelta)).bytes;
  }

  /// REPLY_DELTA messages so far (for the unchanged-storm accounting).
  std::uint64_t reply_delta_messages() const {
    return cluster->net()
        .total_for(static_cast<std::uint8_t>(ustor::MsgType::kReplyDelta))
        .messages;
  }

  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<kv::KvClient>> kv;
};

/// Reports bytes/op (measured across the timed loop only) plus the
/// engine-side delta outcome counters, so a JSON diff shows not just the
/// byte win but WHICH path produced it.
void set_wire_counters(benchmark::State& state, const WireRig& rig,
                       std::uint64_t submit_before, std::uint64_t reply_before) {
  const double ops = static_cast<double>(state.iterations());
  state.counters["keys"] = static_cast<double>(state.range(0));
  state.counters["chunked"] = static_cast<double>(state.range(1));
  state.counters["ops_per_sec"] = benchmark::Counter(ops, benchmark::Counter::kIsRate);
  state.counters["submit_bytes_per_op"] =
      static_cast<double>(rig.submit_bytes() - submit_before) / (ops > 0 ? ops : 1);
  state.counters["reply_bytes_per_op"] =
      static_cast<double>(rig.reply_bytes() - reply_before) / (ops > 0 ? ops : 1);
  std::uint64_t dsub = 0, unchanged = 0, spliced = 0, fallbacks = 0;
  for (ClientId i = 1; i <= kWriters; ++i) {
    const auto& eng = rig.cluster->client(i).engine();
    dsub += eng.delta_submits();
    unchanged += eng.delta_replies_unchanged();
    spliced += eng.delta_replies_spliced();
    fallbacks += eng.delta_fallbacks();
  }
  state.counters["delta_submits"] = static_cast<double>(dsub);
  state.counters["delta_replies_unchanged"] = static_cast<double>(unchanged);
  state.counters["delta_replies_spliced"] = static_cast<double>(spliced);
  state.counters["delta_fallbacks"] = static_cast<double>(fallbacks);
}

/// Overwrite-heavy single-key puts into pre-populated partitions of
/// ~K/3 entries: submit_bytes_per_op is the headline number (the 4x
/// K-independence bound is asserted on the kChunked rows).
void BM_WirePut(benchmark::State& state) {
  const int total_keys = static_cast<int>(state.range(0));
  const bool chunked = state.range(1) != 0;
  WireRig rig(total_keys, chunked);
  const std::uint64_t sb = rig.submit_bytes(), rb = rig.reply_bytes();
  int k = 0, v = 1'000'000;
  for (auto _ : state) {
    rig.put(k % total_keys, ++v);
    k += 7919;  // prime stride: spread splices across the partition
  }
  set_wire_counters(state, rig, sb, rb);
}
BENCHMARK(BM_WirePut)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({3072, 0})
    ->Args({3072, 1})
    ->Args({16384, 0})
    ->Args({16384, 1})
    ->MinTime(0.1);

/// Single-key gets over registers that keep changing under the reader:
/// on the delta wire, the REPLY carries splice runs against the reader's
/// last verified base instead of the whole partition.
void BM_WireGet(benchmark::State& state) {
  const int total_keys = static_cast<int>(state.range(0));
  const bool chunked = state.range(1) != 0;
  WireRig rig(total_keys, chunked);
  benchmark::DoNotOptimize(rig.get(1, 0));  // warm memos + verified bases
  const std::uint64_t sb = rig.submit_bytes(), rb = rig.reply_bytes();
  int k = 0, v = 3'000'000;
  for (auto _ : state) {
    rig.put(k % total_keys, ++v);  // keep the registers moving
    benchmark::DoNotOptimize(rig.get(1, k % total_keys));
    k += 7919;
  }
  set_wire_counters(state, rig, sb, rb);
}
BENCHMARK(BM_WireGet)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({3072, 0})
    ->Args({3072, 1})
    ->Args({16384, 0})
    ->Args({16384, 1})
    ->MinTime(0.1);

/// Mixed workload: mostly reads, occasional writes.
void BM_WireMixed(benchmark::State& state) {
  const int total_keys = static_cast<int>(state.range(0));
  const bool chunked = state.range(1) != 0;
  WireRig rig(total_keys, chunked);
  benchmark::DoNotOptimize(rig.get(1, 0));
  const std::uint64_t sb = rig.submit_bytes(), rb = rig.reply_bytes();
  int k = 0, v = 2'000'000;
  for (auto _ : state) {
    if (k % 8 == 0) {
      rig.put(k % total_keys, ++v);
    } else {
      benchmark::DoNotOptimize(rig.get(1, k % total_keys));
    }
    ++k;
  }
  set_wire_counters(state, rig, sb, rb);
}
BENCHMARK(BM_WireMixed)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({3072, 0})
    ->Args({3072, 1})
    ->Args({16384, 0})
    ->Args({16384, 1})
    ->MinTime(0.1);

/// All-unchanged read storm: every register was verified once, then
/// nothing moves — each subsequent read's n REPLYs should be O(1)
/// "unchanged" tokens, independent of the partition size. Reported as
/// reply_bytes_per_op (one op = one get = n register reads).
void BM_WireUnchangedStorm(benchmark::State& state) {
  const int total_keys = static_cast<int>(state.range(0));
  const bool chunked = state.range(1) != 0;
  WireRig rig(total_keys, chunked);
  // Warm every writer's register in the reader's memo (one get per
  // partition suffices: a get reads all n registers).
  benchmark::DoNotOptimize(rig.get(1, 0));
  const std::uint64_t sb = rig.submit_bytes(), rb = rig.reply_bytes();
  const std::uint64_t rdm = rig.reply_delta_messages();
  int k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.get(1, k % total_keys));
    k += 7919;
  }
  set_wire_counters(state, rig, sb, rb);
  const double msgs = static_cast<double>(rig.reply_delta_messages() - rdm);
  state.counters["reply_bytes_per_msg"] =
      msgs > 0 ? static_cast<double>(rig.reply_bytes() - rb) / msgs : 0.0;
}
BENCHMARK(BM_WireUnchangedStorm)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({16384, 0})
    ->Args({16384, 1})
    ->MinTime(0.1);

}  // namespace

#include "json_main.h"
FAUST_BENCH_MAIN();
