// Wall-clock scaling of the threaded shard execution mode
// (ShardedCluster ExecMode::kThreaded) against the single-threaded
// co-scheduled mode, on an identical pipelined workload.
//
// BENCH_shard measures the *per-op* savings of sharding (smaller
// partitions); this bench measures whether S shards turn those savings
// into *aggregate* wall-clock throughput by running on S runtime threads.
// The workload is pipelined — a batch of puts (or gets) is issued across
// all clients and shards before waiting for the batch to drain — because
// thread-level parallelism is only reachable when more than one shard has
// work in flight; a strictly sequential driver would measure latency, not
// throughput.
//
// Both modes run the exact same batches through the same api::Store
// (one kv::KvClient engine per shard under it); the only difference is
// the executor behind the seam (sim::Scheduler vs one
// rt::ThreadedRuntime per shard). The JSON
// artifact records hw_cores: on a multi-core host the threaded S=4
// configuration is expected to approach min(S, cores)× the deterministic
// S=4 throughput; on a single-core host it can only show the overhead of
// the threaded substrate (see PERF.md "Threaded shards").
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/store.h"
#include "shard/sharded_cluster.h"

namespace {

using namespace faust;

constexpr int kWriters = 3;          // clients per deployment (and per shard)
constexpr int kTotalKeys = 3072;     // fixed total workload, as in BENCH_shard
constexpr std::size_t kValueLen = 96;
constexpr int kBatch = 512;          // ops in flight per measured batch

std::string key_name(int k) { return "key-" + std::to_string(k); }

std::string value_for(int k, int round) {
  std::string v = "v" + std::to_string(round) + "-" + std::to_string(k) + "-";
  v.resize(kValueLen, 'x');
  return v;
}

struct MtRig {
  MtRig(std::size_t shards, bool threaded) {
    shard::ShardedClusterConfig cfg;
    cfg.shards = shards;
    cfg.seed = 4242;
    cfg.mode = threaded ? shard::ExecMode::kThreaded : shard::ExecMode::kDeterministic;
    cfg.shard_template.n = kWriters;
    cfg.shard_template.delay = net::DelayModel{5, 5};
    cfg.shard_template.faust.dummy_read_period = 0;
    cfg.shard_template.faust.probe_check_period = 0;
    cluster = std::make_unique<shard::ShardedCluster>(cfg);
    for (ClientId i = 1; i <= kWriters; ++i) {
      kv.push_back(api::open_store(*cluster, i));
    }
    // Pre-populate pipelined, in key chunks so no FaustClient queue grows
    // unboundedly.
    for (int base = 0; base < kTotalKeys; base += kBatch) {
      const int count = std::min(kBatch, kTotalKeys - base);
      run_batch(count, [&](int i) {
        const int k = base + i;
        kv[static_cast<std::size_t>(k % kWriters)]->put(
            key_name(k), value_for(k, 0), [this](const api::PutResult&) { op_done(); });
      });
    }
  }

  ~MtRig() {
    cluster->stop();  // freeze shard threads before the stores unwind
    kv.clear();
  }

  /// Issues `count` ops via `issue(i)` (each must arrange op_done() on
  /// completion), then drains the batch in whichever way the mode needs.
  template <typename Issue>
  void run_batch(int count, Issue issue) {
    completed_.store(0, std::memory_order_relaxed);
    target_ = count;
    batch_done_.store(false, std::memory_order_relaxed);
    for (int i = 0; i < count; ++i) issue(i);
    cluster->await(batch_done_, std::chrono::seconds(120));
  }

  void op_done() {
    if (completed_.fetch_add(1, std::memory_order_acq_rel) + 1 == target_) {
      batch_done_.store(true, std::memory_order_release);
    }
  }

  std::unique_ptr<shard::ShardedCluster> cluster;
  std::vector<std::unique_ptr<api::Store>> kv;
  std::atomic<int> completed_{0};
  int target_ = 0;
  std::atomic<bool> batch_done_{false};
};

/// Rigs are expensive to prepopulate; one per (mode, shard count), shared
/// by the put/get benchmarks — the workload only overwrites values.
MtRig& rig_for(std::size_t shards, bool threaded) {
  static std::map<std::pair<std::size_t, bool>, std::unique_ptr<MtRig>> rigs;
  auto& slot = rigs[{shards, threaded}];
  if (!slot) slot = std::make_unique<MtRig>(shards, threaded);
  return *slot;
}

void set_counters(benchmark::State& state, std::size_t shards, const char* rate_name) {
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["total_keys"] = kTotalKeys;
  state.counters["batch"] = kBatch;
  state.counters["hw_cores"] = static_cast<double>(std::thread::hardware_concurrency());
  state.counters[rate_name] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kBatch, benchmark::Counter::kIsRate);
}

void BM_MtShardedPut(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const bool threaded = state.range(1) != 0;
  MtRig& rig = rig_for(shards, threaded);
  int k = 0, round = 1;
  for (auto _ : state) {
    const int base = k;
    const int r = round;
    rig.run_batch(kBatch, [&rig, base, r](int i) {
      const int key = (base + i) % kTotalKeys;
      rig.kv[static_cast<std::size_t>(key % kWriters)]->put(
          key_name(key), value_for(key, r), [&rig](const api::PutResult&) { rig.op_done(); });
    });
    k += kBatch;
    if (k >= kTotalKeys) {
      k = 0;
      ++round;
    }
  }
  set_counters(state, shards, "puts_per_sec");
}
BENCHMARK(BM_MtShardedPut)
    ->ArgNames({"shards", "threaded"})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->MinTime(0.2)
    ->UseRealTime();

void BM_MtShardedGet(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const bool threaded = state.range(1) != 0;
  MtRig& rig = rig_for(shards, threaded);
  int k = 0;
  for (auto _ : state) {
    const int base = k;
    rig.run_batch(kBatch, [&rig, base](int i) {
      const int key = (base + i) % kTotalKeys;
      rig.kv[static_cast<std::size_t>(key % kWriters)]->get(
          key_name(key), [&rig](const api::GetResult& r) {
            benchmark::DoNotOptimize(r.entry);
            rig.op_done();
          });
    });
    k = (k + kBatch) % kTotalKeys;
  }
  set_counters(state, shards, "gets_per_sec");
}
BENCHMARK(BM_MtShardedGet)
    ->ArgNames({"shards", "threaded"})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->MinTime(0.2)
    ->UseRealTime();

}  // namespace

#include "json_main.h"
FAUST_BENCH_MAIN();
