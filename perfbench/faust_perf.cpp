// faust_perf — the repository benchmark: one named workload against
// faust::api::Store over a sharded deployment, driven as a closed loop of
// three clients from one issuing thread, with every result checked.
//
//   faust_perf --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// A run heats the machine with an untimed pass of the workload, times
// three identical set-ups (deploy, open_store ×3, preload, warm-up) and
// keeps the last deployment for the timed window. --trace 0 prints the
// end-to-end metrics; --trace 1 times an untraced window, then a traced
// one, and prints the per-layer metrics and the tracing overhead. The
// last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The workloads, the metrics and the predictions are documented
// in README.md beside this file.
#include <sys/resource.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/store.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "rt/threaded_runtime.h"
#include "scenario/runner.h"
#include "scenario/workload.h"
#include "shard/sharded_cluster.h"
#include "sock/socket_transport.h"

namespace {

using namespace faust;
namespace fs = std::filesystem;

constexpr int kClients = 3;                 // FAUST's n: one register per client
constexpr std::uint64_t kClusterSeed = 7;   // fixed; recorded beside --seed
constexpr int kSetupReps = 3;               // setup_s is their median
constexpr double kHeatSeconds = 3.0;        // sustained load before any timing
constexpr std::size_t kPreloadBatch = 256;  // puts per preload apply()
constexpr auto kOpTimeout = std::chrono::seconds(60);
constexpr std::int64_t kStableDrainNs = 10'000'000'000;

// --- Workloads ---------------------------------------------------------------

/// One issued unit: a single Store op or one apply() batch.
struct Unit {
  enum class Kind { kPut, kErase, kGet, kBatch };
  Kind kind = Kind::kPut;
  std::string key;
  std::string value;
  std::vector<api::Op> ops;  // kBatch
  std::size_t op_count() const { return kind == Kind::kBatch ? ops.size() : 1; }
};

const char* kind_name(Unit::Kind k) {
  switch (k) {
    case Unit::Kind::kPut: return "put";
    case Unit::Kind::kErase: return "erase";
    case Unit::Kind::kGet: return "get";
    case Unit::Kind::kBatch: return "batch";
  }
  return "?";
}

struct Spec {
  const char* name;
  shard::ExecMode mode;
  std::size_t shards;
  std::uint64_t keys;          // K, preloaded by every writer
  double read_fraction;        // gets; the rest are puts and erases
  double erase_fraction;       // share of the non-read ops
  bool cache;                  // D8 cache tier on every shard
  std::size_t batch;           // 0: single Store ops; else apply() of this many puts
  std::size_t warm_ops;        // fixed warm-up inside set-up
  std::size_t snapshot_every;  // WAL records per snapshot (process workloads)
  Unit::Kind lat;              // the unit lat_p50_us / lat_p99_us time
};

// Why each workload exists, and what it must show, is in README.md.
constexpr Spec kSpecs[] = {
    {"proc-write", shard::ExecMode::kProcess, 2, 256, 0.2, 0.05, false, 0, 1500, 8192,
     Unit::Kind::kPut},
    {"proc-read", shard::ExecMode::kProcess, 2, 2048, 0.94, 0.05, false, 0, 1500, 8192,
     Unit::Kind::kGet},
    {"proc-read-cached", shard::ExecMode::kProcess, 2, 2048, 0.94, 0.05, true, 0, 1500, 8192,
     Unit::Kind::kGet},
    {"thread-batch", shard::ExecMode::kThreaded, 3, 4096, 0.0, 0.0, false, 64, 1536, 0,
     Unit::Kind::kBatch},
};

// --- Small helpers ------------------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename T>
double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::uint64_t value_tag(ClientId writer, const std::string& value) {
  return std::hash<std::string>{}(value) * 31 + writer;
}

/// Peak resident set (VmHWM) of `pid` in MB; 0 when it cannot be read.
double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

struct ProcStat {
  pid_t ppid = 0;
  double user_s = 0;
  double sys_s = 0;
};

std::optional<ProcStat> read_stat(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string s;
  if (!std::getline(in, s)) return std::nullopt;
  const auto close = s.rfind(')');  // the command name may hold spaces
  if (close == std::string::npos) return std::nullopt;
  std::istringstream fields(s.substr(close + 2));
  std::vector<std::string> f;
  for (std::string tok; fields >> tok && f.size() < 13;) f.push_back(tok);
  if (f.size() < 13) return std::nullopt;
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  // f[0] is field 3 (state): ppid is field 4, utime 14, stime 15.
  return ProcStat{static_cast<pid_t>(std::stol(f[1])), std::stod(f[11]) / tick,
                  std::stod(f[12]) / tick};
}

/// Host-wide CPU time in clock ticks: all of it, and the share the
/// hypervisor gave to other guests (steal).
std::pair<std::uint64_t, std::uint64_t> host_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::uint64_t total = 0, steal = 0;
  for (int i = 0; i < 8; ++i) {  // user nice system idle iowait irq softirq steal
    std::uint64_t v = 0;
    in >> v;
    total += v;
    if (i == 7) steal = v;
  }
  return {total, steal};
}

/// The benchmark's live child processes: the faust_sockd workers.
std::vector<pid_t> worker_pids() {
  std::vector<pid_t> out;
  const pid_t self = ::getpid();
  std::error_code ec;
  for (const auto& e : fs::directory_iterator("/proc", ec)) {
    const std::string name = e.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") != std::string::npos) continue;
    const auto pid = static_cast<pid_t>(std::stol(name));
    if (const auto st = read_stat(pid); st && st->ppid == self) out.push_back(pid);
  }
  return out;
}

// --- Counter snapshots ----------------------------------------------------------

/// Every per-layer counter the benchmark reads, summed over shards and
/// clients. Taken before and after a timed window; the difference is the
/// window's work.
struct Counters {
  // FAUST / USTOR / crypto, client side (read on each shard's executor).
  std::uint64_t dummy_reads = 0, probes = 0, versions = 0, retransmits = 0;
  std::uint64_t engine_ops = 0, stale_dropped = 0;
  std::uint64_t delta_advertised = 0, delta_unchanged = 0, delta_spliced = 0,
                delta_fallbacks = 0;
  std::uint64_t verify_hits = 0, verify_misses = 0;
  std::uint64_t rt_events = 0;
  // Simulated fabric (in-process shards only).
  std::uint64_t net_msgs = 0, net_bytes = 0;
  // Client-side socket transports (process shards only).
  std::uint64_t frames = 0, bytes_in = 0, bytes_out = 0, framing_out = 0;
  std::uint64_t reconnects = 0, drops = 0;
  std::array<std::uint64_t, net::Network::kTypeBuckets> type_bytes{};
  // CPU from the kernel: this process and its worker children.
  double self_user_s = 0, self_sys_s = 0, worker_user_s = 0, worker_sys_s = 0;
  std::uint64_t wal_bytes = 0;  // WAL files of the durable shards
  std::uint64_t host_ticks = 0, host_steal = 0;
};

Counters operator-(Counters a, const Counters& b) {
  a.dummy_reads -= b.dummy_reads;
  a.probes -= b.probes;
  a.versions -= b.versions;
  a.retransmits -= b.retransmits;
  a.engine_ops -= b.engine_ops;
  a.stale_dropped -= b.stale_dropped;
  a.delta_advertised -= b.delta_advertised;
  a.delta_unchanged -= b.delta_unchanged;
  a.delta_spliced -= b.delta_spliced;
  a.delta_fallbacks -= b.delta_fallbacks;
  a.verify_hits -= b.verify_hits;
  a.verify_misses -= b.verify_misses;
  a.rt_events -= b.rt_events;
  a.net_msgs -= b.net_msgs;
  a.net_bytes -= b.net_bytes;
  a.frames -= b.frames;
  a.bytes_in -= b.bytes_in;
  a.bytes_out -= b.bytes_out;
  a.framing_out -= b.framing_out;
  a.reconnects -= b.reconnects;
  a.drops -= b.drops;
  for (std::size_t i = 0; i < a.type_bytes.size(); ++i) a.type_bytes[i] -= b.type_bytes[i];
  a.self_user_s -= b.self_user_s;
  a.self_sys_s -= b.self_sys_s;
  a.worker_user_s -= b.worker_user_s;
  a.worker_sys_s -= b.worker_sys_s;
  a.wal_bytes -= b.wal_bytes;
  a.host_ticks -= b.host_ticks;
  a.host_steal -= b.host_steal;
  return a;
}

// --- Tracing -------------------------------------------------------------------

/// One in-memory span. Spans of one op share `op`; `parent` is the span
/// id of the enclosing span (0 for roots).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
};

// --- Stability tracking ---------------------------------------------------------

/// Puts of one client on one shard waiting for that shard's stability cut
/// to cover them. Fed from completion callbacks and kStabilityAdvanced
/// events, which run on shard runtime threads; the lock is never held
/// across a call into the deployment.
class StableTracker {
 public:
  void on_put(Timestamp ts, std::int64_t t_done, bool record, std::uint64_t op) {
    std::lock_guard lock(mu_);
    if (ts <= stable_) {
      if (record) finish(Pending{ts, t_done, op}, t_done);
      return;
    }
    pending_.push_back(Pending{ts, t_done, op, record});
  }

  void on_stable(Timestamp stable, std::int64_t t) {
    std::lock_guard lock(mu_);
    stable_ = std::max(stable_, stable);
    std::erase_if(pending_, [&](const Pending& p) {
      if (p.ts > stable_) return false;
      if (p.record) finish(p, t);
      return true;
    });
  }

  std::size_t recorded_pending() const {
    std::lock_guard lock(mu_);
    return static_cast<std::size_t>(
        std::count_if(pending_.begin(), pending_.end(), [](const Pending& p) { return p.record; }));
  }

  /// Moves out the samples (µs) and wait spans recorded so far.
  void take(std::vector<float>& samples, std::vector<Span>& waits) {
    std::lock_guard lock(mu_);
    samples.insert(samples.end(), samples_.begin(), samples_.end());
    waits.insert(waits.end(), waits_.begin(), waits_.end());
    samples_.clear();
    waits_.clear();
  }

 private:
  struct Pending {
    Timestamp ts = 0;
    std::int64_t t_done = 0;
    std::uint64_t op = 0;
    bool record = false;
  };
  void finish(const Pending& p, std::int64_t t) {
    samples_.push_back(static_cast<float>(t - p.t_done) / 1e3f);
    waits_.push_back(Span{0, 0, p.op, "stable", p.t_done, t});
  }

  mutable std::mutex mu_;
  Timestamp stable_ = 0;
  std::vector<Pending> pending_;
  std::vector<float> samples_;
  std::vector<Span> waits_;
};

// --- The closed loop ------------------------------------------------------------

/// What a timed window measured.
struct Window {
  bool traced = false;
  std::int64_t t0 = 0;
  std::int64_t t_last = 0;
  std::uint64_t units = 0, ops = 0, gets = 0, cached_gets = 0;
  std::vector<std::uint64_t> slice_ops;  // ops completed per second of the window
  std::uint64_t mutations = 0, publications = 0;
  std::array<std::vector<float>, 4> lat;    // by Unit::Kind, µs
  std::array<std::vector<float>, 4> issue;  // inside the Store call, µs (traced)
  std::array<std::vector<float>, 4> wait;   // return → callback, µs (traced)
  Counters delta;
  double seconds() const { return static_cast<double>(t_last - t0) / 1e9; }
};

/// The per-client slot of the unit in flight. The issuing thread fills the
/// request side; the completion callback fills the result side and then
/// hands the slot back under `Bench::mu_`.
struct Slot {
  Unit unit;
  std::uint64_t op = 0;
  std::int64_t t_issue = 0, t_ret = 0, t_done = 0;
  api::PutResult put;
  api::GetResult get;
  api::BatchResult batch;
};

struct SetupTimes {
  double deploy_s = 0, open_s = 0, preload_s = 0, warm_s = 0, spawn_ms = 0;
  double rss_mb = 0;  // peak RSS of this process during the set-up
  double total() const { return deploy_s + open_s + preload_s + warm_s; }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
};

class Bench {
 public:
  Bench(const Spec& spec, Args args) : spec_(spec), args_(std::move(args)) {}

  int run();

 private:
  using Source = std::function<std::optional<Unit>(int client)>;

  // Deployment lifecycle.
  SetupTimes setup(const std::string& dir);
  void teardown();
  scenario::Op next_op(int c);
  Source preload_source();
  Source workload_source(std::size_t unit_limit);

  // The issuing thread.
  void loop(const Source& next, std::int64_t deadline, Window* w);
  void issue(int c, Unit u);
  void complete(int c);
  void harvest(int c, Window* w);
  void note_written(const std::string& key, ClientId writer, const std::string& value);
  bool was_written(const std::string& key, const kv::KvEntry& e) const;
  void fail(std::uint64_t ops, const std::string& why);

  Window timed_window(bool traced);
  Counters read_counters();
  void check_views();
  void drain_stability();

  void report(const std::vector<SetupTimes>& setups, const Window& w, const Window* untraced);
  void write_spans();

  const Spec spec_;
  const Args args_;

  // Current deployment. Slots, trackers and the wake-up state outlive the
  // stores: a store settles in-flight ops through their callbacks when it
  // is destroyed.
  std::array<Slot, kClients> slots_;
  std::vector<std::vector<std::unique_ptr<StableTracker>>> trackers_;  // [client][shard]
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint32_t ready_ = 0;  // guarded by mu_: clients whose unit completed
  std::unique_ptr<shard::ShardedCluster> sc_;
  std::vector<std::unique_ptr<api::Store>> stores_;
  std::string dir_;

  std::unique_ptr<scenario::WorkloadGenerator> gen_;
  std::array<std::deque<scenario::Op>, kClients> queued_;
  // Tags of every (writer, value) written per key. A flat vector keeps the
  // benchmark's own memory small next to the program's (rss_mb).
  std::unordered_map<std::string, std::vector<std::uint64_t>> written_;
  std::atomic<bool> recording_{false};
  std::atomic<std::uint32_t> failed_shards_{0};  // kShardFailed events, by shard bit
  std::vector<std::uint64_t> ops_on_shard_;      // completed ops of this deployment

  std::uint64_t next_op_id_ = 1;
  std::uint64_t first_traced_op_ = 0;
  std::uint64_t next_span_id_ = 1;
  std::vector<Span> spans_;
  std::vector<float> stable_us_;

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int failures_logged_ = 0;
  bool stuck_ = false;

  double worker_rss_mb_ = 0;
  std::uint64_t wal_records_ = 0, snapshots_ = 0, duplicate_replies_ = 0;
  std::uint64_t lifetime_engine_ops_ = 0;
};

// --- Deployment lifecycle ---------------------------------------------------------

SetupTimes Bench::setup(const std::string& dir) {
  SetupTimes t;
  dir_ = dir;
  // Restart the peak-RSS count, so rss_mb is one deployment at full size
  // and not the window's own sample buffers, which grow with throughput.
  std::ofstream("/proc/self/clear_refs") << "5";
  fs::remove_all(dir);
  fs::create_directories(dir);
  written_.clear();
  for (auto& q : queued_) q.clear();
  scenario::WorkloadConfig wc;
  wc.seed = args_.seed;
  wc.n_keys = spec_.keys;
  wc.n_writers = kClients;
  wc.read_fraction = spec_.read_fraction;
  wc.erase_fraction = spec_.erase_fraction;
  gen_ = std::make_unique<scenario::WorkloadGenerator>(wc);

  const std::int64_t t0 = now_ns();
  shard::ShardedClusterConfig cfg;
  cfg.shards = spec_.shards;
  cfg.seed = kClusterSeed;
  cfg.mode = spec_.mode;
  cfg.shard_template.n = kClients;
  if (spec_.mode == shard::ExecMode::kProcess) {
    cfg.durability_root = dir;
    cfg.shard_template.durability.snapshot_every = spec_.snapshot_every;
    cfg.shard_template.cache.enabled = spec_.cache;
    cfg.process.worker_path = FAUST_SOCKD_PATH;
    cfg.process.use_tcp = true;
  } else {
    // Real-time ticks with the timer scaling process shards get by
    // default: fast-forward ticks flood the timer wheels.
    cfg.tick = cfg.process.tick;
    const std::uint64_t scale = cfg.process.timer_scale;
    cfg.shard_template.faust = cfg.shard_template.faust.scaled(scale);
    cfg.shard_template.mail_min_delay *= scale;
    cfg.shard_template.mail_max_delay *= scale;
  }
  sc_ = std::make_unique<shard::ShardedCluster>(cfg);
  const std::int64_t t1 = now_ns();

  ops_on_shard_.assign(spec_.shards, 0);
  failed_shards_ = 0;
  trackers_.clear();
  trackers_.resize(kClients);
  for (auto& per_client : trackers_) {
    for (std::size_t s = 0; s < spec_.shards; ++s) {
      per_client.push_back(std::make_unique<StableTracker>());
    }
  }
  for (int c = 0; c < kClients; ++c) {
    stores_.push_back(api::open_store(*sc_, static_cast<ClientId>(c + 1)));
    stores_.back()->on_event([this, c](const api::Event& e) {
      if (e.kind == api::Event::Kind::kShardFailed) {
        failed_shards_ |= 1u << e.shard;
      } else {
        trackers_[c][e.shard]->on_stable(e.stable_ts, now_ns());
      }
    });
  }
  const std::int64_t t2 = now_ns();
  loop(preload_source(), INT64_MAX, nullptr);
  const std::int64_t t3 = now_ns();
  const std::size_t per_unit = spec_.batch == 0 ? 1 : spec_.batch;
  loop(workload_source(spec_.warm_ops / per_unit), INT64_MAX, nullptr);
  const std::int64_t t4 = now_ns();

  // Set-up spans carry op id 0: they belong to no op.
  const std::uint64_t root = next_span_id_++;
  spans_.push_back(Span{root, 0, 0, "setup", t0, t4});
  spans_.push_back(Span{next_span_id_++, root, 0, "deploy", t0, t1});
  spans_.push_back(Span{next_span_id_++, root, 0, "open", t1, t2});
  spans_.push_back(Span{next_span_id_++, root, 0, "preload", t2, t3});
  spans_.push_back(Span{next_span_id_++, root, 0, "warm", t3, t4});
  t.deploy_s = static_cast<double>(t1 - t0) / 1e9;
  t.open_s = static_cast<double>(t2 - t1) / 1e9;
  t.preload_s = static_cast<double>(t3 - t2) / 1e9;
  t.warm_s = static_cast<double>(t4 - t3) / 1e9;
  if (const sock::ProcessCluster* procs = sc_->procs()) {
    for (std::size_t i = 0; i < procs->size(); ++i) t.spawn_ms += procs->info(i).spawn_ms;
    t.spawn_ms /= static_cast<double>(procs->size());
  }
  t.rss_mb = peak_rss_mb(::getpid());
  return t;
}

void Bench::teardown() {
  if (!sc_) return;
  recording_ = false;
  if (sc_->procs() != nullptr) {
    worker_rss_mb_ = 0;
    for (pid_t pid : worker_pids()) worker_rss_mb_ += peak_rss_mb(pid);
  }
  sc_->stop();
  if (sc_->procs() != nullptr) {
    wal_records_ = snapshots_ = duplicate_replies_ = 0;
    const auto stats = sc_->finalize_processes();
    for (std::size_t w = 0; w < stats.size(); ++w) {
      if (!stats[w] || !stats[w]->clean_exit) {
        // Worker w serves shard w: every op that ran there fails with it.
        fail(std::max<std::uint64_t>(1, ops_on_shard_[w]),
             "worker " + std::to_string(w) + " did not exit cleanly with a STATS line");
        continue;
      }
      wal_records_ += stats[w]->wal_records;
      snapshots_ += stats[w]->snapshots_written;
      duplicate_replies_ += stats[w]->duplicate_replies;
    }
  }
  stores_.clear();
  sc_.reset();
  // The data directory stays until the run ends: deleting it here would
  // put the filesystem's discards inside the next timed set-up.
}

scenario::Op Bench::next_op(int c) {
  // The generator draws a writer for every op; each client takes its own
  // ops in stream order, so its sequence depends only on the seed, not on
  // completion order.
  auto& q = queued_[c];
  while (q.empty()) {
    scenario::Op op = gen_->next();
    queued_[op.writer - 1].push_back(std::move(op));
  }
  scenario::Op op = std::move(q.front());
  q.pop_front();
  return op;
}

Bench::Source Bench::preload_source() {
  auto cursor = std::make_shared<std::array<std::uint64_t, kClients>>();
  return [this, cursor](int c) -> std::optional<Unit> {
    std::uint64_t& k = (*cursor)[c];
    if (k >= spec_.keys) return std::nullopt;
    Unit u;
    u.kind = Unit::Kind::kBatch;
    for (const std::uint64_t end = std::min(spec_.keys, k + kPreloadBatch); k < end; ++k) {
      Rng rng(args_.seed * 1'000'003 + static_cast<std::uint64_t>(c) * 7'919 + k);
      std::string value(rng.next_in(8, 64), 'a');
      for (char& ch : value) ch = static_cast<char>('a' + rng.next_below(26));
      u.ops.push_back(api::Op::put(scenario::key_name(k), std::move(value)));
    }
    return u;
  };
}

Bench::Source Bench::workload_source(std::size_t unit_limit) {
  auto issued = std::make_shared<std::size_t>(0);
  return [this, issued, unit_limit](int c) -> std::optional<Unit> {
    if (*issued >= unit_limit) return std::nullopt;
    ++*issued;
    Unit u;
    if (spec_.batch > 0) {
      u.kind = Unit::Kind::kBatch;
      for (std::size_t i = 0; i < spec_.batch; ++i) {
        scenario::Op op = next_op(c);  // batch specs draw puts only
        u.ops.push_back(api::Op::put(scenario::key_name(op.key), std::move(op.value)));
      }
      return u;
    }
    scenario::Op op = next_op(c);
    u.key = scenario::key_name(op.key);
    switch (op.kind) {
      case scenario::Op::Kind::kPut:
        u.kind = Unit::Kind::kPut;
        u.value = std::move(op.value);
        break;
      case scenario::Op::Kind::kGet: u.kind = Unit::Kind::kGet; break;
      case scenario::Op::Kind::kErase: u.kind = Unit::Kind::kErase; break;
    }
    return u;
  };
}

// --- The issuing thread ------------------------------------------------------------

void Bench::loop(const Source& next, std::int64_t deadline, Window* w) {
  if (stuck_) return;  // a slot still holds an op in flight
  int outstanding = 0;
  for (int c = 0; c < kClients; ++c) {
    if (auto u = next(c)) {
      issue(c, std::move(*u));
      ++outstanding;
    }
  }
  while (outstanding > 0) {
    std::uint32_t ready = 0;
    {
      std::unique_lock lock(mu_);
      if (!cv_.wait_for(lock, kOpTimeout, [this] { return ready_ != 0; })) {
        fail(static_cast<std::uint64_t>(outstanding), "an op never completed");
        stuck_ = true;
        return;
      }
      ready = std::exchange(ready_, 0);
    }
    for (int c = 0; c < kClients; ++c) {
      if ((ready & (1u << c)) == 0) continue;
      --outstanding;
      harvest(c, w);
      if (now_ns() >= deadline) continue;
      if (auto u = next(c)) {
        issue(c, std::move(*u));
        ++outstanding;
      }
    }
  }
}

void Bench::issue(int c, Unit u) {
  Slot& s = slots_[c];
  s.unit = std::move(u);
  s.op = next_op_id_++;
  const Unit& unit = s.unit;
  const auto writer = static_cast<ClientId>(c + 1);
  // Recorded before the call: another client may read the value before
  // this client's callback runs.
  if (unit.kind == Unit::Kind::kPut) note_written(unit.key, writer, unit.value);
  for (const api::Op& op : unit.ops) {
    if (op.kind == api::Op::Kind::kPut) note_written(op.key, writer, op.value);
  }
  attempted_ += unit.op_count();
  api::Store& store = *stores_[c];
  s.t_issue = now_ns();
  switch (unit.kind) {
    case Unit::Kind::kPut:
    case Unit::Kind::kErase: {
      auto done = [this, c](const api::PutResult& r) {
        Slot& slot = slots_[c];
        slot.put = r;
        slot.t_done = now_ns();
        if (r.ts != 0 && !r.failed) {
          trackers_[c][r.shard]->on_put(r.ts, slot.t_done, recording_, slot.op);
        }
        complete(c);
      };
      if (unit.kind == Unit::Kind::kPut) {
        store.put(unit.key, unit.value, std::move(done));
      } else {
        store.erase(unit.key, std::move(done));
      }
      break;
    }
    case Unit::Kind::kGet:
      store.get(unit.key, [this, c](const api::GetResult& r) {
        slots_[c].get = r;
        slots_[c].t_done = now_ns();
        complete(c);
      });
      break;
    case Unit::Kind::kBatch:
      store.apply(unit.ops, [this, c](const api::BatchResult& r) {
        Slot& slot = slots_[c];
        slot.batch = r;
        slot.t_done = now_ns();
        // One publication per shard per batch: each is one stability wait.
        std::set<std::pair<std::size_t, Timestamp>> pubs;
        for (const api::OpResult& o : r.results) {
          if (o.kind == api::Op::Kind::kPut && o.put.ts != 0 && !o.put.failed) {
            pubs.emplace(o.put.shard, o.put.ts);
          }
        }
        for (const auto& [shard, ts] : pubs) {
          trackers_[c][shard]->on_put(ts, slot.t_done, recording_, slot.op);
        }
        complete(c);
      });
      break;
  }
  s.t_ret = now_ns();
}

void Bench::complete(int c) {
  {
    std::lock_guard lock(mu_);
    ready_ |= 1u << c;
  }
  cv_.notify_one();
}

void Bench::harvest(int c, Window* w) {
  Slot& s = slots_[c];
  const Unit& u = s.unit;
  std::uint64_t mutations = 0;
  std::set<std::pair<std::size_t, Timestamp>> pubs;
  bool cached = false;
  switch (u.kind) {
    case Unit::Kind::kPut:
    case Unit::Kind::kErase:
      ++ops_on_shard_[s.put.shard];
      if (s.put.status != api::Status::kOk || s.put.failed) {
        fail(1, std::string(kind_name(u.kind)) + " " + u.key + " did not complete kOk");
      } else if (s.put.ts != 0) {
        mutations = 1;
        pubs.emplace(s.put.shard, s.put.ts);
      }
      break;
    case Unit::Kind::kGet:
      ++ops_on_shard_[s.get.shard];
      cached = s.get.cached;
      if (s.get.status != api::Status::kOk || s.get.failed) {
        fail(1, "get " + u.key + " did not complete kOk");
      } else if (s.get.entry && !was_written(u.key, *s.get.entry)) {
        fail(1, "get " + u.key + " returned a value never written for that key");
      }
      break;
    case Unit::Kind::kBatch: {
      std::uint64_t bad = s.batch.results.size() == u.ops.size() ? 0 : u.ops.size();
      for (const api::OpResult& o : s.batch.results) {
        ++ops_on_shard_[o.put.shard];
        if (o.put.status != api::Status::kOk || o.put.failed) {
          ++bad;
        } else if (o.put.ts != 0) {
          ++mutations;
          pubs.emplace(o.put.shard, o.put.ts);
        }
      }
      if (!s.batch.ok || bad > 0) fail(std::max<std::uint64_t>(bad, 1), "apply() batch failed");
      break;
    }
  }
  if (w == nullptr) return;
  const auto k = static_cast<std::size_t>(u.kind);
  ++w->units;
  w->ops += u.op_count();
  w->t_last = std::max(w->t_last, s.t_done);
  const auto slice = static_cast<std::size_t>((s.t_done - w->t0) / 1'000'000'000);
  if (w->slice_ops.size() <= slice) w->slice_ops.resize(slice + 1);
  w->slice_ops[slice] += u.op_count();
  w->mutations += mutations;
  w->publications += pubs.size();
  if (u.kind == Unit::Kind::kGet) {
    ++w->gets;
    if (cached) ++w->cached_gets;
  }
  w->lat[k].push_back(static_cast<float>(s.t_done - s.t_issue) / 1e3f);
  if (w->traced) {
    w->issue[k].push_back(static_cast<float>(s.t_ret - s.t_issue) / 1e3f);
    w->wait[k].push_back(static_cast<float>(s.t_done - s.t_ret) / 1e3f);
    const std::uint64_t root = next_span_id_++;
    spans_.push_back(Span{root, 0, s.op, kind_name(u.kind), s.t_issue, s.t_done});
    spans_.push_back(Span{next_span_id_++, root, s.op, "issue", s.t_issue, s.t_ret});
    spans_.push_back(Span{next_span_id_++, root, s.op, "wait", s.t_ret, s.t_done});
  }
}

void Bench::note_written(const std::string& key, ClientId writer, const std::string& value) {
  written_[key].push_back(value_tag(writer, value));
}

bool Bench::was_written(const std::string& key, const kv::KvEntry& e) const {
  const auto it = written_.find(key);
  return it != written_.end() &&
         std::find(it->second.begin(), it->second.end(), value_tag(e.writer, e.value)) !=
             it->second.end();
}

void Bench::fail(std::uint64_t ops, const std::string& why) {
  failed_ += ops;
  if (failures_logged_++ < 10) std::fprintf(stderr, "faust_perf: FAILED: %s\n", why.c_str());
}

// --- Windows and counters -------------------------------------------------------------

Window Bench::timed_window(bool traced) {
  Window w;
  w.traced = traced;
  if (traced) first_traced_op_ = next_op_id_;
  const Counters before = read_counters();
  recording_ = true;
  w.t0 = now_ns();
  w.t_last = w.t0;
  loop(workload_source(SIZE_MAX), w.t0 + static_cast<std::int64_t>(args_.seconds * 1e9), &w);
  recording_ = false;
  w.delta = read_counters() - before;
  return w;
}

Counters Bench::read_counters() {
  Counters k;
  const bool process = spec_.mode == shard::ExecMode::kProcess;
  for (std::size_t s = 0; s < sc_->shards(); ++s) {
    Cluster& shard = sc_->shard(s);
    // Client-side protocol state belongs to the shard's runtime thread.
    FAUST_CHECK(exec::post_sync(sc_->shard_exec(s), [&k, &shard] {
      for (ClientId c = 1; c <= kClients; ++c) {
        FaustClient& f = shard.client(c);
        const ustor::Client& e = f.engine();
        k.dummy_reads += f.dummy_reads();
        k.probes += f.probes_sent();
        k.versions += f.versions_received();
        k.retransmits += f.retransmits();
        k.engine_ops += e.completed_ops();
        k.stale_dropped += e.stale_replies_dropped();
        k.delta_advertised += e.delta_reads_advertised();
        k.delta_unchanged += e.delta_replies_unchanged();
        k.delta_spliced += e.delta_replies_spliced();
        k.delta_fallbacks += e.delta_fallbacks();
        k.verify_hits += e.verify_cache().hits();
        k.verify_misses += e.verify_cache().misses();
      }
      if (!shard.external_transport()) {
        k.net_msgs += shard.net().total().messages;
        k.net_bytes += shard.net().total().bytes;
      }
    }));
    if (auto* rt = dynamic_cast<rt::ThreadedRuntime*>(&sc_->shard_exec(s))) {
      k.rt_events += rt->executed();
    }
    if (sock::SocketTransport* t = sc_->shard_transport(s)) {
      const sock::WireStats ws = t->wire();
      k.frames += ws.frames_in + ws.frames_out;
      k.bytes_in += ws.socket_bytes_in;
      k.bytes_out += ws.socket_bytes_out;
      k.framing_out += ws.framing_bytes_out;
      k.reconnects += ws.reconnects;
      k.drops += ws.overflow_drops + ws.down_drops + ws.unroutable_drops + ws.fenced_drops;
      const auto by_type = t->total_by_type();
      for (std::size_t i = 0; i < by_type.size(); ++i) k.type_bytes[i] += by_type[i].bytes;
    }
    if (process) {
      std::error_code ec;
      const auto size = fs::file_size(dir_ + "/shard_" + std::to_string(s) + "/wal.log", ec);
      if (!ec) k.wal_bytes += size;
    }
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  k.self_user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec / 1e6;
  k.self_sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec / 1e6;
  for (pid_t pid : worker_pids()) {
    if (const auto st = read_stat(pid)) {
      k.worker_user_s += st->user_s;
      k.worker_sys_s += st->sys_s;
    }
  }
  std::tie(k.host_ticks, k.host_steal) = host_cpu_ticks();
  return k;
}

void Bench::drain_stability() {
  const std::int64_t give_up = now_ns() + kStableDrainNs;
  std::size_t left = 0;
  do {
    left = 0;
    for (auto& per_client : trackers_) {
      for (auto& t : per_client) left += t->recorded_pending();
    }
    if (left == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  } while (now_ns() < give_up);
  if (left > 0) std::printf("stability: %zu window puts not yet stable after 10 s\n", left);
  for (auto& per_client : trackers_) {
    for (auto& t : per_client) t->take(stable_us_, spans_);
  }
}

void Bench::check_views() {
  std::optional<crypto::Hash> first;
  for (int c = 0; c < kClients; ++c) {
    ++attempted_;
    const api::ListResult r = stores_[c]->list().wait();
    if (!r.complete) {
      fail(1, "list() of client " + std::to_string(c + 1) + " is incomplete");
      continue;
    }
    for (const auto& [key, entry] : r.entries) {
      if (!was_written(key, entry)) fail(1, "list() holds a value never written for " + key);
    }
    const crypto::Hash d = scenario::merged_view_digest(r.entries);
    if (!first) {
      first = d;
    } else if (d != *first) {
      fail(1, "list() of client " + std::to_string(c + 1) + " differs from client 1's view");
    }
  }
  for (std::size_t s = 0; s < spec_.shards; ++s) {
    bool fired = (failed_shards_ & (1u << s)) != 0;
    for (const auto& store : stores_) fired = fired || store->failed(s);
    if (fired) {
      fail(std::max<std::uint64_t>(1, ops_on_shard_[s]),
           "fail_i fired on shard " + std::to_string(s));
    }
  }
}

// --- Output ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.10g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void Bench::write_spans() {
  const fs::path dir = fs::path(args_.workdir).parent_path() / "traces";
  fs::create_directories(dir);
  const fs::path file = dir / (spec_.name + std::string("-seed") + std::to_string(args_.seed) +
                               ".spans.tsv");
  std::ofstream out(file);
  out << "id\tparent\top\tname\tstart_ns\tend_ns\n";
  std::size_t written = 0;
  for (const Span& s : spans_) {
    if (s.op != 0 && s.op < first_traced_op_) continue;  // the untraced window's stability waits
    out << s.id << '\t' << s.parent << '\t' << s.op << '\t' << s.name << '\t' << s.start
        << '\t' << s.end << '\n';
    ++written;
  }
  std::printf("trace: %zu spans written to %s\n", written, file.string().c_str());
}

void Bench::report(const std::vector<SetupTimes>& setups, const Window& w,
                   const Window* untraced) {
  const Counters& d = w.delta;
  const double ops = static_cast<double>(w.ops);
  const double secs = w.seconds();
  const double client_cpu = d.self_user_s + d.self_sys_s;
  const double worker_cpu = d.worker_user_s + d.worker_sys_s;
  const bool process = spec_.mode == shard::ExecMode::kProcess;
  const double wire = process ? static_cast<double>(d.bytes_in + d.bytes_out)
                              : static_cast<double>(d.net_bytes);
  std::vector<double> setup_total, deploy, open, preload, warm, spawn, rss;
  for (const SetupTimes& t : setups) {
    setup_total.push_back(t.total());
    deploy.push_back(t.deploy_s);
    open.push_back(t.open_s);
    preload.push_back(t.preload_s);
    warm.push_back(t.warm_s);
    spawn.push_back(t.spawn_ms);
    rss.push_back(t.rss_mb);
  }
  const auto lat_kind = static_cast<std::size_t>(spec_.lat);

  std::printf("workload %s: seed %llu, cluster seed %llu, %zu shards (%s), K=%llu, %d clients\n",
              spec_.name, static_cast<unsigned long long>(args_.seed),
              static_cast<unsigned long long>(kClusterSeed), spec_.shards,
              process ? "faust_sockd workers over loopback TCP" : "threaded, memory-only",
              static_cast<unsigned long long>(spec_.keys), kClients);
  if (spec_.cache) {
    const cache::CacheOptions co;
    const std::uint64_t scale = sock::ProcessOptions{}.timer_scale;
    const double tick_us = static_cast<double>(sock::ProcessOptions{}.tick.count()) / 1e3;
    std::printf("cache: ttl %llu ticks x%llu = %.3f s, arena %zu MiB per shard\n",
                static_cast<unsigned long long>(co.ttl), static_cast<unsigned long long>(scale),
                static_cast<double>(co.ttl * scale) * tick_us / 1e6, co.arena_bytes >> 20);
  }
  std::printf("window: %.3f s, %llu ops in %llu units; fail_frac %.6g (%llu of %llu)\n", secs,
              static_cast<unsigned long long>(w.ops), static_cast<unsigned long long>(w.units),
              ratio(static_cast<double>(failed_), static_cast<double>(attempted_)),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  // Latency from the untraced window; the api split from this window's
  // spans (self time inside the Store call, and the wait below it).
  const Window& plain = untraced != nullptr ? *untraced : w;
  for (std::size_t k = 0; k < 4; ++k) {
    if (plain.lat[k].empty()) continue;
    std::printf("  %-5s p50 %.1f us, p99 %.1f us over %zu samples",
                kind_name(static_cast<Unit::Kind>(k)), percentile(plain.lat[k], 0.5),
                percentile(plain.lat[k], 0.99), plain.lat[k].size());
    if (w.traced) {
      std::printf("; api issue p50 %.2f us, wait p50 %.1f us", percentile(w.issue[k], 0.5),
                  percentile(w.wait[k], 0.5));
    }
    std::printf("\n");
  }
  std::printf("  ops per second of the window:");
  for (std::uint64_t n : w.slice_ops) std::printf(" %llu", static_cast<unsigned long long>(n));
  std::printf("\n  setup reps:");
  for (const SetupTimes& t : setups) std::printf(" %.3f s", t.total());
  std::printf("\n");
  std::printf("  stable p50 %.1f us, p99 %.1f us over %zu puts\n",
              percentile(stable_us_, 0.5), percentile(stable_us_, 0.99), stable_us_.size());

  std::vector<Metric> m;
  if (!args_.trace) {
    m = {
        {"ops_per_s", ratio(ops, secs), "1/s"},
        {"lat_p50_us", percentile(w.lat[lat_kind], 0.5), "us"},
        {"lat_p99_us", percentile(w.lat[lat_kind], 0.99), "us"},
        {"stable_p50_us", percentile(stable_us_, 0.5), "us"},
        {"stable_p99_us", percentile(stable_us_, 0.99), "us"},
        {"wire_bytes_per_op", ratio(wire, ops), "B"},
        {"cpu_us_per_op", ratio((client_cpu + worker_cpu) * 1e6, ops), "us"},
        {"setup_s", median(setup_total), "s"},
        {"rss_mb", median(rss), "MB"},
    };
    std::printf("lat = %s latency\n", kind_name(spec_.lat));
  } else {
    std::vector<float> issue_all, wait_all;
    for (std::size_t k = 0; k < 4; ++k) {
      issue_all.insert(issue_all.end(), w.issue[k].begin(), w.issue[k].end());
      wait_all.insert(wait_all.end(), w.wait[k].begin(), w.wait[k].end());
    }
    const double gets = static_cast<double>(w.gets);
    const double advertised = static_cast<double>(d.delta_advertised);
    const double verifies = static_cast<double>(d.verify_hits + d.verify_misses);
    const auto type_per_op = [&](std::uint8_t tag) {
      return ratio(static_cast<double>(d.type_bytes[tag]), ops);
    };
    const double us_per_op_traced = ratio(secs * 1e6, ops);
    const double us_per_op_plain =
        ratio(plain.seconds() * 1e6, static_cast<double>(plain.ops));
    m = {
        {"setup.deploy_s", median(deploy), "s"},
        {"setup.open_s", median(open), "s"},
        {"setup.spawn_ms", median(spawn), "ms"},
        {"setup.preload_s", median(preload), "s"},
        {"setup.warm_s", median(warm), "s"},
        {"api.issue_us", percentile(issue_all, 0.5), "us"},
        {"api.wait_us", percentile(wait_all, 0.5), "us"},
        {"api.mutations_per_publication",
         ratio(static_cast<double>(w.mutations), static_cast<double>(w.publications)), "count"},
        {"put_p50_us", percentile(plain.lat[0], 0.5), "us"},
        {"put_p99_us", percentile(plain.lat[0], 0.99), "us"},
        {"get_p50_us", percentile(plain.lat[2], 0.5), "us"},
        {"get_p99_us", percentile(plain.lat[2], 0.99), "us"},
        {"batch_p50_us", percentile(plain.lat[3], 0.5), "us"},
        {"batch_p99_us", percentile(plain.lat[3], 0.99), "us"},
        {"rt.events_per_op", ratio(static_cast<double>(d.rt_events), ops), "count"},
        {"faust.dummy_reads_per_s", ratio(static_cast<double>(d.dummy_reads), secs), "1/s"},
        {"faust.probes_per_s", ratio(static_cast<double>(d.probes), secs), "1/s"},
        {"faust.versions_per_s", ratio(static_cast<double>(d.versions), secs), "1/s"},
        {"faust.retransmits", static_cast<double>(d.retransmits), "count"},
        {"ustor.engine_ops_per_op", ratio(static_cast<double>(d.engine_ops), ops), "count"},
        {"ustor.reply_delta_frac",
         ratio(static_cast<double>(d.delta_unchanged + d.delta_spliced), advertised), "fraction"},
        {"ustor.delta_fallback_frac", ratio(static_cast<double>(d.delta_fallbacks), advertised),
         "fraction"},
        {"ustor.stale_replies_dropped", static_cast<double>(d.stale_dropped), "count"},
        {"crypto.verify_hit_rate", ratio(static_cast<double>(d.verify_hits), verifies),
         "fraction"},
        {"crypto.verifies_per_op", ratio(verifies, ops), "count"},
        {"cache.cached_get_frac", ratio(static_cast<double>(w.cached_gets), gets), "fraction"},
        {"cache.lookup_bytes_per_get",
         ratio(static_cast<double>(d.type_bytes[6] + d.type_bytes[7]), gets), "B"},
        {"sock.frames_per_op", ratio(static_cast<double>(d.frames), ops), "count"},
        {"sock.bytes_in_per_op", ratio(static_cast<double>(d.bytes_in), ops), "B"},
        {"sock.bytes_out_per_op", ratio(static_cast<double>(d.bytes_out), ops), "B"},
        {"sock.framing_frac",
         ratio(static_cast<double>(d.framing_out), static_cast<double>(d.bytes_out)), "fraction"},
        {"sock.bytes_per_op.submit", type_per_op(1), "B"},
        {"sock.bytes_per_op.reply", type_per_op(2), "B"},
        {"sock.bytes_per_op.commit", type_per_op(3), "B"},
        {"sock.bytes_per_op.submit_delta", type_per_op(4), "B"},
        {"sock.bytes_per_op.reply_delta", type_per_op(5), "B"},
        {"sock.bytes_per_op.cache_get", type_per_op(6), "B"},
        {"sock.bytes_per_op.cache_reply", type_per_op(7), "B"},
        {"sock.bytes_per_op.cache_fill", type_per_op(8), "B"},
        {"sock.reconnects", static_cast<double>(d.reconnects), "count"},
        {"sock.drops", static_cast<double>(d.drops), "count"},
        {"net.msgs_per_op", ratio(static_cast<double>(d.net_msgs), ops), "count"},
        {"net.bytes_per_op", ratio(static_cast<double>(d.net_bytes), ops), "B"},
        {"storage.wal_records_per_op",
         ratio(static_cast<double>(wal_records_), static_cast<double>(lifetime_engine_ops_)),
         "count"},
        {"storage.wal_bytes_per_op", ratio(static_cast<double>(d.wal_bytes), ops), "B"},
        {"storage.snapshots_per_kop",
         ratio(static_cast<double>(snapshots_) * 1e3, static_cast<double>(lifetime_engine_ops_)),
         "count"},
        {"storage.duplicate_replies", static_cast<double>(duplicate_replies_), "count"},
        {"client.cpu_us_per_op", ratio(client_cpu * 1e6, ops), "us"},
        {"client.sys_us_per_op", ratio(d.self_sys_s * 1e6, ops), "us"},
        {"worker.cpu_us_per_op", ratio(worker_cpu * 1e6, ops), "us"},
        {"worker.sys_us_per_op", ratio(d.worker_sys_s * 1e6, ops), "us"},
        {"worker.rss_mb", worker_rss_mb_, "MB"},
        {"cores_busy", ratio(client_cpu + worker_cpu, secs), "count"},
        {"host.steal_frac",
         ratio(static_cast<double>(d.host_steal), static_cast<double>(d.host_ticks)), "fraction"},
        {"fail_frac", ratio(static_cast<double>(failed_), static_cast<double>(attempted_)),
         "fraction"},
        {"trace.overhead_us_per_op", us_per_op_traced - us_per_op_plain, "us"},
        {"trace.overhead_frac", ratio(us_per_op_traced - us_per_op_plain, us_per_op_plain),
         "fraction"},
    };
  }
  for (const Metric& x : m) std::printf("  %-32s %14.6g %s\n", x.name.c_str(), x.value, x.unit);
  print_json(failed_ == 0, attempted_, failed_, m);
}

int Bench::run() {
  const std::string base = args_.workdir;
  // Heat: an untimed pass of the same workload, so nothing below is
  // timed on a machine that was idle a moment ago.
  setup(base + "/heat");
  loop(workload_source(SIZE_MAX), now_ns() + static_cast<std::int64_t>(kHeatSeconds * 1e9),
       nullptr);
  teardown();

  std::vector<SetupTimes> setups;
  for (int r = 0; r < kSetupReps && !stuck_; ++r) {
    setups.push_back(setup(base + "/rep" + std::to_string(r)));
    if (r + 1 < kSetupReps) teardown();
  }
  std::optional<Window> plain;
  if (!stuck_) plain = timed_window(false);
  std::optional<Window> traced;
  if (args_.trace && !stuck_) traced = timed_window(true);
  if (!stuck_) {
    drain_stability();
    check_views();
    lifetime_engine_ops_ = read_counters().engine_ops;
  }
  teardown();
  if (stuck_ || !plain) {
    std::fprintf(stderr, "faust_perf: run abandoned\n");
    return 1;
  }
  if (traced) {
    write_spans();
    report(setups, *traced, &*plain);
  } else {
    report(setups, *plain, nullptr);
  }
  return failed_ == 0 ? 0 : 1;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "faust_perf: %s\nusage: faust_perf --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = v;
      } else if (flag == "--seed") {
        args.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(v);
      } else if (flag == "--trace") {
        args.trace = std::stoi(v) != 0;
      } else if (flag == "--workdir") {
        args.workdir = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (args.workdir.empty()) usage("--workdir is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) usage("unknown workload '" + args.workload + "'");
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Bench bench(*spec, args);
  const int rc = bench.run();
  std::error_code ec;
  fs::remove_all(args.workdir, ec);
  return rc;
}
