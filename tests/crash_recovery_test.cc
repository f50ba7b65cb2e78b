// Crash-durability integration tests (DESIGN.md D7): transient server
// crashes with epoch-fenced in-flight traffic, snapshot-based recovery
// re-verified through the chunk-tree digest, Byzantine-disk fallback to
// log replay, exactly-once resume of in-flight client operations, and
// kill/restart of whole shards in both execution modes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/chunked_hasher.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "faust/cluster.h"
#include "net/network.h"
#include "shard/sharded_cluster.h"
#include "shard/sharded_kv_client.h"
#include "sim/scheduler.h"
#include "storage/persistent_server.h"
#include "storage/snapshot_store.h"
#include "ustor/client.h"
#include "ustor/state_codec.h"
#include "wire/encoder.h"

namespace faust {
namespace {

/// Fresh temp directory per test; removed recursively on destruction.
struct TempDirFixture {
  std::string path;
  explicit TempDirFixture(const std::string& tag) {
    path = std::string(::testing::TempDir()) + "/faust_crash_" + tag + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDirFixture() { std::filesystem::remove_all(path); }
};

// --- Delta-wire helpers (D6 clients against a durable server) --------------

/// A client on the D6 delta wire: chunk-tree digests, deltas on.
std::unique_ptr<ustor::Client> delta_client(ClientId id, int n,
                                            std::shared_ptr<const crypto::SignatureScheme> sigs,
                                            net::Transport& net) {
  return std::make_unique<ustor::Client>(id, n, std::move(sigs), net, kServerNode, 4096,
                                         ustor::DigestMode::kChunked);
}

/// A 4 KiB register value; `edits` stamps distinct bytes at a few offsets,
/// so consecutive versions differ in a handful of bytes.
Bytes big_value(std::uint8_t fill, int edits) {
  Bytes v(4096, fill);
  for (int e = 0; e < edits; ++e) {
    v[static_cast<std::size_t>(512 * e + 7)] = static_cast<std::uint8_t>(e + 1);
  }
  return v;
}

void drive(sim::Scheduler& sched, const bool& done) {
  while (!done && sched.step()) {
  }
  ASSERT_TRUE(done);
}

void write_full(sim::Scheduler& sched, ustor::Client& c, const Bytes& v) {
  bool done = false;
  c.writex(v, [&done](const ustor::WriteResult&) { done = true; });
  drive(sched, done);
}

/// Publishes `next` as one splice over the bytes where it differs from
/// `prev`, the writer's previous value.
void write_delta(sim::Scheduler& sched, ustor::Client& c, const Bytes& prev, const Bytes& next) {
  ASSERT_EQ(prev.size(), next.size());
  std::size_t lo = 0, hi = next.size();
  while (lo < hi && prev[lo] == next[lo]) ++lo;
  while (hi > lo && prev[hi - 1] == next[hi - 1]) --hi;
  std::vector<ustor::Splice> splices{
      ustor::Splice{lo, hi - lo, Bytes(next.begin() + static_cast<std::ptrdiff_t>(lo),
                                       next.begin() + static_cast<std::ptrdiff_t>(hi))}};
  bool done = false;
  c.writex_delta(crypto::ChunkedHasher::digest(prev), crypto::ChunkedHasher::digest(next),
                 next.size(), std::move(splices),
                 [&done](const ustor::WriteResult&) { done = true; });
  drive(sched, done);
}

ustor::Value read_sync(sim::Scheduler& sched, ustor::Client& c, ClientId j) {
  bool done = false;
  ustor::Value v;
  c.readx(j, [&](const ustor::ReadResult& r) {
    v = r.value;
    done = true;
  });
  drive(sched, done);
  return v;
}

bool is_reply_delta(const Bytes& reply) {
  return ustor::peek_type(reply) == ustor::MsgType::kReplyDelta;
}

/// SHA-256 of `data` in hex, for pinning durable bytes.
std::string hex_sha256(BytesView data) {
  std::string out;
  char buf[3];
  for (const std::uint8_t b : crypto::Sha256::digest(data)) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    out += buf;
  }
  return out;
}

Bytes read_file(const std::string& path) {
  Bytes out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  std::uint8_t buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.insert(out.end(), buf, buf + got);
  std::fclose(f);
  return out;
}

// --- Exactly-once resume at the protocol layer ----------------------------

TEST(CrashRecovery, DuplicateSubmitServedFromReplyCache) {
  // The server crashes after processing (and logging) a SUBMIT but before
  // its REPLY is delivered. The reconnecting client resends the identical
  // SUBMIT; the recovered server must recognise the duplicate (the submit
  // timestamp doubles as a per-client sequence number) and serve the
  // CACHED original reply — reprocessing would append a second L entry
  // and trip the client's self-concurrency check.
  constexpr int kN = 2;
  TempDirFixture dir("dup");
  sim::Scheduler sched;
  net::Network net(sched, Rng(3), net::DelayModel{1, 1});
  auto sigs = crypto::make_hmac_scheme(kN);
  auto server = std::make_unique<storage::PersistentServer>(kN, net, dir.path,
                                                            storage::DurabilityOptions{});
  ustor::Client c1(1, kN, sigs, net);
  ustor::Client c2(2, kN, sigs, net);

  bool done = false;
  c1.writex(to_bytes("first"), [&done](const ustor::WriteResult&) { done = true; });
  while (!done && sched.step()) {
  }
  ASSERT_TRUE(done);
  sched.run();  // drain the trailing COMMIT into the log

  done = false;
  c1.writex(to_bytes("in-flight"), [&done](const ustor::WriteResult&) { done = true; });
  const std::uint64_t before = server->wal_records();
  while (server->wal_records() == before && sched.step()) {
  }
  ASSERT_GT(server->wal_records(), before) << "SUBMIT must be logged";
  ASSERT_FALSE(done) << "the REPLY must still be in flight";

  net.kill(kServerNode);  // drops the undelivered REPLY via the epoch fence
  server.reset();
  sched.run();

  server = std::make_unique<storage::PersistentServer>(kN, net, dir.path,
                                                       storage::DurabilityOptions{});
  EXPECT_GT(server->recovered_records(), 0u);
  c1.resubmit();
  while (!done && sched.step()) {
  }
  ASSERT_TRUE(done) << "the resumed op must complete";
  EXPECT_EQ(server->duplicate_replies(), 1u)
      << "the resent SUBMIT must be served from the cache, not reprocessed";
  sched.run();

  // The value is durable and visible; nobody fired fail_i.
  done = false;
  ustor::Value v;
  c2.readx(1, [&](const ustor::ReadResult& r) {
    v = r.value;
    done = true;
  });
  while (!done && sched.step()) {
  }
  ASSERT_TRUE(done);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_string(*v), "in-flight");
  EXPECT_FALSE(c1.failed());
  EXPECT_FALSE(c2.failed());
}

// --- Snapshot recovery ----------------------------------------------------

TEST(CrashRecovery, SnapshotRecoveryMatchesFullReplay) {
  // The same on-disk history recovered two ways — verified snapshot plus
  // log suffix, and full log replay — must yield byte-identical protocol
  // state (the canonical state-codec image makes this one comparison) and
  // byte-identical reply caches. The history mixes full and delta writes
  // with advertised-base reads on both sides of the snapshot; the suffix
  // reads are answered with splices recorded BEFORE the snapshot, so the
  // image must carry the delta history for the suffix to re-encode them,
  // and a full write in the suffix must discard the history it restored.
  constexpr int kN = 2;
  TempDirFixture dir("equiv");
  sim::Scheduler sched;
  net::Network net(sched, Rng(11), net::DelayModel{1, 4});
  auto sigs = crypto::make_hmac_scheme(kN);
  auto c1 = delta_client(1, kN, sigs, net);
  auto c2 = delta_client(2, kN, sigs, net);
  const Bytes a0 = big_value('a', 0), a1 = big_value('a', 1), a2 = big_value('a', 2);
  const Bytes b0 = big_value('b', 0), b1 = big_value('b', 1), b2 = big_value('b', 2);

  {
    storage::PersistentServer server(kN, net, dir.path, storage::DurabilityOptions{});
    write_full(sched, *c1, a0);
    write_full(sched, *c2, b0);
    ASSERT_EQ(read_sync(sched, *c2, 1), a0);  // memoizes the a0 base
    ASSERT_EQ(read_sync(sched, *c1, 2), b0);  // memoizes the b0 base
    write_delta(sched, *c1, a0, a1);
    write_delta(sched, *c2, b0, b1);
    sched.run();
    ASSERT_TRUE(server.force_snapshot());

    // A couple more ops AFTER the snapshot, so recovery exercises the
    // snapshot + suffix path, not snapshot-only.
    write_delta(sched, *c1, a1, a2);
    ASSERT_EQ(read_sync(sched, *c2, 1), a2);  // splices a0→a1→a2
    ASSERT_EQ(read_sync(sched, *c1, 2), b1);  // splices b0→b1
    sched.run();
    EXPECT_EQ(c1->delta_replies_spliced() + c2->delta_replies_spliced(), 2u);
    for (const Bytes& reply : server.cached_replies()) EXPECT_TRUE(is_reply_delta(reply));
    // A full SUBMIT replaces X_2 and discards its delta history, so the
    // next read of X_2 against the b1 base gets the whole value.
    write_full(sched, *c2, b2);
    ASSERT_EQ(read_sync(sched, *c1, 2), b2);
    sched.run();
    EXPECT_EQ(c1->delta_replies_spliced() + c2->delta_replies_spliced(), 2u);
    EXPECT_FALSE(is_reply_delta(server.cached_replies()[0]));
    net.kill(kServerNode);
  }

  Bytes via_snapshot;
  std::vector<Bytes> replies_via_snapshot;
  std::size_t suffix_records = 0;
  {
    storage::PersistentServer server(kN, net, dir.path, storage::DurabilityOptions{});
    EXPECT_TRUE(server.recovered_from_snapshot());
    suffix_records = server.recovered_records();
    via_snapshot = ustor::encode_server_state(server.core());
    replies_via_snapshot = server.cached_replies();
    net.kill(kServerNode);
  }
  Bytes snapshot_payload;
  {
    storage::SnapshotStore store(dir.path + "/snapshot.bin");
    auto img = store.load();
    ASSERT_TRUE(img.has_value());
    snapshot_payload = img->payload;
  }
  ASSERT_TRUE(std::filesystem::remove(dir.path + "/snapshot.bin"));
  Bytes via_replay;
  std::vector<Bytes> replies_via_replay;
  {
    storage::PersistentServer server(kN, net, dir.path, storage::DurabilityOptions{});
    EXPECT_FALSE(server.recovered_from_snapshot());
    EXPECT_GT(server.recovered_records(), suffix_records)
        << "full replay must deliver more records than the suffix";
    via_replay = ustor::encode_server_state(server.core());
    replies_via_replay = server.cached_replies();
    net.kill(kServerNode);
  }
  EXPECT_EQ(via_snapshot, via_replay)
      << "snapshot + suffix and full replay must reach identical state";
  EXPECT_EQ(replies_via_snapshot, replies_via_replay)
      << "snapshot + suffix and full replay must cache identical reply bytes";
  EXPECT_FALSE(c1->failed());
  EXPECT_FALSE(c2->failed());

  // The durable format is pinned (durable_format_test.cc has the full set
  // of record kinds): every later server build must write these bytes.
  wire::Writer replies;
  for (const Bytes& r : replies_via_replay) replies.put_bytes(r);
  EXPECT_EQ(hex_sha256(read_file(dir.path + "/wal.log")),
            "84769e7e74b69c94ddb532ea1005699fd49c0568602c6c6f6bbd6be6f93ad27d");
  EXPECT_EQ(hex_sha256(snapshot_payload),
            "dcba22bd9ba1f991df43efa3f2ea4dbb1afc56de5d712f78e1139a6ccddbaff8");
  EXPECT_EQ(hex_sha256(replies.buffer()),
            "fd57e3d30114d662d0bb0af2fdf2f13d58e2423f77ddf91db241b1fce670e03e");
}

/// Forwards to a Network and records each client's latest SUBMIT and
/// every message the server sends.
class TapTransport : public net::Transport {
 public:
  explicit TapTransport(net::Network& inner) : inner_(inner) {}
  void attach(NodeId id, net::Node& node) override { inner_.attach(id, node); }
  void detach(NodeId id) override { inner_.detach(id); }
  void send(NodeId from, NodeId to, Bytes msg) override {
    if (to == kServerNode && ustor::peek_type(msg) != ustor::MsgType::kCommit) {
      last_submit[from] = msg;
    }
    if (from == kServerNode) from_server[to].push_back(msg);
    inner_.send(from, to, std::move(msg));
  }

  std::map<NodeId, Bytes> last_submit;
  std::map<NodeId, std::vector<Bytes>> from_server;

 private:
  net::Network& inner_;
};

TEST(CrashRecovery, DuplicateDeltaReadAfterSnapshotRecoveryGetsOriginalBytes) {
  // D10 chaos can deliver a duplicate of a SUBMIT long after its reply
  // arrived, even after a server restart. The restarted server answers it
  // from the reply cache, and the client drops the answer as an echo only
  // if its bytes match the reply it already processed. Here the read's
  // REPLY_DELTA splices a record written before the snapshot and the read
  // itself is in the log suffix: recovery must re-encode it byte for byte.
  constexpr int kN = 2;
  TempDirFixture dir("dup_delta");
  sim::Scheduler sched;
  net::Network net(sched, Rng(31), net::DelayModel{1, 4});
  TapTransport tap(net);
  auto sigs = crypto::make_hmac_scheme(kN);
  auto c1 = delta_client(1, kN, sigs, tap);
  auto c2 = delta_client(2, kN, sigs, tap);
  const Bytes a0 = big_value('a', 0), a1 = big_value('a', 1);

  auto server = std::make_unique<storage::PersistentServer>(kN, tap, dir.path,
                                                            storage::DurabilityOptions{});
  write_full(sched, *c1, a0);
  ASSERT_EQ(read_sync(sched, *c2, 1), a0);
  write_delta(sched, *c1, a0, a1);
  sched.run();
  ASSERT_TRUE(server->force_snapshot());

  ASSERT_EQ(read_sync(sched, *c2, 1), a1);
  ASSERT_EQ(c2->delta_replies_spliced(), 1u);
  const Bytes read_submit = tap.last_submit.at(2);
  const Bytes original_reply = tap.from_server.at(2).back();
  ASSERT_TRUE(is_reply_delta(original_reply));
  sched.run();  // drain the trailing COMMIT into the log

  net.kill(kServerNode);
  server.reset();
  sched.run();
  server = std::make_unique<storage::PersistentServer>(kN, tap, dir.path,
                                                       storage::DurabilityOptions{});
  ASSERT_TRUE(server->recovered_from_snapshot());

  tap.send(2, kServerNode, read_submit);  // the late duplicate
  sched.run();
  EXPECT_EQ(server->duplicate_replies(), 1u);
  EXPECT_EQ(tap.from_server.at(2).back(), original_reply)
      << "the cache must answer with the bytes the live run sent";
  EXPECT_EQ(c2->stale_replies_dropped(), 1u) << "the echo must be recognised and dropped";
  EXPECT_FALSE(c1->failed());
  EXPECT_FALSE(c2->failed());
}

TEST(CrashRecovery, OldFormatSnapshotFallsBackToFullReplay) {
  // Images of an older state-codec format lack the delta history; they are
  // refused by their format magic, and recovery replays the whole log —
  // the same fallback as for a snapshot that fails its integrity check.
  constexpr int kN = 2;
  TempDirFixture dir("old_format");
  sim::Scheduler sched;
  net::Network net(sched, Rng(37), net::DelayModel{1, 4});
  auto sigs = crypto::make_hmac_scheme(kN);
  auto c1 = delta_client(1, kN, sigs, net);
  auto c2 = delta_client(2, kN, sigs, net);
  const Bytes a0 = big_value('a', 0), a1 = big_value('a', 1);

  Bytes state_before;
  {
    storage::PersistentServer server(kN, net, dir.path, storage::DurabilityOptions{});
    write_full(sched, *c1, a0);
    ASSERT_EQ(read_sync(sched, *c2, 1), a0);
    write_delta(sched, *c1, a0, a1);
    sched.run();
    ASSERT_TRUE(server.force_snapshot());
    state_before = ustor::encode_server_state(server.core());
    net.kill(kServerNode);
  }

  // Rewrite the snapshot with the image's magic set to format 1 ("FST1").
  // The payload is u32 image length ‖ image ‖ replies; the magic is the
  // image's first u32.
  {
    storage::SnapshotStore store(dir.path + "/snapshot.bin");
    auto img = store.load();
    ASSERT_TRUE(img.has_value());
    Bytes payload = img->payload;
    ASSERT_GT(payload.size(), 8u);
    ASSERT_EQ(payload[4], 0x32);  // low byte of "FST2"
    payload[4] = 0x31;
    ASSERT_TRUE(store.save(img->log_records, payload));
  }

  storage::PersistentServer server(kN, net, dir.path, storage::DurabilityOptions{});
  EXPECT_FALSE(server.recovered_from_snapshot());
  EXPECT_EQ(server.recovered_records(), server.wal_records()) << "fallback is full log replay";
  EXPECT_EQ(ustor::encode_server_state(server.core()), state_before);
  ASSERT_EQ(read_sync(sched, *c2, 1), a1);
  EXPECT_FALSE(c1->failed());
  EXPECT_FALSE(c2->failed());
}

TEST(CrashRecovery, TamperedSnapshotRejectedFallsBackToLogReplay) {
  // Byzantine disk: a snapshot whose payload was altered under its stored
  // chunk-tree root must be REJECTED at restart (the root re-verification
  // is the same ChunkedHasher machinery the wire verifiers use), and
  // recovery must fall back to full log replay — reaching correct state,
  // with the rejection surfaced in a counter. Clients never notice.
  constexpr int kN = 2;
  TempDirFixture dir("tamper");
  sim::Scheduler sched;
  net::Network net(sched, Rng(23), net::DelayModel{1, 4});
  auto sigs = crypto::make_hmac_scheme(kN);
  ustor::Client c1(1, kN, sigs, net);
  ustor::Client c2(2, kN, sigs, net);

  std::vector<ustor::ScheduledOp> schedule_before;
  {
    storage::DurabilityOptions opts;
    opts.snapshot_every = 2;
    storage::PersistentServer server(kN, net, dir.path, opts);
    for (int i = 0; i < 4; ++i) {
      bool done = false;
      c1.writex(to_bytes("value-" + std::to_string(i)),
                [&done](const ustor::WriteResult&) { done = true; });
      while (!done && sched.step()) {
      }
      ASSERT_TRUE(done);
      sched.run();
    }
    ASSERT_GE(server.snapshots_written(), 1u);
    schedule_before = server.core().schedule();
    net.kill(kServerNode);
  }

  // Flip one payload byte of the snapshot; the stored root is now stale.
  const std::string snap_path = dir.path + "/snapshot.bin";
  {
    std::FILE* f = std::fopen(snap_path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -1, SEEK_END);
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }

  storage::PersistentServer server(kN, net, dir.path, storage::DurabilityOptions{});
  EXPECT_EQ(server.snapshots_rejected(), 1u) << "the tampered snapshot must be refused";
  EXPECT_FALSE(server.recovered_from_snapshot());
  EXPECT_GT(server.recovered_records(), 0u) << "fallback is full log replay";
  EXPECT_EQ(server.core().schedule(), schedule_before)
      << "replay must reconstruct the exact schedule despite the bad snapshot";

  // The deployment keeps working: fail-awareness evidence (memos, COMMIT
  // chain) is intact, reads see the last value, no fail_i.
  bool done = false;
  ustor::Value v;
  c2.readx(1, [&](const ustor::ReadResult& r) {
    v = r.value;
    done = true;
  });
  while (!done && sched.step()) {
  }
  ASSERT_TRUE(done);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_string(*v), "value-3");
  EXPECT_FALSE(c1.failed());
  EXPECT_FALSE(c2.failed());
}

// --- Cluster-level crash/restart ------------------------------------------

TEST(CrashRecovery, ClusterCrashRestartMidOpResumesExactlyOnce) {
  // A full FAUST deployment: the server dies with a write in flight and
  // comes back after a downtime; the op must resume and complete against
  // the recovered server, with fail-awareness preserved throughout.
  TempDirFixture dir("cluster");
  ClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 7;
  cfg.durability_dir = dir.path;
  cfg.durability.snapshot_every = 4;
  cfg.faust.dummy_read_period = 0;
  cfg.faust.probe_check_period = 0;
  Cluster cl(cfg);
  ASSERT_TRUE(cl.durable());
  ASSERT_NE(cl.pserver(), nullptr);
  ASSERT_EQ(cl.server(), nullptr);

  ASSERT_GT(cl.write(1, "pre-crash"), 0u);
  ASSERT_GT(cl.write(2, "other-writer"), 0u);

  bool done = false;
  Timestamp ts = 0;
  cl.client(1).write(to_bytes("mid-op"), [&](Timestamp t) {
    ts = t;
    done = true;
  });
  cl.run_for(1);  // the SUBMIT is now in flight (or just processed)
  cl.crash_server();
  EXPECT_FALSE(cl.server_up());

  cl.exec().after(2'000, [&] { cl.restart_server(); });
  std::size_t steps = 0;
  while (!done && steps < 1'000'000 && cl.sched().step()) ++steps;
  ASSERT_TRUE(done) << "in-flight write must resume across the restart";
  EXPECT_GT(ts, 0u);
  EXPECT_TRUE(cl.server_up());

  bool completed = false;
  const ustor::Value v = cl.read(2, 1, &completed);
  ASSERT_TRUE(completed);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_string(*v), "mid-op");
  EXPECT_FALSE(cl.any_failed());
}

TEST(CrashRecovery, RepeatedCrashesWithSnapshotsStayConsistent) {
  // Several crash/restart cycles with a tight snapshot cadence: later
  // recoveries must come from a snapshot (bounded replay), and the
  // register history must survive every cycle.
  TempDirFixture dir("cycles");
  ClusterConfig cfg;
  cfg.n = 2;
  cfg.seed = 13;
  cfg.durability_dir = dir.path;
  cfg.durability.snapshot_every = 3;
  cfg.faust.dummy_read_period = 0;
  cfg.faust.probe_check_period = 0;
  Cluster cl(cfg);

  for (int round = 0; round < 3; ++round) {
    ASSERT_GT(cl.write(1, "round-" + std::to_string(round)), 0u);
    ASSERT_GT(cl.write(2, "peer-" + std::to_string(round)), 0u);
    cl.run_for(1'000);  // drain COMMITs
    cl.crash_server();
    cl.run_for(500);  // downtime; anything in flight is dropped
    cl.restart_server();
  }
  EXPECT_TRUE(cl.pserver()->recovered_from_snapshot())
      << "with snapshot_every=3 the later recoveries must use the snapshot";

  bool completed = false;
  const ustor::Value v = cl.read(1, 2, &completed);
  ASSERT_TRUE(completed);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_string(*v), "peer-2");
  EXPECT_FALSE(cl.any_failed());
}

// --- Shard-level kill/restart ---------------------------------------------

std::string key_on_shard(const shard::ShardedCluster& sc, std::size_t shard) {
  for (int k = 0;; ++k) {
    const std::string key = "skey-" + std::to_string(k);
    if (sc.router().shard_of(key) == shard) return key;
  }
}

TEST(CrashRecovery, ShardKillRestartDeterministic) {
  TempDirFixture dir("shard_det");
  shard::ShardedClusterConfig cfg;
  cfg.shards = 2;
  cfg.seed = 19;
  cfg.durability_root = dir.path;
  cfg.shard_template.n = 2;
  cfg.shard_template.durability.snapshot_every = 4;
  cfg.shard_template.faust.dummy_read_period = 0;
  cfg.shard_template.faust.probe_check_period = 0;
  shard::ShardedCluster sc(cfg);
  ASSERT_TRUE(sc.durable());
  shard::ShardedKvClient kv1(sc, 1);

  const std::string k0 = key_on_shard(sc, 0);
  const std::string k1 = key_on_shard(sc, 1);

  bool done = false;
  kv1.put(k0, "on-0", [&](Timestamp) { done = true; });
  ASSERT_TRUE(sc.drive(done));
  done = false;
  kv1.put(k1, "on-1", [&](Timestamp) { done = true; });
  ASSERT_TRUE(sc.drive(done));

  // Kill shard 0 with a put to it in flight; restart after a downtime.
  done = false;
  kv1.put(k0, "across-crash", [&](Timestamp) { done = true; });
  sc.kill_shard(0);
  EXPECT_FALSE(sc.shard_up(0));
  sc.shard_exec(0).after(3'000, [&] { sc.shard(0).restart_server(); });
  ASSERT_TRUE(sc.drive(done, 4'000'000)) << "put must ride through the restart";
  EXPECT_TRUE(sc.shard_up(0));

  // The healthy shard was untouched; the restarted one serves its keys.
  done = false;
  shard::ShardedListResult lr;
  kv1.list([&](const shard::ShardedListResult& r) {
    lr = r;
    done = true;
  });
  ASSERT_TRUE(sc.drive(done));
  EXPECT_TRUE(lr.complete);
  ASSERT_TRUE(lr.entries.contains(k0));
  EXPECT_EQ(lr.entries.at(k0).value, "across-crash");
  ASSERT_TRUE(lr.entries.contains(k1));
  EXPECT_EQ(lr.entries.at(k1).value, "on-1");
  EXPECT_FALSE(sc.any_failed());
}

TEST(CrashRecovery, ShardKillRestartThreadedSmoke) {
  TempDirFixture dir("shard_thr");
  shard::ShardedClusterConfig cfg;
  cfg.shards = 2;
  cfg.seed = 29;
  cfg.mode = shard::ExecMode::kThreaded;
  cfg.durability_root = dir.path;
  cfg.shard_template.n = 2;
  cfg.shard_template.durability.snapshot_every = 4;
  cfg.shard_template.faust.dummy_read_period = 0;
  cfg.shard_template.faust.probe_check_period = 0;
  shard::ShardedCluster sc(cfg);
  shard::ShardedKvClient kv1(sc, 1);

  const std::string k0 = key_on_shard(sc, 0);
  std::atomic<bool> done{false};
  kv1.put(k0, "before", [&](Timestamp) { done.store(true, std::memory_order_release); });
  ASSERT_TRUE(sc.await(done));

  // Quiescent kill + immediate restart, both through the cross-thread
  // post_sync path.
  sc.kill_shard(0);
  sc.restart_shard(0);

  done.store(false);
  kv1.put(k0, "after-restart",
          [&](Timestamp) { done.store(true, std::memory_order_release); });
  ASSERT_TRUE(sc.await(done));

  done.store(false);
  shard::ShardedGetResult got;
  kv1.get(k0, [&](const shard::ShardedGetResult& r) {
    got = r;
    done.store(true, std::memory_order_release);
  });
  ASSERT_TRUE(sc.await(done));
  ASSERT_TRUE(got.entry.has_value());
  EXPECT_EQ(got.entry->value, "after-restart");
  EXPECT_FALSE(got.shard_failed);
  sc.stop();
  EXPECT_FALSE(sc.any_failed());
}

}  // namespace
}  // namespace faust
