// The durable format does not move (DESIGN.md D7). A scripted history
// against one durable server writes every WAL record kind — full and
// delta writes, plain and advertised-base reads, a D10 duplicate answered
// from the reply cache, a SUBMIT parked behind its predecessor's COMMIT,
// and a piggybacked COMMIT that gets its own record — and the test pins
// the SHA-256 of the WAL file, of the snapshot payload and of the reply
// cache. HMAC signatures and the simulated fabric are deterministic, so
// these bytes depend only on the seeds: a server change that moves them
// would no longer replay the logs and snapshots earlier builds wrote.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "crypto/chunked_hasher.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "net/network.h"
#include "sim/scheduler.h"
#include "storage/log_store.h"
#include "storage/persistent_server.h"
#include "storage/snapshot_store.h"
#include "ustor/client.h"
#include "ustor/state_codec.h"
#include "wire/encoder.h"

namespace faust::storage {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    path = std::string(::testing::TempDir()) + "/faust_format_" + std::to_string(::getpid()) +
           "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

std::string hex_sha256(BytesView data) {
  const crypto::Hash h = crypto::Sha256::digest(data);
  std::string out;
  char buf[3];
  for (const std::uint8_t b : h) {
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

/// The reply cache as the snapshot payload lays it out: one
/// length-prefixed reply per client.
Bytes encode_replies(const std::vector<Bytes>& replies) {
  wire::Writer w;
  for (const Bytes& r : replies) w.put_bytes(r);
  return w.take();
}

/// Forwards to a Network. Client→server COMMITs can be dropped or held
/// back (one each, per arming), and each client's latest SUBMIT is kept
/// so the test can replay it as a D10 duplicate.
class ScriptedTransport : public net::Transport {
 public:
  explicit ScriptedTransport(net::Network& inner) : inner_(inner) {}
  void attach(NodeId id, net::Node& node) override { inner_.attach(id, node); }
  void detach(NodeId id) override { inner_.detach(id); }
  void send(NodeId from, NodeId to, Bytes msg) override {
    if (to == kServerNode) {
      const bool commit = ustor::peek_type(msg) == ustor::MsgType::kCommit;
      if (commit && from == drop_commit_of) {
        drop_commit_of = 0;
        return;
      }
      if (commit && from == hold_commit_of) {
        hold_commit_of = 0;
        held_.emplace_back(from, std::move(msg));
        return;
      }
      if (!commit) last_submit[from] = msg;
    }
    inner_.send(from, to, std::move(msg));
  }

  void release_held() {
    for (auto& [from, msg] : held_) inner_.send(from, kServerNode, std::move(msg));
    held_.clear();
  }

  NodeId drop_commit_of = 0;
  NodeId hold_commit_of = 0;
  std::map<NodeId, Bytes> last_submit;

 private:
  net::Network& inner_;
  std::vector<std::pair<NodeId, Bytes>> held_;
};

std::unique_ptr<ustor::Client> delta_client(ClientId id, int n,
                                            std::shared_ptr<const crypto::SignatureScheme> sigs,
                                            net::Transport& net) {
  return std::make_unique<ustor::Client>(id, n, std::move(sigs), net, kServerNode, 4096,
                                         ustor::DigestMode::kChunked);
}

Bytes big_value(std::uint8_t fill, int edits) {
  Bytes v(4096, fill);
  for (int e = 0; e < edits; ++e) {
    v[static_cast<std::size_t>(512 * e + 7)] = static_cast<std::uint8_t>(e + 1);
  }
  return v;
}

struct SyncOps {
  sim::Scheduler& sched;

  void drive(const bool& done) {
    while (!done && sched.step()) {
    }
    ASSERT_TRUE(done);
  }
  void write_full(ustor::Client& c, const Bytes& v) {
    bool done = false;
    c.writex(v, [&done](const ustor::WriteResult&) { done = true; });
    drive(done);
  }
  void write_delta(ustor::Client& c, const Bytes& prev, const Bytes& next) {
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
    drive(done);
  }
  ustor::Value read(ustor::Client& c, ClientId j) {
    bool done = false;
    ustor::Value v;
    c.readx(j, [&](const ustor::ReadResult& r) {
      v = r.value;
      done = true;
    });
    drive(done);
    return v;
  }
};

TEST(DurableFormat, EveryRecordKindIsPinned) {
  constexpr int kN = 2;
  TempDir dir;
  sim::Scheduler sched;
  net::Network net(sched, Rng(17), net::DelayModel{1, 4});
  ScriptedTransport tap(net);
  auto sigs = crypto::make_hmac_scheme(kN);
  auto c1 = delta_client(1, kN, sigs, tap);
  auto c2 = delta_client(2, kN, sigs, tap);
  c1->set_attach_commits(true);  // D10 piggyback on c1 only: c2 can be parked
  SyncOps d{sched};
  const Bytes a0 = big_value('a', 0), a1 = big_value('a', 1), a2 = big_value('a', 2);
  const Bytes a3 = big_value('c', 0), b0 = big_value('b', 0), b1 = big_value('b', 1);

  DurabilityOptions opts;
  opts.snapshot_every = 4;
  auto server = std::make_unique<PersistentServer>(kN, tap, dir.path, opts);

  // Full writes, plain reads (no verified base yet), a delta write, and an
  // advertised-base read answered with splices.
  d.write_full(*c1, a0);
  d.write_full(*c2, b0);
  ASSERT_EQ(d.read(*c2, 1), a0);
  ASSERT_EQ(d.read(*c1, 2), b0);
  d.write_delta(*c1, a0, a1);
  ASSERT_EQ(d.read(*c2, 1), a1);
  ASSERT_EQ(c2->delta_replies_spliced(), 1u);
  sched.run();

  // A D10 duplicate: c2's read SUBMIT again. The server answers from its
  // reply cache; c2 recognises the echo and drops it.
  tap.send(2, kServerNode, tap.last_submit.at(2));
  sched.run();
  EXPECT_EQ(server->duplicate_replies(), 1u);
  EXPECT_EQ(c2->stale_replies_dropped(), 1u);

  // A piggybacked COMMIT: c1's standalone COMMIT is lost, so its next
  // SUBMIT carries the only copy — logged as its own record first.
  tap.drop_commit_of = 1;
  d.write_delta(*c1, a1, a2);
  sched.run();
  ASSERT_EQ(d.read(*c1, 2), b0);

  // A parked SUBMIT: c2's COMMIT is held back, so c2's next SUBMIT
  // reaches the server while L still lists c2's write.
  tap.hold_commit_of = 2;
  d.write_delta(*c2, b0, b1);
  bool done = false;
  c2->readx(1, [&done](const ustor::ReadResult&) { done = true; });
  sched.run();
  EXPECT_FALSE(done);
  EXPECT_EQ(server->parked_submits(), 1u);
  tap.release_held();
  d.drive(done);

  // A full write over a register with delta history, then drain.
  d.write_full(*c1, a3);
  ASSERT_EQ(d.read(*c2, 1), a3);
  sched.run();
  EXPECT_FALSE(c1->failed());
  EXPECT_FALSE(c2->failed());
  ASSERT_GE(server->snapshots_written(), 1u);

  const Bytes wal = read_file(dir.path + "/wal.log");
  SnapshotStore snaps(dir.path + "/snapshot.bin");
  const auto image = snaps.load();
  ASSERT_TRUE(image.has_value());
  const std::vector<Bytes> replies = server->cached_replies();
  const Bytes state = ustor::encode_server_state(server->core());
  net.kill(kServerNode);
  server.reset();

  // Every op of c1 committed exactly one COMMIT record, the dropped
  // COMMIT included (through the piggyback).
  std::size_t c1_commits = 0;
  {
    LogStore log(dir.path + "/wal.log");
    log.replay([&](BytesView record) {
      wire::Reader r(record);
      const NodeId from = static_cast<NodeId>(r.get_u32());
      const Bytes msg = r.get_raw(r.remaining());
      if (from == 1 && ustor::peek_type(msg) == ustor::MsgType::kCommit) ++c1_commits;
    });
  }
  EXPECT_EQ(c1_commits, c1->completed_ops());

  EXPECT_EQ(hex_sha256(wal), "dee58f78f3838cdc7a3eca0af5b274af2c756f9a0f37a0f500520e42e8be080e");
  EXPECT_EQ(hex_sha256(image->payload),
            "be4352f0cf7e88cfdb146b69050ee8edcfb595fe9acacc310e132e91a7be9703");
  EXPECT_EQ(hex_sha256(encode_replies(replies)),
            "6247924c9fc49f63b2b587c407398840354fb7e3562be2f898cd24e5253707bb");

  // The pinned bytes recover exactly: snapshot plus suffix, then the full
  // log on its own.
  for (const bool with_snapshot : {true, false}) {
    if (!with_snapshot) ASSERT_TRUE(std::filesystem::remove(dir.path + "/snapshot.bin"));
    PersistentServer back(kN, net, dir.path, DurabilityOptions{});
    EXPECT_EQ(back.recovered_from_snapshot(), with_snapshot);
    EXPECT_EQ(ustor::encode_server_state(back.core()), state);
    EXPECT_EQ(back.cached_replies(), replies);
    net.kill(kServerNode);
  }
}

}  // namespace
}  // namespace faust::storage
