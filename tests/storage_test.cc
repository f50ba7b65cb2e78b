// Durability substrate tests: CRC32 vectors, the write-ahead log's
// torn-tail recovery (fuzzed at every byte offset of the tail record),
// verified snapshots, exactly-once duplicate suppression, and full
// crash-recovery of the persistent USTOR server with clients that never
// notice.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/chunked_hasher.h"
#include "crypto/signature.h"
#include "net/network.h"
#include "sim/scheduler.h"
#include "storage/crc32.h"
#include "storage/log_store.h"
#include "storage/persistent_server.h"
#include "storage/snapshot_store.h"
#include "ustor/client.h"
#include "ustor/state_codec.h"

namespace faust::storage {
namespace {

/// Fresh temp path per test; removed on destruction.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& tag) {
    path = std::string(::testing::TempDir()) + "/faust_" + tag + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".log";
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

/// Fresh temp directory per test; removed recursively on destruction.
struct TempDirFixture {
  std::string path;
  explicit TempDirFixture(const std::string& tag) {
    path = std::string(::testing::TempDir()) + "/faust_dir_" + tag + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDirFixture() { std::filesystem::remove_all(path); }
};

Bytes read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::fseek(f, 0, SEEK_END);
  Bytes all(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(all.data(), 1, all.size(), f), all.size());
  std::fclose(f);
  return all;
}

void write_file(const std::string& path, BytesView content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!content.empty()) ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f), content.size());
  std::fclose(f);
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32(to_bytes("")), 0x00000000u);
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xCBF43926u);  // the check value
  EXPECT_EQ(crc32(to_bytes("The quick brown fox jumps over the lazy dog")), 0x414FA339u);
}

TEST(Crc32, SensitiveToEveryByte) {
  const Bytes base = to_bytes("payload-payload-payload");
  const std::uint32_t ref = crc32(base);
  for (std::size_t k = 0; k < base.size(); ++k) {
    Bytes mod = base;
    mod[k] ^= 0x01;
    EXPECT_NE(crc32(mod), ref) << "byte " << k;
  }
}

TEST(LogStore, AppendReplayRoundtrip) {
  TempFile tmp("roundtrip");
  {
    LogStore log(tmp.path);
    EXPECT_TRUE(log.append(to_bytes("one")));
    EXPECT_TRUE(log.append(to_bytes("two")));
    EXPECT_TRUE(log.append(Bytes{}));  // empty records are legal
    EXPECT_EQ(log.records(), 3u);
  }
  LogStore log(tmp.path);
  std::vector<std::string> got;
  EXPECT_EQ(log.replay([&](BytesView b) { got.push_back(to_string(b)); }), 3u);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "one");
  EXPECT_EQ(got[1], "two");
  EXPECT_EQ(got[2], "");
}

TEST(LogStore, AppendAfterReplayContinuesTheLog) {
  TempFile tmp("continue");
  {
    LogStore log(tmp.path);
    log.append(to_bytes("a"));
  }
  {
    LogStore log(tmp.path);
    log.replay([](BytesView) {});
    log.append(to_bytes("b"));
  }
  LogStore log(tmp.path);
  std::vector<std::string> got;
  log.replay([&](BytesView b) { got.push_back(to_string(b)); });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], "b");
}

TEST(LogStore, TornTailIsDiscarded) {
  TempFile tmp("torn");
  {
    LogStore log(tmp.path);
    log.append(to_bytes("intact-1"));
    log.append(to_bytes("intact-2"));
    log.append(to_bytes("this record will be torn"));
  }
  // Simulate a crash mid-write: chop the last 5 bytes off the file.
  {
    std::FILE* f = std::fopen(tmp.path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    Bytes all(static_cast<std::size_t>(size));
    std::fseek(f, 0, SEEK_SET);
    ASSERT_EQ(std::fread(all.data(), 1, all.size(), f), all.size());
    std::fclose(f);
    f = std::fopen(tmp.path.c_str(), "wb");
    std::fwrite(all.data(), 1, all.size() - 5, f);
    std::fclose(f);
  }
  LogStore log(tmp.path);
  std::vector<std::string> got;
  EXPECT_EQ(log.replay([&](BytesView b) { got.push_back(to_string(b)); }), 2u);
  EXPECT_EQ(got.back(), "intact-2");
  // The torn bytes were truncated; a new append lands cleanly.
  EXPECT_TRUE(log.append(to_bytes("after-recovery")));
  LogStore reread(tmp.path);
  got.clear();
  EXPECT_EQ(reread.replay([&](BytesView b) { got.push_back(to_string(b)); }), 3u);
  EXPECT_EQ(got.back(), "after-recovery");
}

TEST(LogStore, CorruptMiddleRecordStopsReplay) {
  TempFile tmp("corrupt");
  {
    LogStore log(tmp.path);
    log.append(to_bytes("good"));
    log.append(to_bytes("soon-corrupt"));
  }
  {
    std::FILE* f = std::fopen(tmp.path.c_str(), "r+b");
    std::fseek(f, -3, SEEK_END);  // flip a byte inside the last payload
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  LogStore log(tmp.path);
  std::vector<std::string> got;
  EXPECT_EQ(log.replay([&](BytesView b) { got.push_back(to_string(b)); }), 1u);
  EXPECT_EQ(got[0], "good");
}

TEST(LogStore, TornTailFuzzAtEveryByteOffset) {
  // Satellite robustness sweep: truncate the file at EVERY byte offset
  // inside the final record (header and payload). Recovery must keep the
  // intact two-record prefix, never crash, and classify the damage:
  // a short read is a torn tail (no checksum failure), while a truncation
  // that leaves the full framing but cuts... cannot exist — truncation
  // inside the payload IS a short read. Only bit-flips (below) count as
  // checksum failures.
  TempFile proto("fuzz_proto");
  {
    LogStore log(proto.path);
    log.append(to_bytes("first"));
    log.append(to_bytes("second"));
    log.append(to_bytes("the-final-record-that-gets-torn"));
  }
  const Bytes full = read_file(proto.path);
  const std::size_t tail_record = 8 + 31;  // header + payload of record 3
  const std::size_t intact_end = full.size() - tail_record;

  for (std::size_t cut = intact_end; cut < full.size(); ++cut) {
    TempFile tmp("fuzz_cut");
    write_file(tmp.path, BytesView(full.data(), cut));
    LogStore log(tmp.path);
    std::vector<std::string> got;
    EXPECT_EQ(log.replay([&](BytesView b) { got.push_back(to_string(b)); }), 2u)
        << "cut at byte " << cut;
    ASSERT_EQ(got.size(), 2u) << "cut at byte " << cut;
    EXPECT_EQ(got[0], "first");
    EXPECT_EQ(got[1], "second");
    EXPECT_EQ(log.checksum_failures(), 0u)
        << "a short read is a torn tail, not corruption (cut " << cut << ")";
    // The log is writable again, and the re-opened file replays cleanly.
    EXPECT_TRUE(log.append(to_bytes("appended")));
    LogStore reread(tmp.path);
    std::size_t n = 0;
    EXPECT_EQ(reread.replay([&](BytesView) { ++n; }), 3u) << "cut at byte " << cut;
  }
}

TEST(LogStore, BitFlipFuzzAtEveryByteOffset) {
  // Flip one bit in every byte of the final record in turn. Whatever the
  // position — length field, CRC field, payload — recovery must keep the
  // intact prefix, never deliver damaged bytes, and surface the
  // corruption through the checksum-failure counter (except flips in the
  // length field that make the record read as torn instead — those may
  // legitimately classify either way, but must still protect the prefix).
  TempFile proto("flip_proto");
  {
    LogStore log(proto.path);
    log.append(to_bytes("first"));
    log.append(to_bytes("second"));
    log.append(to_bytes("the-final-record-that-gets-flipped"));
  }
  const Bytes full = read_file(proto.path);
  const std::size_t tail_record = 8 + 34;
  const std::size_t tail_start = full.size() - tail_record;

  for (std::size_t at = tail_start; at < full.size(); ++at) {
    for (const std::uint8_t bit : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      TempFile tmp("flip");
      Bytes mod = full;
      mod[at] ^= bit;
      write_file(tmp.path, mod);
      LogStore log(tmp.path);
      std::vector<std::string> got;
      EXPECT_EQ(log.replay([&](BytesView b) { got.push_back(to_string(b)); }), 2u)
          << "flip at byte " << at;
      ASSERT_EQ(got.size(), 2u);
      EXPECT_EQ(got[0], "first");
      EXPECT_EQ(got[1], "second");
      // Every flip damages exactly one record; a flip that enlarges the
      // length field can also present as a torn tail. Either way the
      // prefix survives; most positions must trip the CRC.
      const bool length_field = at - tail_start < 4;
      if (!length_field) {
        EXPECT_EQ(log.checksum_failures(), 1u) << "flip at byte " << at;
      }
    }
  }
}

TEST(LogStore, SkipRecordsReplaysOnlyTheSuffix) {
  TempFile tmp("skip");
  {
    LogStore log(tmp.path);
    for (int i = 0; i < 5; ++i) log.append(to_bytes("r" + std::to_string(i)));
  }
  LogStore log(tmp.path);
  std::vector<std::string> got;
  EXPECT_EQ(log.replay([&](BytesView b) { got.push_back(to_string(b)); }, 3), 2u);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "r3");
  EXPECT_EQ(got[1], "r4");
  EXPECT_EQ(log.records(), 5u) << "skipped records still count as intact";
}

TEST(SnapshotStore, RoundtripAndCounters) {
  TempFile tmp("snap");
  SnapshotStore store(tmp.path);
  EXPECT_FALSE(store.load().has_value()) << "missing file is not a snapshot";
  EXPECT_EQ(store.rejects(), 0u) << "missing is not a reject";

  const Bytes payload = to_bytes("snapshot-payload-bytes");
  ASSERT_TRUE(store.save(42, payload));
  EXPECT_EQ(store.saves(), 1u);
  const auto img = store.load();
  ASSERT_TRUE(img.has_value());
  EXPECT_EQ(img->log_records, 42u);
  EXPECT_EQ(img->payload, payload);

  // Overwrite is atomic-by-rename: the second save fully replaces.
  ASSERT_TRUE(store.save(43, to_bytes("second")));
  const auto img2 = store.load();
  ASSERT_TRUE(img2.has_value());
  EXPECT_EQ(img2->log_records, 43u);
  EXPECT_EQ(to_string(img2->payload), "second");
}

TEST(SnapshotStore, TamperAndTornRejectionAtEveryOffset) {
  // The snapshot's integrity root is the verifiers' chunk-tree digest: a
  // flip ANYWHERE in the file (header, root, payload) or a truncation at
  // any offset must be rejected — recovery then falls back to log replay.
  TempFile proto("snap_fuzz");
  Bytes file;
  {
    SnapshotStore store(proto.path);
    ASSERT_TRUE(store.save(7, to_bytes("integrity-rooted-payload")));
    file = read_file(proto.path);
  }
  for (std::size_t at = 0; at < file.size(); ++at) {
    TempFile tmp("snap_flip");
    Bytes mod = file;
    mod[at] ^= 0x01;
    write_file(tmp.path, mod);
    SnapshotStore store(tmp.path);
    // Flips in the log_records field keep payload integrity intact — the
    // field is consumed as-is (recovery re-anchors coverage; the WAL rule
    // guarantees the payload never claims unlogged state). Everything
    // else must reject.
    const bool log_records_field = at >= 8 && at < 16;
    if (!log_records_field) {
      EXPECT_FALSE(store.load().has_value()) << "flip at byte " << at;
      EXPECT_EQ(store.rejects(), 1u) << "flip at byte " << at;
    }
  }
  for (std::size_t cut = 0; cut < file.size(); ++cut) {
    TempFile tmp("snap_cut");
    write_file(tmp.path, BytesView(file.data(), cut));
    SnapshotStore store(tmp.path);
    EXPECT_FALSE(store.load().has_value()) << "cut at byte " << cut;
    EXPECT_EQ(store.rejects(), 1u) << "cut at byte " << cut;
  }
}

/// A core whose image fills every field: values and DATA signatures, a
/// two-record delta history on register 1, a digest computed by an
/// advertised read of register 2, L, P, SVER and the schedule.
ustor::ServerCore core_with_delta_state() {
  ustor::ServerCore core(2);
  const auto inv = [](ClientId i, ustor::OpCode oc, ClientId j) {
    return ustor::InvocationTuple{i, oc, j, to_bytes("sigma")};
  };
  const auto submit = [&](Timestamp t, ClientId i, ustor::OpCode oc, ClientId j,
                          ustor::Value v) {
    core.process_submit(
        ustor::SubmitMessage{t, inv(i, oc, j), std::move(v), to_bytes("delta"), {}});
  };
  const auto answer_delta = [&](const Bytes& msg) {
    const auto view = ustor::decode_submit_delta_view(msg);
    ASSERT_TRUE(view.has_value());
    ASSERT_TRUE(core.answer_submit_delta(*view, nullptr).has_value());
  };
  Bytes v0(300, 'a');
  Bytes v1 = v0, v2 = v0;
  v1[10] = 'b';
  v2[10] = 'b';
  v2[200] = 'c';
  const auto digest = [](const Bytes& v) { return crypto::ChunkedHasher::digest(v); };
  const std::vector<ustor::Splice> s1{ustor::Splice{10, 1, to_bytes("b")}};
  const std::vector<ustor::Splice> s2{ustor::Splice{200, 1, to_bytes("c")}};

  submit(1, 1, ustor::OpCode::kWrite, 1, v0);
  submit(1, 2, ustor::OpCode::kWrite, 2, to_bytes("two"));
  answer_delta(ustor::encode_submit_delta(2, inv(1, ustor::OpCode::kWrite, 1), digest(v0),
                                          digest(v1), v1.size(), s1, to_bytes("delta")));
  answer_delta(ustor::encode_submit_delta(3, inv(1, ustor::OpCode::kWrite, 1), digest(v1),
                                          digest(v2), v2.size(), s2, to_bytes("delta")));
  answer_delta(ustor::encode_submit_read_base(2, inv(2, ustor::OpCode::kRead, 2), 1,
                                              digest(to_bytes("two")), to_bytes("delta")));
  ustor::Version v(2);
  v.V[0] = 3;
  v.V[1] = 1;
  core.process_commit(1, ustor::CommitMessage{v, to_bytes("phi"), to_bytes("psi")});
  return core;
}

TEST(StateCodec, DeltaStateRoundtripsAndDamagedImagesRejectedOrCanonical) {
  // The snapshot image is untrusted bytes from disk. Its D6 delta state
  // (digest, splice history) must round-trip exactly; a truncation at any
  // offset must be refused with the target core untouched; a bit flip at
  // any offset must be refused, or accepted only as the canonical image of
  // the state it decodes to — never crash or allocate from a bad count.
  const ustor::ServerCore core = core_with_delta_state();
  ASSERT_EQ(core.mem(1).history.size(), 2u);
  ASSERT_TRUE(core.mem(2).digest_known);
  const Bytes image = ustor::encode_server_state(core);
  const Bytes fresh = ustor::encode_server_state(ustor::ServerCore(2));

  ustor::ServerCore back(2);
  ASSERT_TRUE(ustor::restore_server_state(back, image));
  EXPECT_EQ(ustor::encode_server_state(back), image);
  ASSERT_EQ(back.mem(1).history.size(), 2u);
  for (std::size_t q = 0; q < 2; ++q) {
    const auto& want = core.mem(1).history[q];
    const auto& got = back.mem(1).history[q];
    EXPECT_EQ(got.from, want.from);
    EXPECT_EQ(got.to, want.to);
    EXPECT_EQ(got.new_size, want.new_size);
    EXPECT_EQ(got.splices, want.splices);
    EXPECT_EQ(got.wire_bytes, want.wire_bytes);
  }
  EXPECT_EQ(back.mem(1).digest, core.mem(1).digest);
  EXPECT_EQ(back.mem(2).digest, core.mem(2).digest);

  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    ustor::ServerCore target(2);
    EXPECT_FALSE(ustor::restore_server_state(target, BytesView(image.data(), cut)))
        << "cut at byte " << cut;
    EXPECT_EQ(ustor::encode_server_state(target), fresh) << "cut at byte " << cut;
  }
  for (std::size_t at = 0; at < image.size(); ++at) {
    for (const std::uint8_t mask : {0x01, 0x80}) {
      Bytes mod = image;
      mod[at] ^= mask;
      ustor::ServerCore target(2);
      const bool accepted = ustor::restore_server_state(target, mod);
      EXPECT_EQ(ustor::encode_server_state(target), accepted ? mod : fresh)
          << "flip " << int{mask} << " at byte " << at;
    }
  }
}

TEST(PersistentServerTest, CrashRecoveryIsInvisibleToClients) {
  constexpr int kN = 3;
  TempFile tmp("server");

  sim::Scheduler sched;
  net::Network net(sched, Rng(5), net::DelayModel{2, 5});
  auto sigs = crypto::make_hmac_scheme(kN);
  std::vector<std::unique_ptr<ustor::Client>> clients;

  auto server = std::make_unique<PersistentServer>(kN, net, tmp.path);
  EXPECT_EQ(server->recovered_records(), 0u);
  for (ClientId i = 1; i <= kN; ++i) {
    clients.push_back(std::make_unique<ustor::Client>(i, kN, sigs, net));
  }

  const auto write_sync = [&](ClientId i, std::string_view v) {
    bool done = false;
    clients[static_cast<std::size_t>(i - 1)]->writex(
        to_bytes(v), [&done](const ustor::WriteResult&) { done = true; });
    while (!done && sched.step()) {
    }
    return done;
  };
  const auto read_sync = [&](ClientId i, ClientId j) {
    bool done = false;
    ustor::Value out;
    clients[static_cast<std::size_t>(i - 1)]->readx(j, [&](const ustor::ReadResult& r) {
      out = r.value;
      done = true;
    });
    while (!done && sched.step()) {
    }
    EXPECT_TRUE(done);
    return out;
  };

  ASSERT_TRUE(write_sync(1, "pre-crash-1"));
  ASSERT_TRUE(write_sync(2, "pre-crash-2"));
  ASSERT_TRUE(read_sync(3, 1).has_value());
  sched.run();  // drain trailing COMMITs into the log

  const auto schedule_before = server->core().schedule();

  // Crash: destroy the server object entirely; then restart from the log.
  net.detach(kServerNode);
  server.reset();
  server = std::make_unique<PersistentServer>(kN, net, tmp.path);
  EXPECT_GT(server->recovered_records(), 0u);
  EXPECT_EQ(server->core().schedule(), schedule_before)
      << "recovered schedule must be byte-identical";

  // Clients keep operating against the recovered server: versions extend,
  // values read back, and no fail_i ever fires.
  ASSERT_TRUE(write_sync(1, "post-crash"));
  const ustor::Value v = read_sync(2, 1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_string(*v), "post-crash");
  const ustor::Value v2 = read_sync(3, 2);
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(to_string(*v2), "pre-crash-2");
  for (const auto& c : clients) EXPECT_FALSE(c->failed());
}

TEST(PersistentServerTest, DoubleCrashStillConsistent) {
  constexpr int kN = 2;
  TempFile tmp("server2");
  sim::Scheduler sched;
  net::Network net(sched, Rng(9), net::DelayModel{1, 3});
  auto sigs = crypto::make_hmac_scheme(kN);
  ustor::Client c1(1, kN, sigs, net);
  ustor::Client c2(2, kN, sigs, net);

  for (int round = 0; round < 3; ++round) {
    PersistentServer server(kN, net, tmp.path);
    bool done = false;
    c1.writex(to_bytes("round-" + std::to_string(round)),
              [&done](const ustor::WriteResult&) { done = true; });
    while (!done && sched.step()) {
    }
    ASSERT_TRUE(done) << "round " << round;
    sched.run();
    net.detach(kServerNode);  // crash between rounds
  }
  PersistentServer server(kN, net, tmp.path);
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
  EXPECT_EQ(to_string(*v), "round-2");
  EXPECT_FALSE(c1.failed());
  EXPECT_FALSE(c2.failed());
}

TEST(PersistentServerTest, SendersOutsideTheClientRangeNeverReachTheWal) {
  // A socket transport passes through the sender id a peer claims. A
  // COMMIT, SUBMIT or read SUBMIT_DELTA from an id outside 1..n, or a
  // SUBMIT naming a target outside 1..n, must be dropped before the WAL:
  // once logged, it would abort every later recovery. A COMMIT over a
  // version of another size is ignored by the core. The in-memory server
  // drops the same messages.
  constexpr int kN = 2;
  TempDirFixture dir("range");
  sim::Scheduler sched;
  net::Network net(sched, Rng(41), net::DelayModel{1, 3});
  auto sigs = crypto::make_hmac_scheme(kN);
  ustor::Client c1(1, kN, sigs, net);
  auto server = std::make_unique<PersistentServer>(kN, net, dir.path, DurabilityOptions{});
  net::Network other_net(sched, Rng(43));
  ustor::Server memory(kN, other_net);

  const auto write_sync = [&](std::string_view v) {
    bool done = false;
    c1.writex(to_bytes(v), [&done](const ustor::WriteResult&) { done = true; });
    while (!done && sched.step()) {
    }
    ASSERT_TRUE(done);
    sched.run();
  };
  write_sync("before");

  const auto inv = [](ClientId i, ustor::OpCode oc, ClientId j) {
    return ustor::InvocationTuple{i, oc, j, to_bytes("sigma")};
  };
  const Bytes commit = ustor::encode(
      ustor::CommitMessage{ustor::Version(kN), to_bytes("phi"), to_bytes("psi")});
  const Bytes sig = to_bytes("delta");
  const std::vector<std::pair<NodeId, Bytes>> outside = {
      {5, commit},
      {0, commit},
      {-1, commit},
      {5, ustor::encode_submit(9, inv(5, ustor::OpCode::kWrite, 5), BytesView(sig), sig)},
      {5, ustor::encode_submit_read_base(9, inv(5, ustor::OpCode::kRead, 1), 1,
                                         crypto::Hash{}, sig)},
      {1, ustor::encode_submit(9, inv(1, ustor::OpCode::kRead, 7), std::nullopt, sig)},
      {1, ustor::encode_submit_read_base(9, inv(1, ustor::OpCode::kRead, 0), 1,
                                         crypto::Hash{}, sig)},
  };
  const std::uint64_t records = server->wal_records();
  for (const auto& [from, msg] : outside) {
    server->on_message(from, msg);
    memory.on_message(from, msg);
  }
  EXPECT_EQ(server->wal_records(), records) << "nothing from outside 1..n may be logged";

  const Bytes wide_commit = ustor::encode(
      ustor::CommitMessage{ustor::Version(kN + 1), to_bytes("phi"), to_bytes("psi")});
  server->on_message(1, wide_commit);
  memory.on_message(1, wide_commit);
  sched.run();
  const Bytes state = ustor::encode_server_state(server->core());

  // Reopen the directory: recovery replays the whole log and succeeds.
  net.kill(kServerNode);
  server.reset();
  server = std::make_unique<PersistentServer>(kN, net, dir.path, DurabilityOptions{});
  EXPECT_EQ(server->recovered_records(), server->wal_records());
  EXPECT_EQ(ustor::encode_server_state(server->core()), state);
  write_sync("after");
  ASSERT_TRUE(server->core().mem(1).value.has_value());
  EXPECT_EQ(to_string(server->core().mem(1).value->to_bytes()), "after");
  EXPECT_FALSE(c1.failed());
}

}  // namespace
}  // namespace faust::storage
