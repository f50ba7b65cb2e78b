// Wire robustness under a byte-level adversary, deterministic-RNG driven.
//
// Every USTOR message type (and the KV partition codec) is attacked three
// ways — truncation at every length, single-bit flips, and pure random
// garbage — and the decoders must never crash, never read out of bounds
// (the sanitizer CI job runs this suite under ASan+UBSan), and never
// accept a non-canonical buffer:
//
//   * any strict prefix of a valid encoding is rejected (the Reader's
//     sticky ok() flips and the decoder returns nullopt);
//   * any buffer a decoder does accept is in canonical form, i.e.
//     re-encoding the decoded message reproduces the buffer bit-for-bit.
//     This is decision D3 (unique encodings) pushed down to the fuzzer:
//     a bit flip either makes a different valid message or no message at
//     all — there is no third bucket of "same message, different bytes".
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kvstore/kv_client.h"
#include "ustor/messages.h"
#include "wire/encoder.h"

namespace faust::ustor {
namespace {

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes b(rng.next_below(max_len));
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

Version random_version(Rng& rng, int n) {
  Version v(n);
  for (int k = 1; k <= n; ++k) {
    v.v(k) = rng.next_below(1000);
    if (rng.next_below(2)) v.m(k) = chain_step(Digest::bottom(), k);
  }
  return v;
}

InvocationTuple random_invocation(Rng& rng, int n) {
  return {static_cast<ClientId>(1 + rng.next_below(static_cast<std::size_t>(n))),
          rng.next_below(2) ? OpCode::kWrite : OpCode::kRead,
          static_cast<ClientId>(1 + rng.next_below(static_cast<std::size_t>(n))),
          random_bytes(rng, 24)};
}

SignedVersion random_signed_version(Rng& rng, int n) {
  return {random_version(rng, n), random_bytes(rng, 24)};
}

crypto::Hash random_hash(Rng& rng) {
  crypto::Hash h{};
  for (auto& b : h) b = static_cast<std::uint8_t>(rng.next_u64());
  return h;
}

std::vector<Splice> random_splices(Rng& rng) {
  std::vector<Splice> out;
  for (std::size_t q = rng.next_below(4); q > 0; --q) {
    out.push_back(Splice{rng.next_below(64), rng.next_below(16), random_bytes(rng, 24)});
  }
  return out;
}

/// One random, valid encoding of every message type.
std::vector<Bytes> random_corpus(Rng& rng) {
  const int n = static_cast<int>(1 + rng.next_below(5));
  std::vector<Bytes> corpus;

  SubmitMessage sm;
  sm.t = rng.next_u64();
  sm.inv = random_invocation(rng, n);
  sm.value = rng.next_below(2) ? Value(random_bytes(rng, 32)) : std::nullopt;
  sm.data_sig = random_bytes(rng, 24);
  corpus.push_back(encode(sm));

  ReplyMessage rm;
  rm.c = static_cast<ClientId>(1 + rng.next_below(static_cast<std::size_t>(n)));
  rm.last = random_signed_version(rng, n);
  if (rng.next_below(2)) {
    ReadPayload rp;
    rp.writer = random_signed_version(rng, n);
    rp.tj = rng.next_below(100);
    rp.value = rng.next_below(2) ? Value(random_bytes(rng, 32)) : std::nullopt;
    rp.data_sig = random_bytes(rng, 24);
    rm.read = std::move(rp);
  }
  for (std::size_t q = rng.next_below(3); q > 0; --q) rm.L.push_back(random_invocation(rng, n));
  for (int k = 0; k < n; ++k) rm.P.push_back(random_bytes(rng, 24));
  corpus.push_back(encode(rm));

  // SUBMIT_DELTA, write form (the opcode selects the wire shape, so it is
  // pinned rather than random).
  SubmitDeltaMessage sdw;
  sdw.t = rng.next_u64();
  sdw.inv = random_invocation(rng, n);
  sdw.inv.oc = OpCode::kWrite;
  sdw.base_digest = random_hash(rng);
  sdw.new_root = random_hash(rng);
  sdw.new_size = rng.next_below(4096);
  sdw.splices = random_splices(rng);
  sdw.data_sig = random_bytes(rng, 24);
  corpus.push_back(encode(sdw));

  // SUBMIT_DELTA, read form (an advertised-base read).
  SubmitDeltaMessage sdr;
  sdr.t = rng.next_u64();
  sdr.inv = random_invocation(rng, n);
  sdr.inv.oc = OpCode::kRead;
  sdr.base_ts = rng.next_below(1000);
  sdr.base_digest = random_hash(rng);
  sdr.data_sig = random_bytes(rng, 24);
  corpus.push_back(encode(sdr));

  // REPLY_DELTA: alternates between the "unchanged" token and the spliced
  // shape (the presence byte selects which fields exist on the wire).
  ReplyDeltaMessage rd;
  rd.c = static_cast<ClientId>(1 + rng.next_below(static_cast<std::size_t>(n)));
  rd.last = random_signed_version(rng, n);
  rd.read.writer = random_signed_version(rng, n);
  rd.read.tj = rng.next_below(100);
  rd.read.unchanged = rng.next_below(2) == 1;
  rd.read.base_digest = random_hash(rng);
  if (!rd.read.unchanged) {
    rd.read.new_size = rng.next_below(4096);
    rd.read.splices = random_splices(rng);
  }
  rd.read.data_sig = random_bytes(rng, 24);
  for (std::size_t q = rng.next_below(3); q > 0; --q) rd.L.push_back(random_invocation(rng, n));
  for (int k = 0; k < n; ++k) rd.P.push_back(random_bytes(rng, 24));
  corpus.push_back(encode(rd));

  CommitMessage cm;
  cm.version = random_version(rng, n);
  cm.commit_sig = random_bytes(rng, 24);
  cm.proof_sig = random_bytes(rng, 24);
  corpus.push_back(encode(cm));

  corpus.push_back(encode(ProbeMessage{}));

  VersionMessage vm;
  vm.committer = static_cast<ClientId>(1 + rng.next_below(static_cast<std::size_t>(n)));
  vm.ver = random_signed_version(rng, n);
  corpus.push_back(encode(vm));

  FailureMessage fm;
  fm.has_evidence = rng.next_below(2) == 1;
  if (fm.has_evidence) {
    fm.committer_a = 1;
    fm.a = random_signed_version(rng, n);
    fm.committer_b = 2;
    fm.b = random_signed_version(rng, n);
  }
  corpus.push_back(encode(fm));

  return corpus;
}

/// Decodes `data` as whatever its tag claims; on success returns the
/// canonical re-encoding.
std::optional<Bytes> decode_and_reencode(BytesView data) {
  const auto type = peek_type(data);
  if (!type.has_value()) return std::nullopt;
  switch (*type) {
    case MsgType::kSubmit:
      if (const auto m = decode_submit(data)) return encode(*m);
      return std::nullopt;
    case MsgType::kReply:
      if (const auto m = decode_reply(data)) return encode(*m);
      return std::nullopt;
    case MsgType::kSubmitDelta:
      if (const auto m = decode_submit_delta(data)) return encode(*m);
      return std::nullopt;
    case MsgType::kReplyDelta:
      if (const auto m = decode_reply_delta(data)) return encode(*m);
      return std::nullopt;
    case MsgType::kCommit:
      if (const auto m = decode_commit(data)) return encode(*m);
      return std::nullopt;
    case MsgType::kProbe:
      if (const auto m = decode_probe(data)) return encode(*m);
      return std::nullopt;
    case MsgType::kVersion:
      if (const auto m = decode_version(data)) return encode(*m);
      return std::nullopt;
    case MsgType::kFailure:
      if (const auto m = decode_failure(data)) return encode(*m);
      return std::nullopt;
  }
  return std::nullopt;
}

TEST(WireFuzz, TruncationAlwaysRejected) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    Rng rng(seed);
    for (int trial = 0; trial < 8; ++trial) {
      for (const Bytes& full : random_corpus(rng)) {
        // The untouched encoding decodes and is canonical.
        const auto intact = decode_and_reencode(full);
        ASSERT_TRUE(intact.has_value());
        EXPECT_EQ(*intact, full);
        // Every strict prefix is rejected.
        for (std::size_t len = 0; len < full.size(); ++len) {
          EXPECT_FALSE(decode_and_reencode(BytesView(full.data(), len)).has_value())
              << "seed " << seed << " accepted a " << len << "-byte prefix of a "
              << full.size() << "-byte message";
        }
      }
    }
  }
}

TEST(WireFuzz, BitFlipsNeverYieldNonCanonicalAcceptance) {
  for (std::uint64_t seed : {7u, 77u, 777u}) {
    Rng rng(seed);
    for (int trial = 0; trial < 8; ++trial) {
      for (const Bytes& full : random_corpus(rng)) {
        // Flip every bit of small messages; sample 512 flips of large ones.
        const std::size_t total_bits = full.size() * 8;
        const std::size_t flips = std::min<std::size_t>(total_bits, 512);
        for (std::size_t f = 0; f < flips; ++f) {
          const std::size_t bit =
              flips == total_bits ? f : rng.next_below(total_bits);
          Bytes mutated = full;
          mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
          const auto re = decode_and_reencode(mutated);
          if (re.has_value()) {
            // Accepted ⇒ the mutated buffer is itself a canonical
            // encoding (possibly of another message type).
            EXPECT_EQ(*re, mutated)
                << "bit " << bit << " of a " << full.size()
                << "-byte message produced a non-canonical acceptance";
          }
        }
      }
    }
  }
}

TEST(WireFuzz, RandomGarbageNeverCrashesAndNeverDecodesNonCanonically) {
  for (std::uint64_t seed : {5u, 55u, 555u}) {
    Rng rng(seed);
    for (int trial = 0; trial < 4000; ++trial) {
      Bytes junk(rng.next_below(160));
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
      if (!junk.empty() && rng.next_below(2)) {
        junk[0] = static_cast<std::uint8_t>(1 + rng.next_below(12));  // valid-ish tag
      }
      const auto re = decode_and_reencode(junk);
      if (re.has_value()) EXPECT_EQ(*re, junk);
    }
  }
}

TEST(WireFuzz, ApplyDeltaRejectsOutOfBoundsSplicesAndSizeLies) {
  const Bytes base = to_bytes("0123456789");
  const auto apply = [&](std::vector<Splice> s, std::uint64_t expected) {
    return apply_delta(BytesView(base), std::span<const Splice>(s), expected);
  };

  // A splice offset past the end of the evolving buffer is rejected whole.
  EXPECT_FALSE(apply({Splice{11, 0, to_bytes("x")}}, 11).has_value());
  // An erase reaching past the end is rejected.
  EXPECT_FALSE(apply({Splice{5, 6, {}}}, 4).has_value());
  // A final size that does not match the spliced result is rejected even
  // when every splice is individually in bounds.
  EXPECT_FALSE(apply({Splice{0, 0, to_bytes("ab")}}, 10).has_value());
  // A second splice may run out of bounds on the SHRUNKEN intermediate
  // buffer even though it would fit the original.
  EXPECT_FALSE(apply({Splice{0, 8, {}}, Splice{2, 1, {}}}, 1).has_value());

  // The empty splice list is the identity (only usable when sizes agree).
  {
    const auto r = apply({}, base.size());
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, base);
  }
  // Inserting at exactly the end is an append, not out-of-bounds.
  {
    const auto r = apply({Splice{10, 0, to_bytes("!")}}, 11);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(to_string(*r), "0123456789!");
  }
  // Overlapping offsets are well-defined: splices apply SEQUENTIALLY, each
  // against the buffer produced by the previous one. "0123456789" →(0,5,"AB")
  // "AB56789" →(1,2,"Z") "AZ6789".
  {
    const auto r = apply({Splice{0, 5, to_bytes("AB")}, Splice{1, 2, to_bytes("Z")}}, 6);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(to_string(*r), "AZ6789");
  }
}

/// apply_delta as it was before it spliced in place: copy the base, then
/// erase and insert per splice. Kept as the reference the in-place version
/// must agree with.
std::optional<Bytes> reference_apply_delta(BytesView base, std::span<const Splice> splices,
                                           std::uint64_t expected_size) {
  Bytes buf(base.begin(), base.end());
  for (const Splice& s : splices) {
    if (s.offset > buf.size()) return std::nullopt;
    if (s.erase_len > buf.size() - s.offset) return std::nullopt;
    const auto at = buf.begin() + static_cast<std::ptrdiff_t>(s.offset);
    buf.erase(at, at + static_cast<std::ptrdiff_t>(s.erase_len));
    buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(s.offset), s.insert.begin(),
               s.insert.end());
  }
  if (buf.size() != expected_size) return std::nullopt;
  return buf;
}

TEST(WireFuzz, ApplyDeltaInPlaceMatchesEraseInsertReference) {
  // Random splice lists: mostly in range (same-length, growing and
  // shrinking replaces, pure inserts and erases), some with an offset or
  // erase length past the evolving buffer, and expected sizes that are
  // right, off by one, or far too large. Both must give the same bytes or
  // both nullopt, for the owned and the view splice forms.
  Rng rng(29);
  std::size_t applied = 0, refused = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    Bytes base(rng.next_below(64));
    for (std::uint8_t& b : base) b = static_cast<std::uint8_t>(rng.next_below(256));
    std::vector<Splice> splices;
    std::uint64_t size = base.size();
    const std::size_t count = rng.next_below(5);
    for (std::size_t k = 0; k < count; ++k) {
      Splice sp;
      const bool wild = rng.chance(0.1);
      sp.offset = wild ? size + rng.next_below(3) : rng.next_below(size + 1);
      const std::uint64_t room = sp.offset <= size ? size - sp.offset : 0;
      sp.erase_len = rng.chance(0.1) ? room + 1 + rng.next_below(2) : rng.next_below(room + 1);
      const std::size_t len =
          rng.chance(0.3) ? static_cast<std::size_t>(sp.erase_len) : rng.next_below(12);
      sp.insert.resize(len);
      for (std::uint8_t& b : sp.insert) b = static_cast<std::uint8_t>(rng.next_below(256));
      if (sp.offset <= size && sp.erase_len <= room) size = size - sp.erase_len + len;
      splices.push_back(std::move(sp));
    }
    std::uint64_t expected = size;
    switch (rng.next_below(6)) {
      case 0: expected = size + 1; break;
      case 1: expected = size == 0 ? 0 : size - 1; break;
      case 2: expected = std::uint64_t{1} << 62; break;
      default: break;
    }
    const auto want = reference_apply_delta(BytesView(base), splices, expected);
    const auto got = apply_delta(BytesView(base), std::span<const Splice>(splices), expected);
    ASSERT_EQ(got, want) << "trial " << trial;
    std::vector<SpliceView> views;
    for (const Splice& sp : splices) views.push_back({sp.offset, sp.erase_len, BytesView(sp.insert)});
    ASSERT_EQ(apply_delta(BytesView(base), std::span<const SpliceView>(views), expected), want)
        << "trial " << trial;
    (want.has_value() ? applied : refused) += 1;
  }
  EXPECT_GT(applied, 1000u);
  EXPECT_GT(refused, 1000u);
}

TEST(WireFuzz, KvMapCodecRejectsTruncationFlipsToCanonicalOnly) {
  using kv::decode_map;
  using kv::encode_map;
  for (std::uint64_t seed : {3u, 13u, 23u}) {
    Rng rng(seed);
    for (int trial = 0; trial < 12; ++trial) {
      std::map<std::string, std::pair<std::string, std::uint64_t>> m;
      for (std::size_t k = rng.next_below(6) + 1; k > 0; --k) {
        m["key-" + std::to_string(rng.next_below(50))] = {
            to_string(random_bytes(rng, 20)), rng.next_u64() % 1000};
      }
      const Bytes full = encode_map(m);
      const auto back = decode_map(full);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(*back, m);

      for (std::size_t len = 0; len < full.size(); ++len) {
        EXPECT_FALSE(decode_map(BytesView(full.data(), len)).has_value());
      }
      for (std::size_t bit = 0; bit < full.size() * 8; ++bit) {
        Bytes mutated = full;
        mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        if (const auto dec = decode_map(mutated)) {
          // Canonicality: the map codec rejects out-of-order and duplicate
          // keys, so an accepted mutation re-encodes to the same bytes.
          EXPECT_EQ(encode_map(*dec), mutated) << "bit " << bit;
        }
      }
    }
  }
}

}  // namespace
}  // namespace faust::ustor
