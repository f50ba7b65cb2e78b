// Wire messages of the USTOR protocol (Algorithms 1 and 2) and of the
// FAUST offline protocol (§6), plus the byte-string payloads that clients
// sign (SUBMIT / DATA / COMMIT / PROOF, domain-separated).
//
// Decoding is defensive: `decode_*` returns std::nullopt on any malformed
// input, and callers route that into the fail path — a Byzantine server
// must never be able to crash a client with garbage bytes.
//
// Two representations exist for the hot REPLY path (see PERF.md):
//  - Owned structs (`ReplyMessage` etc.) whose byte fields are `Bytes`.
//    Safe to keep anywhere; used by tests, adversaries and encoding.
//  - View structs (`ReplyMessageView` etc.) whose byte fields are
//    `BytesView` into the decoded buffer. Zero-copy: decoding allocates
//    only the version vectors. Valid ONLY while the source buffer is
//    alive and unmodified; the client processes a reply entirely within
//    the delivery callback, so it decodes views and copies just the few
//    fields it retains.
//
// `size_hint(m)` returns the exact encoded size of `m`; `encode` uses it
// to reserve so that encoding performs a single allocation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "ustor/types.h"

namespace faust::wire {
class Reader;
class Writer;
}  // namespace faust::wire

namespace faust::ustor {

/// Message type tags (first byte of every message).
enum class MsgType : std::uint8_t {
  kSubmit = 1,
  kReply = 2,
  kCommit = 3,
  kSubmitDelta = 4,  // SUBMIT shipping a splice delta / an advertised read base
  kReplyDelta = 5,   // read REPLY shipping a splice delta / "unchanged" token
  // FAUST offline (client-to-client) messages:
  kProbe = 10,
  kVersion = 11,
  kFailure = 12,
};

/// The invocation tuple (i, oc, j, σ) of §5: client i invokes `oc` on
/// register X_j; σ is i's SUBMIT-signature binding (oc, j, t).
struct InvocationTuple {
  ClientId client = 0;
  OpCode oc = OpCode::kRead;
  ClientId target = 0;
  Bytes submit_sig;

  bool operator==(const InvocationTuple&) const = default;
};

/// ⟨COMMIT, V, M, φ, ψ⟩ — client → server after each REPLY.
struct CommitMessage {
  Version version;
  Bytes commit_sig;  // φ: over the version
  Bytes proof_sig;   // ψ: over M[i]
};

/// ⟨SUBMIT, t, (i,oc,j,σ), x, δ [, COMMIT]⟩ — client → server, one per
/// operation.
///
/// `commit` is the D10 piggyback: the sender's latest COMMIT, carried as
/// an optional trailing section so its delivery is ATOMIC with the
/// submit. Algorithm 1 line 52 (V_j[j] ∈ {t_j, t_j−1}) is sound only
/// when the server's committed version for a writer never lags its
/// submit timestamp by more than one — true over reliable channels, but
/// two consecutively dropped COMMITs break it and turn pure message loss
/// into a false kBadWriterTimestamp at some reader. Embedding restores
/// the invariant with probability 1: any SUBMIT the server accepts first
/// lands the commit of the op before it. Absent (the reliable-fabric
/// default), the encoding is byte-identical to the pre-D10 wire format.
struct SubmitMessage {
  Timestamp t = 0;
  InvocationTuple inv;
  Value value;    // ⊥ for reads
  Bytes data_sig; // δ: signature over (t, x̄_i)
  std::optional<CommitMessage> commit;  // D10: sender's latest COMMIT
};

/// A version together with the COMMIT-signature of the client that
/// committed it (SVER[k] on the server; VER_i[k] entries in FAUST).
struct SignedVersion {
  Version version;
  Bytes commit_sig;
};

/// The read-specific part of a REPLY: SVER[j] and MEM[j] of Algorithm 2.
struct ReadPayload {
  SignedVersion writer;  // (V^j, M^j, φ_j): largest version committed by C_j
  Timestamp tj = 0;      // MEM[j].timestamp
  Value value;           // MEM[j].value
  Bytes data_sig;        // MEM[j].δ
};

/// ⟨REPLY, c, SVER[c], [SVER[j], MEM[j],] L, P⟩ — server → client.
struct ReplyMessage {
  ClientId c = 0;                    // client whose op committed last in the schedule
  SignedVersion last;                // SVER[c]
  std::optional<ReadPayload> read;   // present iff replying to a read
  std::vector<InvocationTuple> L;    // concurrent (submitted, uncommitted) ops
  std::vector<Bytes> P;              // P[k]: PROOF-signature of client k+1 (n entries)
};

/// FAUST §6: "which is the maximal version you know?" (offline channel).
struct ProbeMessage {};

/// FAUST §6 reply to a probe, also sent spontaneously: the maximal version
/// known to the sender, with the id of the client that committed it (the
/// signature verifies against that committer, which need not be the
/// sender).
struct VersionMessage {
  ClientId committer = 0;
  SignedVersion ver;
};

/// FAUST §6: server exposed as faulty. When the detection stems from two
/// incomparable committed versions, they are attached as transferable
/// evidence; receivers verify it before treating the sender's claim as
/// proof (defence against a compromised client spuriously killing the
/// service — an extension beyond the paper, see DESIGN.md).
struct FailureMessage {
  bool has_evidence = false;
  ClientId committer_a = 0;
  SignedVersion a;
  ClientId committer_b = 0;
  SignedVersion b;
};

// --- Delta messages (O(change) on the wire, DESIGN.md D6) -----------------

/// One edit step of a value delta: erase `erase_len` bytes at `offset`,
/// then insert `insert` there. Splices apply SEQUENTIALLY — each offset
/// addresses the intermediate buffer after all previous splices — so a
/// list of splices composes edits the way they were made, and chained
/// deltas concatenate into one list.
struct Splice {
  std::uint64_t offset = 0;
  std::uint64_t erase_len = 0;
  Bytes insert;

  bool operator==(const Splice&) const = default;
};

/// Splice whose insert bytes view into the decode buffer.
struct SpliceView {
  std::uint64_t offset = 0;
  std::uint64_t erase_len = 0;
  BytesView insert;
};

/// Applies `splices` sequentially to `base`. Returns nullopt if any
/// splice reaches past the end of the evolving buffer or the final size
/// differs from `expected_size` — a malformed delta is rejected as a
/// whole, never partially applied. The result can only grow by the total
/// insert bytes (themselves bounded by the carrying message), so a
/// Byzantine sender cannot force an oversized allocation.
std::optional<Bytes> apply_delta(BytesView base, std::span<const Splice> splices,
                                 std::uint64_t expected_size);
std::optional<Bytes> apply_delta(BytesView base, std::span<const SpliceView> splices,
                                 std::uint64_t expected_size);

/// The splice-list codec, one for every delta on the wire: SUBMIT_DELTA,
/// REPLY_DELTA, the durable snapshot image, and the cache tier's delta
/// fills and sections (DESIGN.md D8). A splice is u64 offset | u64
/// erase_len | u32-prefixed insert; a list is a u32 count followed by its
/// splices. A list may be written from several runs (one per history
/// record), which concatenate on the wire.
using SpliceRuns = std::span<const std::span<const Splice>>;
std::size_t splice_list_size(std::span<const Splice> splices);  // count prefix included
std::size_t splice_list_size(SpliceRuns runs);
void put_splice_list(wire::Writer& w, std::span<const Splice> splices);
void put_splice_list(wire::Writer& w, SpliceRuns runs);

/// Reads one counted splice list into `out` (inserts view into the
/// reader's buffer). False on a short read, or on a count above 2^16 or
/// one the remaining bytes cannot hold — refused before any allocation.
bool get_splice_list(wire::Reader& r, std::vector<SpliceView>* out);

/// ⟨SUBMIT_DELTA, t, (i,oc,j,σ), …, δ⟩ — client → server. Two forms,
/// selected by the opcode (any mismatch between opcode and fields is
/// non-canonical and rejected at decode):
///   * kWrite: ships `splices` against the client's previously submitted
///     value (whose chunk-tree root is `base_digest`) instead of the full
///     bytes; `new_root`/`new_size` describe the spliced result and δ is
///     the fresh DATA signature over (t, new_root). Verifiers rehash only
///     the dirty chunks against the base tree they hold — a server cannot
///     forge a delta that roots correctly.
///   * kRead: a plain read that ADVERTISES the reader's last verified
///     (base_ts, base_digest) for register X_j, inviting a REPLY_DELTA
///     (or "unchanged" token) against that base.
struct SubmitDeltaMessage {
  Timestamp t = 0;
  InvocationTuple inv;
  // kWrite form:
  crypto::Hash base_digest{};
  crypto::Hash new_root{};
  std::uint64_t new_size = 0;
  std::vector<Splice> splices;
  // kRead form (base_digest doubles as the advertised digest):
  Timestamp base_ts = 0;
  Bytes data_sig;
  /// D10 piggybacked COMMIT (see SubmitMessage::commit); absent keeps the
  /// encoding byte-identical to the pre-D10 format.
  std::optional<CommitMessage> commit;
};

/// The read payload of a REPLY_DELTA: MEM[j] expressed against the
/// reader's advertised base. `unchanged` is the O(1) token (the value
/// still digests to `base_digest`); otherwise `splices` rebuild the
/// current value from the base. The DATA signature always covers the
/// CURRENT (tj, root) — a server lying "unchanged" about a changed value
/// ships a signature over a root the base digest cannot reproduce, which
/// the verifier rejects.
struct ReadPayloadDelta {
  SignedVersion writer;
  Timestamp tj = 0;
  bool unchanged = false;
  crypto::Hash base_digest{};
  std::uint64_t new_size = 0;
  std::vector<Splice> splices;
  Bytes data_sig;
};

/// ⟨REPLY_DELTA, c, SVER[c], read-delta, L, P⟩ — server → client, only
/// ever answering an advertising read. Version/L/P parts are verbatim
/// ReplyMessage fields; only the value travels as a delta.
struct ReplyDeltaMessage {
  ClientId c = 0;
  SignedVersion last;
  ReadPayloadDelta read;
  std::vector<InvocationTuple> L;
  std::vector<Bytes> P;
};

// --- Zero-copy view variants (hot client decode path) ---------------------

/// Register value as a view: nullopt is ⊥, otherwise a view of the bytes.
using ValueView = std::optional<BytesView>;

/// InvocationTuple whose signature is a view into the decode buffer.
struct InvocationTupleView {
  ClientId client = 0;
  OpCode oc = OpCode::kRead;
  ClientId target = 0;
  BytesView submit_sig;
};

/// SignedVersion whose signature is a view into the decode buffer.
struct SignedVersionView {
  Version version;
  BytesView commit_sig;

  /// Deep copy, for the few fields a client retains past the buffer.
  SignedVersion to_owned() const {
    return SignedVersion{version, Bytes(commit_sig.begin(), commit_sig.end())};
  }
};

/// ReadPayload over views.
struct ReadPayloadView {
  SignedVersionView writer;
  Timestamp tj = 0;
  ValueView value;
  BytesView data_sig;
};

/// ReplyMessage over views: decoding allocates only the version vectors
/// and the L/P vectors of views, never the signature/value bytes.
struct ReplyMessageView {
  ClientId c = 0;
  SignedVersionView last;
  std::optional<ReadPayloadView> read;
  std::vector<InvocationTupleView> L;
  std::vector<BytesView> P;

  /// Deep copy into the owned representation.
  ReplyMessage materialize() const;
};

/// SubmitMessage over views (the server's zero-copy decode path): the
/// value and signatures alias the delivered message buffer, which the
/// server retains via shared ownership instead of copying the value out.
struct SubmitMessageView {
  Timestamp t = 0;
  InvocationTupleView inv;
  ValueView value;
  BytesView data_sig;
  // D10 piggybacked COMMIT (SubmitMessage::commit). The version is owned
  // (decoding it allocates its vectors anyway); the signatures view into
  // the buffer like every other byte field.
  bool has_commit = false;
  Version commit_version;
  BytesView commit_sig;
  BytesView proof_sig;
};

/// SubmitDeltaMessage over views (the server's zero-copy decode path).
struct SubmitDeltaMessageView {
  Timestamp t = 0;
  InvocationTupleView inv;
  crypto::Hash base_digest{};
  crypto::Hash new_root{};
  std::uint64_t new_size = 0;
  std::vector<SpliceView> splices;
  Timestamp base_ts = 0;
  BytesView data_sig;
  // D10 piggybacked COMMIT (see SubmitMessageView).
  bool has_commit = false;
  Version commit_version;
  BytesView commit_sig;
  BytesView proof_sig;
};

/// ReadPayloadDelta over views.
struct ReadPayloadDeltaView {
  SignedVersionView writer;
  Timestamp tj = 0;
  bool unchanged = false;
  crypto::Hash base_digest{};
  std::uint64_t new_size = 0;
  std::vector<SpliceView> splices;
  BytesView data_sig;
};

/// ReplyDeltaMessage over views (the client's hot decode path).
struct ReplyDeltaMessageView {
  ClientId c = 0;
  SignedVersionView last;
  ReadPayloadDeltaView read;
  std::vector<InvocationTupleView> L;
  std::vector<BytesView> P;
};

/// Converts a ValueView back to an owned Value.
Value to_owned(const ValueView& v);

/// Deep copy of an InvocationTupleView.
InvocationTuple to_owned(const InvocationTupleView& v);

// --- Server-side reply snapshot (copy-on-write, see PERF.md) --------------

/// ReadPayload whose value/DATA-signature share the writer's retained
/// SUBMIT buffer (zero-copy server storage): the read part of a
/// ReplySnapshot. Encoded in place; materialize() for a mutable copy.
struct ReadPayloadShared {
  SignedVersion writer;
  Timestamp tj = 0;
  SharedValue value;
  SharedBytes data_sig;

  ReadPayload materialize() const {
    return ReadPayload{writer, tj, to_owned(value), data_sig.to_bytes()};
  }
};

/// Wraps an owned ReadPayload into the shared representation (moves the
/// bytes into fresh shared buffers); hand-built snapshot convenience.
ReadPayloadShared to_shared(ReadPayload rp);

/// What ServerCore::process_submit returns: the REPLY content with L and P
/// SHARED with the server state instead of deep-copied. The snapshot's
/// logical L is the first `l_count` entries of `*L`: the server may append
/// to the shared vector after the snapshot is taken (the submitting op
/// itself, line 116), which leaves the prefix untouched — so consumers
/// must read at most `l_count` entries and must not hold iterators into
/// `*L` across server calls. Any mutation that would disturb the prefix
/// (the COMMIT-time prune) clones first if a snapshot is still alive, so
/// a held snapshot always observes the state it was taken from. Encode it
/// directly, or `materialize()` a mutable deep copy (adversaries do, to
/// distort it).
struct ReplySnapshot {
  ClientId c = 0;
  SignedVersion last;
  std::optional<ReadPayloadShared> read;
  std::shared_ptr<const std::vector<InvocationTuple>> L;
  std::size_t l_count = 0;  // logical |L|: entries of *L this reply covers
  std::shared_ptr<const std::vector<Bytes>> P;
  std::uint64_t generation = 0;  // server state generation when taken

  /// Deep copy into a free-standing, mutable ReplyMessage.
  ReplyMessage materialize() const;
};

// --- Encoding (type tag + payload) ---------------------------------------

Bytes encode(const SubmitMessage& m);
Bytes encode(const ReplyMessage& m);
Bytes encode(const ReplySnapshot& m);
Bytes encode(const SubmitDeltaMessage& m);
Bytes encode(const ReplyDeltaMessage& m);
Bytes encode(const CommitMessage& m);
Bytes encode(const ProbeMessage& m);
Bytes encode(const VersionMessage& m);
Bytes encode(const FailureMessage& m);

/// Exact encoded size of each message (what encode() will produce); used
/// to reserve the Writer buffer so encoding allocates exactly once.
std::size_t size_hint(const SubmitMessage& m);
std::size_t size_hint(const ReplyMessage& m);
std::size_t size_hint(const ReplySnapshot& m);
std::size_t size_hint(const SubmitDeltaMessage& m);
std::size_t size_hint(const ReplyDeltaMessage& m);
std::size_t size_hint(const CommitMessage& m);
std::size_t size_hint(const ProbeMessage& m);
std::size_t size_hint(const VersionMessage& m);
std::size_t size_hint(const FailureMessage& m);

/// Peeks the type tag; nullopt on empty/unknown.
std::optional<MsgType> peek_type(BytesView data);

std::optional<SubmitMessage> decode_submit(BytesView data);
std::optional<ReplyMessage> decode_reply(BytesView data);

/// Zero-copy SUBMIT decode (the server's hot path): all byte fields view
/// into `data`, which must outlive the returned message. Same validation
/// as decode_submit.
std::optional<SubmitMessageView> decode_submit_view(BytesView data);

/// Encodes a SUBMIT directly from borrowed parts (the zero-copy write
/// path: the value bytes are copied exactly once, into the wire buffer).
/// Byte-identical to encode(SubmitMessage) over the same content.
/// `commit` (may be null) appends the D10 piggybacked COMMIT section.
Bytes encode_submit(Timestamp t, const InvocationTuple& inv, const ValueView& value,
                    BytesView data_sig, const CommitMessage* commit = nullptr);
std::optional<CommitMessage> decode_commit(BytesView data);
std::optional<ProbeMessage> decode_probe(BytesView data);
std::optional<VersionMessage> decode_version(BytesView data);
std::optional<FailureMessage> decode_failure(BytesView data);

/// Zero-copy REPLY decode: all byte fields view into `data`, which must
/// outlive the returned message. Same validation and nullopt-on-garbage
/// behavior as decode_reply.
std::optional<ReplyMessageView> decode_reply_view(BytesView data);

// --- Delta codecs ---------------------------------------------------------

std::optional<SubmitDeltaMessage> decode_submit_delta(BytesView data);
std::optional<ReplyDeltaMessage> decode_reply_delta(BytesView data);

/// Zero-copy decodes: byte fields (splice inserts, signatures) view into
/// `data`, which must outlive the returned message.
std::optional<SubmitDeltaMessageView> decode_submit_delta_view(BytesView data);
std::optional<ReplyDeltaMessageView> decode_reply_delta_view(BytesView data);

/// Encodes the write form of SUBMIT_DELTA directly from borrowed parts.
/// Byte-identical to encode(SubmitDeltaMessage) over the same content
/// (inv.oc must be kWrite).
Bytes encode_submit_delta(Timestamp t, const InvocationTuple& inv,
                          const crypto::Hash& base_digest, const crypto::Hash& new_root,
                          std::uint64_t new_size, std::span<const Splice> splices,
                          BytesView data_sig, const CommitMessage* commit = nullptr);

/// Encodes the read form of SUBMIT_DELTA (an advertised-base read).
/// Byte-identical to encode(SubmitDeltaMessage) over the same content
/// (inv.oc must be kRead).
Bytes encode_submit_read_base(Timestamp t, const InvocationTuple& inv, Timestamp base_ts,
                              const crypto::Hash& base_digest, BytesView data_sig,
                              const CommitMessage* commit = nullptr);

/// The server's plan for answering an advertised-base read without
/// materializing a ReplyDeltaMessage: either "unchanged" or the ordered
/// runs of splice records that carry the base forward to the current
/// value. The spans borrow the server's delta history and must stay
/// alive until encode_reply_delta returns.
struct ReadDeltaPlan {
  bool unchanged = false;
  crypto::Hash base_digest{};  // the client's advertised base (echoed)
  std::uint64_t new_size = 0;  // current value size (spliced form only)
  std::vector<std::span<const Splice>> runs;
};

/// Encodes a REPLY_DELTA from a reply snapshot plus a delta plan, without
/// copying the splice history. Byte-identical to encode(ReplyDeltaMessage)
/// over the same content. The snapshot's read payload must be present.
Bytes encode_reply_delta(const ReplySnapshot& snap, const ReadDeltaPlan& plan);

// --- Signature payloads (domain-separated canonical encodings) -----------

/// SUBMIT ‖ oc ‖ j ‖ t — binds an invocation to its schedule position.
Bytes submit_payload(OpCode oc, ClientId target, Timestamp t);

/// DATA ‖ t ‖ x̄ — binds the writer's register hash to its timestamp.
Bytes data_payload(Timestamp t, const crypto::Hash& xbar);

/// COMMIT ‖ V ‖ M — the version a client vouches for.
Bytes commit_payload(const Version& ver);

/// PROOF ‖ M[i] — the digest of the signer's own view-history prefix.
Bytes proof_payload(const Digest& mi);

}  // namespace faust::ustor
