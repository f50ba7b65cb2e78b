// USTOR client — Algorithm 1 of the paper.
//
// One instance per client C_i. Operations are asynchronous: `writex` /
// `readx` send a SUBMIT message and invoke the given callback when the
// operation completes (after the single REPLY round; the trailing COMMIT
// is off the critical path, exactly as in §5, so the protocol is wait-free
// whenever the server responds).
//
// Every check of lines 35–52 is implemented verbatim; any violation makes
// the client emit fail_i (the `on_fail` hook) and halt, as the paper
// prescribes.  Garbage from the server (undecodable messages, wrong vector
// sizes, out-of-range indices) is routed into the same fail path — a
// Byzantine server can stop a client but never crash or confuse it.
//
// Hot-path engineering (PERF.md): replies are decoded zero-copy
// (decode_reply_view) and verified through two memo layers — exact-match
// memos for the recurring COMMIT/PROOF entries, and a VerifyCache for
// everything else.  Neither weakens any check: a memo hit requires
// byte-exact equality with a previously *verified* input, so forged or
// tampered data always goes through (and fails) full verification.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <utility>

#include "common/bytes.h"
#include "common/ids.h"
#include "crypto/chunked_hasher.h"
#include "crypto/signature.h"
#include "crypto/verify_cache.h"
#include "net/transport.h"
#include "ustor/messages.h"
#include "ustor/types.h"

namespace faust::ustor {

/// Why the client declared the server faulty (diagnostic detail carried
/// alongside the paper's single fail_i event).
enum class FailCause {
  kNone,
  kMalformedMessage,    // undecodable or ill-typed server message
  kBadCommitSignature,  // line 35 / 49
  kVersionRegression,   // line 36: (V_i,M_i) ⋠ (V_c,M_c) or V_c[i] ≠ V_i[i]
  kBadProofSignature,   // line 41
  kSelfConcurrent,      // line 43: own operation listed as concurrent
  kBadSubmitSignature,  // line 43
  kBadDataSignature,    // line 50
  kStaleRead,           // line 51: (V_j,M_j) ⋠ (V_c,M_c) or t_j ≠ V_i[j]
  kBadWriterTimestamp,  // line 52: V_j[j] ∉ {t_j, t_j − 1}
  kUnsolicitedReply,    // REPLY with no operation in flight
};

/// Result of an extended write (the paper's writex): the operation's
/// timestamp and the version it committed.
struct WriteResult {
  Timestamp t = 0;
  SignedVersion own;  // (V_i, M_i) plus our COMMIT-signature on it
  /// The DATA signature δ_i = sign_i(DATA‖t‖x̄) that went out with the
  /// SUBMIT — the exact wire bytes, not a re-signature (relevant for
  /// stateful schemes like MSS where re-signing consumes a key and yields
  /// different bytes). Together with (t, x̄, value) this is the same
  /// self-certifying tuple a read yields, usable for edge-cache push
  /// fills (DESIGN.md D8).
  Bytes data_sig;
};

/// Result of an extended read (readx): the value, our committed version,
/// and the register owner's largest committed version (V_j, M_j).
struct ReadResult {
  Timestamp t = 0;
  Value value;
  SignedVersion own;
  ClientId writer = 0;  // register owner C_j
  SignedVersion writer_version;
  /// The VERIFIED binding of the value: t_j (the writer's timestamp the
  /// DATA signature was checked against; 0 for a never-written register)
  /// and the value digest x̄_j that signature covers. Collision resistance
  /// makes (writer, writer_ts, value_digest) a sound cache key for any
  /// derived artifact of the value — the KV layer's decode memos key on
  /// it (PERF.md "O(change) operations").
  Timestamp writer_ts = 0;
  crypto::Hash value_digest{};
  /// The writer's DATA signature δ_j that was verified over
  /// data_payload(writer_ts, value_digest) — empty for a never-written
  /// register. Re-serving (writer_ts, value_digest, value, data_sig) to
  /// any verifier (e.g. an edge cache's readers, DESIGN.md D8) lets them
  /// run the exact same check; the tuple is self-certifying.
  Bytes data_sig;
};

/// Client-side protocol engine (Algorithm 1).
class Client : public net::Node {
 public:
  using WriteCallback = std::function<void(const WriteResult&)>;
  using ReadCallback = std::function<void(const ReadResult&)>;

  /// `id` ∈ [1, n]. The signature scheme is shared by all clients (and is
  /// never given to the server). `server` is the server's node id.
  /// `verify_cache_entries` bounds the VerifyCache this client wraps the
  /// scheme in (see crypto/verify_cache.h for the eviction policy).
  /// `digest_mode` selects how DATA payload digests are computed; every
  /// client of a deployment must use the same mode (the verifier
  /// recomputes the signer's digest). DigestMode::kChunked, whose chunk
  /// trees make deltas verifiable, also speaks the D6 delta wire protocol
  /// (SUBMIT_DELTA / REPLY_DELTA); kFlat speaks the full-value wire.
  /// Replies degrade to the full-value path on any base mismatch, so
  /// mixed deployments stay correct.
  Client(ClientId id, int n, std::shared_ptr<const crypto::SignatureScheme> sigs,
         net::Transport& net, NodeId server = kServerNode,
         std::size_t verify_cache_entries = 4096, DigestMode digest_mode = DigestMode::kFlat);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Extended write to own register X_i (paper's writex_i). At most one
  /// operation may be in flight; see busy().
  void writex(Value x, WriteCallback done);

  /// Zero-copy write: the value is a shared immutable buffer whose bytes
  /// are copied exactly once, into the wire encoding. When
  /// `precomputed_xbar` is non-null it is used as x̄_i instead of
  /// re-digesting the buffer — the caller (the KV layer's incremental
  /// encoder) maintains the digest across edits and MUST pass exactly
  /// value_digest(mode, *x); a wrong digest only invalidates the caller's
  /// own DATA signature, which every verifier then rejects.
  void writex(std::shared_ptr<const Bytes> x, const crypto::Hash* precomputed_xbar,
              WriteCallback done);

  /// Delta write (D6): ships only the splices that carry the last
  /// published value forward, plus the new chunk-tree root the caller
  /// maintains incrementally. `base_digest` must be the root of the value
  /// currently held by the server (our previous publish); on any server-
  /// side mismatch the submit is dropped and the caller's timeout/retry
  /// machinery re-publishes in full. Requires DigestMode::kChunked.
  void writex_delta(const crypto::Hash& base_digest, const crypto::Hash& new_root,
                    std::uint64_t new_size, std::vector<Splice> splices, WriteCallback done);

  /// Extended read of register X_j (paper's readx_i), 1 <= j <= n.
  /// Under kChunked digests, with a verified value of X_j memoized, the
  /// request advertises (t_j, x̄_j) so the server may answer with an
  /// "unchanged" token or a splice run instead of the full value.
  void readx(ClientId j, ReadCallback done);

  /// Reconnect-and-resume after a server restart (DESIGN.md D7): re-sends
  /// the latest COMMIT (deterministic HMAC — byte-identical to the
  /// original, and process_commit is idempotent) and then, if an
  /// operation is still in flight, the retained SUBMIT bytes. The COMMIT
  /// goes first so a recovered server that already processed the SUBMIT
  /// prunes our op from L before answering the resend; the durable
  /// server's duplicate detection serves the cached original reply, so
  /// the op completes exactly once. No-op when idle or failed.
  void resubmit();

  /// True while an operation is awaiting its REPLY.
  bool busy() const { return pending_.has_value(); }

  /// True once fail_i has been emitted; the client is halted forever.
  bool failed() const { return fail_cause_ != FailCause::kNone; }
  FailCause fail_cause() const { return fail_cause_; }

  /// The fail_i output action (§5): invoked exactly once, at detection.
  std::function<void(FailCause)> on_fail;

  ClientId id() const { return id_; }
  int n() const { return n_; }

  /// Current version (V_i, M_i) — last committed.
  const Version& version() const { return version_; }

  /// COMMIT-signature on the current version (⊥ before the first op).
  const Bytes& commit_signature() const { return commit_sig_; }

  /// Number of completed operations (diagnostics).
  std::uint64_t completed_ops() const { return completed_ops_; }

  /// Replies that provably answered an already-completed own operation
  /// (chaos duplicates, retransmission echoes) and were dropped without
  /// alarm — the D10 no-false-fail_i rule in numbers.
  std::uint64_t stale_replies_dropped() const { return stale_replies_dropped_; }

  /// D10: piggyback this client's latest COMMIT on every SUBMIT /
  /// SUBMIT_DELTA. Over a lossy fabric, commit delivery then rides the
  /// (retransmitted) submit, so the server's SVER for this client never
  /// lags a served value by more than one version — the invariant behind
  /// Algorithm 1 line 52. A reader on a reliable fabric never needs it;
  /// OFF keeps the wire bytes (and pinned message counts) unchanged.
  void set_attach_commits(bool on) { attach_commits_ = on; }
  bool attach_commits() const { return attach_commits_; }

  // D6 outcome counters (diagnostics; benches surface them as JSON).
  std::uint64_t delta_submits() const { return delta_submits_; }
  std::uint64_t delta_reads_advertised() const { return delta_reads_advertised_; }
  std::uint64_t delta_replies_unchanged() const { return delta_replies_unchanged_; }
  std::uint64_t delta_replies_spliced() const { return delta_replies_spliced_; }
  std::uint64_t delta_fallbacks() const { return delta_fallbacks_; }

  /// True iff a verified present value of X_j is memoized (i.e. the next
  /// read of j will advertise a base under wire deltas).
  bool has_verified_base(ClientId j) const;

  /// Test hook: drops the verified-value memo (and chunk-tree state) for
  /// X_j, as a bounded-memory deployment would under cache pressure. The
  /// next delta reply against the forgotten base cannot resolve and must
  /// fall back to a full read.
  void evict_verified_value(ClientId j);

  /// The signature-verification cache this client funnels all signature
  /// checks through (diagnostics: hit/miss counts).
  const crypto::VerifyCache& verify_cache() const { return *sigs_; }

  // net::Node: handles REPLY messages.
  void on_message(NodeId from, BytesView msg) override;

 private:
  struct PendingOp {
    OpCode oc;
    ClientId target;
    Timestamp t;
    WriteCallback write_done;  // set for writes
    ReadCallback read_done;    // set for reads
    bool advertised = false;   // read carried an advertised base (D6)
    Bytes data_sig;            // write's wire δ, echoed in WriteResult
  };

  void fail(FailCause cause);

  /// D10 stale-reply filter: true iff `vc` (a reply's V_c) provably
  /// answers an already-completed own operation (V_c[i] < V_i[i]) — the
  /// reply is then counted and dropped instead of tripping the
  /// unsolicited-reply / regression checks (chaos duplicates must never
  /// forge failure evidence).
  bool stale_reply(const Version& vc);

  /// FNV-1a over the raw reply bytes — the echo identity (see
  /// stale_reply).
  static std::uint64_t reply_fingerprint(BytesView msg);
  bool reply_seen(std::uint64_t fp) const;
  void remember_reply(std::uint64_t fp);

  void handle_reply(const ReplyMessageView& m);

  /// REPLY_DELTA path (D6): resolves the candidate value against the
  /// memoized base, then runs the verbatim checks of lines 34–52 on the
  /// reconstruction. Unresolvable or unverifiable deltas degrade to a
  /// full-value retry; genuine protocol violations still emit fail_i.
  void handle_reply_delta(const ReplyDeltaMessageView& m);

  /// D6 fallback: commits the absorbed version (so the retried reply does
  /// not list our own just-absorbed operation as concurrent), then
  /// re-issues the pending read as a plain full-value SUBMIT. At most one
  /// fallback per op: the retry never advertises a base.
  void retry_read_full();

  /// Sends the SUBMIT for the pending read of X_j, advertising the
  /// memoized base when `allow_delta` and one is available.
  void send_read_submit(ClientId j, bool allow_delta);

  /// Lines 18–19 / 31–32 + completion: signs and sends COMMIT, pops the
  /// pending op and invokes its callback.
  void complete_op();

  /// Lines 34–47. Returns false (after emitting fail) on any violation.
  bool update_version(const ReplyMessageView& m);

  /// Lines 48–52. Returns false (after emitting fail) on any violation.
  bool check_data(const ReplyMessageView& m, ClientId j);

  /// Signs and sends the COMMIT message for the current version and
  /// refreshes commit_sig_ / proof material.
  void send_commit();

  /// Line 35/49 with memo: true iff `sig` is `committer`'s COMMIT
  /// signature over `v`. Skips verification when (v, sig) equals the last
  /// pair that verified for this committer.
  bool commit_sig_valid(ClientId committer, const Version& v, BytesView sig);

  /// Line 41 with memo: true iff `sig` is C_k's PROOF signature over mk.
  bool proof_sig_valid(ClientId k, const Digest& mk, BytesView sig);

  /// Line 50 with memo: true iff `sig` is C_j's DATA signature binding
  /// (tj, x̄(value)). On success stages the verified digest in
  /// staged_digest_. Under DigestMode::kChunked the digest of a changed
  /// value is re-derived incrementally: the per-writer ChunkedHasher
  /// mirrors the last VERIFIED value, so only chunks that differ from it
  /// are rehashed (a memcmp scan finds them). A forged value therefore
  /// still produces ITS OWN root — never the memoized one — and fails the
  /// signature check exactly like the flat mode.
  bool data_sig_valid(ClientId j, Timestamp tj, const ValueView& value, BytesView sig);

  /// Shared writex body: `x_view` aliases either the owned value or the
  /// shared buffer; exactly one wire copy is made.
  void writex_impl(const ValueView& x_view, const crypto::Hash* precomputed_xbar,
                   WriteCallback done);

  const ClientId id_;
  const int n_;
  const std::shared_ptr<const crypto::VerifyCache> sigs_;
  net::Transport& net_;
  const NodeId server_;
  const DigestMode digest_mode_;  // kChunked also speaks the D6 delta wire
  const crypto::Hash bottom_digest_;  // x̄ of ⊥ (mode-independent)

  crypto::Hash xbar_;       // hash of own register's last written value
  Version version_;         // (V_i, M_i)
  Bytes commit_sig_;        // φ on version_ (empty before first commit)
  FailCause fail_cause_ = FailCause::kNone;
  std::optional<PendingOp> pending_;
  Bytes last_submit_;  // wire bytes of the latest SUBMIT, for resubmit()
  std::uint64_t completed_ops_ = 0;
  std::uint64_t stale_replies_dropped_ = 0;  // D10 (see accessor)

  // Fingerprints of recently processed replies (ring; zero = empty). A
  // stale-versioned reply is dropped as a chaos echo ONLY if its bytes
  // match one of these — fresh content with a regressed version stays a
  // hard failure. 64 entries dwarfs any bounded-delay duplicate window.
  std::array<std::uint64_t, 64> reply_fps_{};
  std::size_t reply_fp_next_ = 0;
  std::uint64_t current_reply_fp_ = 0;  // fp of the reply being handled

  bool attach_commits_ = false;  // D10 COMMIT piggyback (see accessor)
  CommitMessage last_commit_;    // latest sent COMMIT, for the piggyback

  /// The commit to piggyback on the next SUBMIT, or null (feature off /
  /// nothing committed yet).
  const CommitMessage* piggyback_commit() const {
    return attach_commits_ && !last_commit_.commit_sig.empty() ? &last_commit_ : nullptr;
  }

  /// Set only while check_data() re-runs lines 48–52 on a value
  /// RECONSTRUCTED from a delta: the two data-signature rejections then
  /// mean "the delta (or the server's unchanged claim) did not check out"
  /// — grounds for the full-value fallback, not for fail_i, since a full
  /// retry will either verify or produce primary evidence of misbehavior.
  /// Every other check (commit sigs, version order, staleness) stays a
  /// hard failure regardless.
  bool delta_tolerant_ = false;

  std::uint64_t delta_submits_ = 0;
  std::uint64_t delta_reads_advertised_ = 0;
  std::uint64_t delta_replies_unchanged_ = 0;
  std::uint64_t delta_replies_spliced_ = 0;
  std::uint64_t delta_fallbacks_ = 0;

  // Read-reply fields staged by check_data() for the completion callback.
  Value last_read_value_;
  SignedVersion last_read_writer_version_;
  Timestamp last_read_writer_ts_ = 0;
  crypto::Hash last_read_digest_{};
  Bytes last_read_sig_;
  crypto::Hash staged_digest_{};  // set by data_sig_valid on success

  // Exact-match memos of the last successfully verified inputs, one slot
  // per peer (empty signature = no entry). See class comment.
  std::vector<SignedVersion> verified_commit_;  // [k-1]: (version, φ_k)
  std::vector<std::pair<Digest, Bytes>> verified_proof_;  // [k-1]: (M[k], ψ_k)
  struct VerifiedData {
    Timestamp tj = 0;
    Value value;
    Bytes sig;
    crypto::Hash digest{};  // x̄ the signature was verified against
  };
  std::vector<VerifiedData> verified_data_;  // [j-1]: (t_j, value, δ_j)
  /// [j-1]: chunked-mode incremental digest state, mirroring
  /// verified_data_[j-1].value (kChunked only; see data_sig_valid).
  std::vector<crypto::ChunkedHasher> data_hashers_;
};

}  // namespace faust::ustor
