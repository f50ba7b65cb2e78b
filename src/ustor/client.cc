#include "ustor/client.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace faust::ustor {
namespace {

// Aliased views are equal without a pass over the bytes: an "unchanged"
// delta reply verifies the memoized value in place.
bool same_bytes(BytesView a, BytesView b) {
  return a.size() == b.size() &&
         (a.data() == b.data() || std::equal(a.begin(), a.end(), b.begin()));
}

}  // namespace

Client::Client(ClientId id, int n, std::shared_ptr<const crypto::SignatureScheme> sigs,
               net::Transport& net, NodeId server, std::size_t verify_cache_entries,
               DigestMode digest_mode)
    : id_(id),
      n_(n),
      sigs_(std::make_shared<crypto::VerifyCache>(std::move(sigs), verify_cache_entries)),
      net_(net),
      server_(server),
      digest_mode_(digest_mode),
      bottom_digest_(value_digest(digest_mode, std::nullopt)),
      version_(n),
      verified_commit_(static_cast<std::size_t>(n)),
      verified_proof_(static_cast<std::size_t>(n)),
      verified_data_(static_cast<std::size_t>(n)),
      data_hashers_(digest_mode == DigestMode::kChunked ? static_cast<std::size_t>(n) : 0) {
  FAUST_CHECK(id_ >= 1 && id_ <= n_);
  xbar_ = bottom_digest_;  // x̄_i of the initial value ⊥
  net_.attach(id_, *this);
}

void Client::fail(FailCause cause) {
  if (failed()) return;
  fail_cause_ = cause;
  pending_.reset();  // the operation never completes; the server is faulty
  if (on_fail) on_fail(cause);
}

void Client::writex(Value x, WriteCallback done) {
  const ValueView view = x.has_value() ? ValueView(BytesView(*x)) : ValueView(std::nullopt);
  writex_impl(view, nullptr, std::move(done));
}

void Client::writex(std::shared_ptr<const Bytes> x, const crypto::Hash* precomputed_xbar,
                    WriteCallback done) {
  FAUST_CHECK(x != nullptr);
  writex_impl(ValueView(BytesView(*x)), precomputed_xbar, std::move(done));
}

void Client::writex_impl(const ValueView& x_view, const crypto::Hash* precomputed_xbar,
                         WriteCallback done) {
  FAUST_CHECK(!busy());  // well-formed executions: one op at a time
  if (failed()) return;

  const Timestamp t = version_.v(id_) + 1;                              // line 12
  xbar_ = precomputed_xbar ? *precomputed_xbar
                           : value_digest(digest_mode_, x_view);        // line 13

  InvocationTuple inv;
  inv.client = id_;
  inv.oc = OpCode::kWrite;
  inv.target = id_;  // writes go to own register X_i
  inv.submit_sig = sigs_->sign(id_, submit_payload(OpCode::kWrite, id_, t));
  const Bytes data_sig = sigs_->sign(id_, data_payload(t, xbar_));

  pending_ = PendingOp{OpCode::kWrite, id_, t, std::move(done), {}};
  pending_->data_sig = data_sig;
  // line 15; the value bytes are copied exactly once, into the wire buffer
  last_submit_ = encode_submit(t, inv, x_view, data_sig, piggyback_commit());
  net_.send(id_, server_, Bytes(last_submit_));
}

void Client::writex_delta(const crypto::Hash& base_digest, const crypto::Hash& new_root,
                          std::uint64_t new_size, std::vector<Splice> splices,
                          WriteCallback done) {
  FAUST_CHECK(!busy());
  FAUST_CHECK(digest_mode_ == DigestMode::kChunked);
  if (failed()) return;

  const Timestamp t = version_.v(id_) + 1;  // line 12
  xbar_ = new_root;                         // line 13: caller-maintained root

  InvocationTuple inv;
  inv.client = id_;
  inv.oc = OpCode::kWrite;
  inv.target = id_;
  inv.submit_sig = sigs_->sign(id_, submit_payload(OpCode::kWrite, id_, t));
  const Bytes data_sig = sigs_->sign(id_, data_payload(t, new_root));

  pending_ = PendingOp{OpCode::kWrite, id_, t, std::move(done), {}};
  pending_->data_sig = data_sig;
  ++delta_submits_;
  last_submit_ = encode_submit_delta(t, inv, base_digest, new_root, new_size,
                                     std::span<const Splice>(splices), BytesView(data_sig),
                                     piggyback_commit());
  net_.send(id_, server_, Bytes(last_submit_));
}

void Client::readx(ClientId j, ReadCallback done) {
  FAUST_CHECK(!busy());
  FAUST_CHECK(j >= 1 && j <= n_);
  if (failed()) return;

  pending_ = PendingOp{OpCode::kRead, j, 0, {}, std::move(done)};
  send_read_submit(j, /*allow_delta=*/true);
}

void Client::send_read_submit(ClientId j, bool allow_delta) {
  const Timestamp t = version_.v(id_) + 1;  // line 25
  pending_->t = t;

  InvocationTuple inv;
  inv.client = id_;
  inv.oc = OpCode::kRead;
  inv.target = j;
  inv.submit_sig = sigs_->sign(id_, submit_payload(OpCode::kRead, j, t));
  const Bytes data_sig = sigs_->sign(id_, data_payload(t, xbar_));  // line 26: x̄_i unchanged

  const VerifiedData& memo = verified_data_[static_cast<std::size_t>(j - 1)];
  const bool advertise =
      allow_delta && digest_mode_ == DigestMode::kChunked && !memo.sig.empty() &&
      memo.value.has_value();
  pending_->advertised = advertise;
  if (advertise) {
    ++delta_reads_advertised_;
    last_submit_ = encode_submit_read_base(t, inv, memo.tj, memo.digest, BytesView(data_sig),
                                           piggyback_commit());
  } else {
    // line 27; the piggyback (when on) carries the latest COMMIT with it
    last_submit_ = encode_submit(t, inv, std::nullopt, BytesView(data_sig), piggyback_commit());
  }
  net_.send(id_, server_, Bytes(last_submit_));
}

bool Client::has_verified_base(ClientId j) const {
  const VerifiedData& memo = verified_data_[static_cast<std::size_t>(j - 1)];
  return !memo.sig.empty() && memo.value.has_value();
}

void Client::evict_verified_value(ClientId j) {
  verified_data_[static_cast<std::size_t>(j - 1)] = VerifiedData{};
  if (digest_mode_ == DigestMode::kChunked) {
    data_hashers_[static_cast<std::size_t>(j - 1)] = crypto::ChunkedHasher{};
  }
}

void Client::on_message(NodeId from, BytesView msg) {
  if (failed()) return;  // halted
  if (from != server_) return;

  const auto type = peek_type(msg);
  if (type == MsgType::kReplyDelta) {
    current_reply_fp_ = reply_fingerprint(msg);
    auto reply = decode_reply_delta_view(msg);
    if (!reply.has_value()) {
      fail(FailCause::kMalformedMessage);
      return;
    }
    handle_reply_delta(*reply);
    if (!failed()) remember_reply(current_reply_fp_);
    return;
  }
  if (!type.has_value() || *type != MsgType::kReply) {
    fail(FailCause::kMalformedMessage);
    return;
  }
  // Zero-copy decode: the view's byte fields alias `msg`, which stays
  // alive for the whole delivery callback. handle_reply copies the few
  // fields it keeps.
  current_reply_fp_ = reply_fingerprint(msg);
  auto reply = decode_reply_view(msg);
  if (!reply.has_value()) {
    fail(FailCause::kMalformedMessage);
    return;
  }
  handle_reply(*reply);
  if (!failed()) remember_reply(current_reply_fp_);
}

void Client::remember_reply(std::uint64_t fp) {
  if (reply_seen(fp)) return;  // echoes re-deliver the same bytes
  reply_fps_[reply_fp_next_] = fp;
  reply_fp_next_ = (reply_fp_next_ + 1) % reply_fps_.size();
}

bool Client::stale_reply(const Version& vc) {
  // Chaos tolerance (D10): duplicating or reordering channels can
  // redeliver the REPLY of an operation that already completed, and the
  // server's duplicate-suppression cache echoes the ORIGINAL reply bytes
  // after a resubmitted SUBMIT. Both carry V_c[i] < V_i[i] — but so does
  // the reply of a server that regressed this client's version (dropped
  // its COMMITs, replayed a fork). The discriminator is CONTENT: under a
  // correct server exactly one reply per own timestamp ever exists, so
  // every legitimate stale delivery is byte-identical to a reply this
  // client already processed. Match → timing fault, dropped without
  // alarm (Def. 5 accuracy). No match → the stale version is fresh
  // evidence, and the reply falls through to line 36, which fails the
  // client as before. (A Byzantine server replaying an old reply
  // verbatim is indistinguishable from a lossy channel and merely
  // stalls the op — the api layer's deadline surfaces that as
  // unavailability, never as fail_i.)
  if (vc.n() == n_ && vc.v(id_) < version_.v(id_) && reply_seen(current_reply_fp_)) {
    ++stale_replies_dropped_;
    return true;
  }
  return false;
}

std::uint64_t Client::reply_fingerprint(BytesView msg) {
  // FNV-1a. A collision can only make FRESH bytes look like an echo —
  // suppressing a detection a server could equally avoid by staying
  // silent — never the reverse: a true echo always matches its own
  // stored fingerprint, so accuracy does not rest on this hash.
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : msg) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

bool Client::reply_seen(std::uint64_t fp) const {
  for (const std::uint64_t f : reply_fps_) {
    if (f == fp) return true;
  }
  return false;
}

void Client::handle_reply(const ReplyMessageView& m) {
  if (stale_reply(m.last.version)) return;
  if (!pending_.has_value()) {
    // A correct server replies exactly once per SUBMIT.
    fail(FailCause::kUnsolicitedReply);
    return;
  }
  const bool is_read = pending_->oc == OpCode::kRead;
  // The REPLY shape must match the pending operation (Algorithm 2 lines
  // 111 / 114).
  if (is_read != m.read.has_value()) {
    fail(FailCause::kMalformedMessage);
    return;
  }

  if (!update_version(m)) return;                      // lines 17 / 29
  if (is_read && !check_data(m, pending_->target)) return;  // line 30

  complete_op();
}

void Client::complete_op() {
  // Lines 18–19 / 31–32: sign and send COMMIT; the operation completes
  // without waiting for any acknowledgement (wait-freedom).
  send_commit();

  PendingOp op = std::move(*pending_);
  pending_.reset();
  ++completed_ops_;

  if (op.oc == OpCode::kWrite) {
    WriteResult r;
    r.t = op.t;
    r.own = SignedVersion{version_, commit_sig_};
    r.data_sig = std::move(op.data_sig);
    if (op.write_done) op.write_done(r);
  } else {
    ReadResult r;
    r.t = op.t;
    r.value = std::move(last_read_value_);  // check_data's copy; not read again
    r.own = SignedVersion{version_, commit_sig_};
    r.writer = op.target;
    r.writer_version = last_read_writer_version_;
    r.writer_ts = last_read_writer_ts_;
    r.value_digest = last_read_digest_;
    r.data_sig = last_read_sig_;
    if (op.read_done) op.read_done(r);
  }
}

void Client::handle_reply_delta(const ReplyDeltaMessageView& m) {
  if (stale_reply(m.last.version)) return;
  if (!pending_.has_value()) {
    fail(FailCause::kUnsolicitedReply);
    return;
  }
  // Only a read that advertised a base may be answered with REPLY_DELTA.
  if (pending_->oc != OpCode::kRead || !pending_->advertised) {
    fail(FailCause::kMalformedMessage);
    return;
  }
  const ClientId j = pending_->target;

  // Resolve the candidate value against the memoized verified base. The
  // server echoes the base digest it served against; anything other than
  // our memo's digest (evicted, rotated, or a lie) is unresolvable.
  const VerifiedData& memo = verified_data_[static_cast<std::size_t>(j - 1)];
  bool resolved = false;
  Bytes rebuilt;  // owns the spliced reconstruction while we verify it
  ValueView candidate = std::nullopt;
  if (!memo.sig.empty() && memo.value.has_value() && memo.digest == m.read.base_digest) {
    if (m.read.unchanged) {
      candidate = BytesView(*memo.value);
      resolved = true;
    } else {
      auto applied = apply_delta(BytesView(*memo.value),
                                 std::span<const SpliceView>(m.read.splices), m.read.new_size);
      if (applied.has_value()) {
        rebuilt = std::move(*applied);
        candidate = BytesView(rebuilt);
        resolved = true;
      }
    }
  }

  // Lines 34–52 run verbatim on a full-reply view over the delta reply;
  // the reconstruction stands in for the wire value.
  ReplyMessageView full;
  full.c = m.c;
  full.last = m.last;
  ReadPayloadView rp;
  rp.writer = m.read.writer;
  rp.tj = m.read.tj;
  rp.value = candidate;
  rp.data_sig = m.read.data_sig;
  full.read = rp;
  full.L = m.L;
  full.P = m.P;

  if (!update_version(full)) return;  // genuine violations: fail_i as ever
  if (!resolved) {
    retry_read_full();
    return;
  }
  delta_tolerant_ = true;
  const bool data_ok = check_data(full, j);
  delta_tolerant_ = false;
  if (!data_ok) {
    if (failed()) return;  // staleness/commit-sig violations already failed
    retry_read_full();     // the delta did not check out: re-read in full
    return;
  }
  if (m.read.unchanged) {
    ++delta_replies_unchanged_;
  } else {
    ++delta_replies_spliced_;
  }
  complete_op();
}

void Client::retry_read_full() {
  ++delta_fallbacks_;
  // Commit the version we just absorbed FIRST: without it, the server's L
  // still lists the absorbed operation and the retried reply would flag it
  // as self-concurrency (line 43).
  send_commit();
  send_read_submit(pending_->target, /*allow_delta=*/false);
}

void Client::resubmit() {
  if (failed()) return;
  // Latest COMMIT first (see header): signing is deterministic HMAC, so
  // send_commit() reproduces the exact pre-crash bytes, and FIFO channels
  // deliver it before the resent SUBMIT below.
  if (!commit_sig_.empty()) send_commit();
  if (pending_.has_value() && !last_submit_.empty()) {
    net_.send(id_, server_, Bytes(last_submit_));
  }
}

bool Client::commit_sig_valid(ClientId committer, const Version& v, BytesView sig) {
  SignedVersion& memo = verified_commit_[static_cast<std::size_t>(committer - 1)];
  if (!memo.commit_sig.empty() && memo.version == v && same_bytes(memo.commit_sig, sig)) {
    return true;
  }
  if (!sigs_->verify(committer, commit_payload(v), sig)) return false;
  memo.version = v;
  memo.commit_sig.assign(sig.begin(), sig.end());
  return true;
}

bool Client::proof_sig_valid(ClientId k, const Digest& mk, BytesView sig) {
  auto& [memo_digest, memo_sig] = verified_proof_[static_cast<std::size_t>(k - 1)];
  if (!memo_sig.empty() && memo_digest == mk && same_bytes(memo_sig, sig)) return true;
  if (!sigs_->verify(k, proof_payload(mk), sig)) return false;
  memo_digest = mk;
  memo_sig.assign(sig.begin(), sig.end());
  return true;
}

bool Client::data_sig_valid(ClientId j, Timestamp tj, const ValueView& value, BytesView sig) {
  VerifiedData& memo = verified_data_[static_cast<std::size_t>(j - 1)];
  const bool value_matches =
      memo.value.has_value() == value.has_value() &&
      (!value.has_value() || same_bytes(*memo.value, *value));
  if (!memo.sig.empty() && memo.tj == tj && value_matches && same_bytes(memo.sig, sig)) {
    staged_digest_ = memo.digest;
    return true;
  }
  crypto::Hash digest;
  if (digest_mode_ == DigestMode::kChunked && value.has_value()) {
    // Incremental re-digest against the last VERIFIED value of C_j: the
    // hasher's tree mirrors memo.value, so only chunks that actually
    // differ are rehashed. The root is derived from the RECEIVED bytes
    // either way — a tampered value yields a root its signature cannot
    // cover, and the check below fails exactly as with a full rehash.
    crypto::ChunkedHasher& h = data_hashers_[static_cast<std::size_t>(j - 1)];
    if (h.initialized() && memo.value.has_value()) {
      h.update_diff(BytesView(*memo.value), *value);
    } else {
      h.reset(*value);
    }
    digest = h.root();
  } else {
    digest = value_digest(digest_mode_, value);
  }
  if (!sigs_->verify(j, data_payload(tj, digest), sig)) {
    // The hasher now mirrors the REJECTED bytes while memo.value still
    // holds the verified ones; restore the invariant before the fail path
    // runs (the client halts right after, but keep the state honest).
    if (digest_mode_ == DigestMode::kChunked && value.has_value()) {
      crypto::ChunkedHasher& h = data_hashers_[static_cast<std::size_t>(j - 1)];
      if (memo.value.has_value()) {
        h.reset(BytesView(*memo.value));
      } else {
        h = crypto::ChunkedHasher{};
      }
    }
    return false;
  }
  memo.tj = tj;
  // Skip the O(K) copy when the bytes already match — which is also the
  // case where `value` may alias memo.value itself (an "unchanged" delta
  // reply verifies the memoized bytes in place).
  if (!value_matches) memo.value = to_owned(value);
  memo.sig.assign(sig.begin(), sig.end());
  memo.digest = digest;
  staged_digest_ = digest;
  return true;
}

bool Client::update_version(const ReplyMessageView& m) {
  const Version& vc = m.last.version;

  // Structural validation (a Byzantine server may send anything): vector
  // sizes and the committer index must be sane before we index with them.
  if (m.c < 1 || m.c > n_ || vc.n() != n_ || static_cast<int>(m.P.size()) != n_ ||
      static_cast<int>(vc.M.size()) != n_) {
    fail(FailCause::kMalformedMessage);
    return false;
  }

  // Line 35: the version must be the initial one or carry a valid
  // COMMIT-signature by C_c.
  if (!vc.is_zero() && !commit_sig_valid(m.c, vc, m.last.commit_sig)) {
    fail(FailCause::kBadCommitSignature);
    return false;
  }

  // Line 36: our own version must be a predecessor, and the server must
  // not have hidden or invented operations of ours.
  if (!version_leq(version_, vc) || vc.v(id_) != version_.v(id_)) {
    fail(FailCause::kVersionRegression);
    return false;
  }

  version_ = vc;                      // line 37
  Digest d = version_.m(m.c);         // line 38

  for (const InvocationTupleView& inv : m.L) {  // lines 39–45
    const ClientId k = inv.client;
    if (k < 1 || k > n_) {
      fail(FailCause::kMalformedMessage);
      return false;
    }
    // Line 41: the server must have received the COMMIT of C_k's previous
    // operation — P[k] proves it and pins C_k's view-history prefix.
    const Digest& mk = version_.m(k);
    if (mk.present && !proof_sig_valid(k, mk, m.P[static_cast<std::size_t>(k - 1)])) {
      fail(FailCause::kBadProofSignature);
      return false;
    }
    version_.v(k) += 1;  // line 42
    // Line 43: we never run concurrently with ourselves, and the SUBMIT
    // signature must bind (oc, target, position).
    if (k == id_) {
      fail(FailCause::kSelfConcurrent);
      return false;
    }
    if (!sigs_->verify(k, submit_payload(inv.oc, inv.target, version_.v(k)),
                       inv.submit_sig)) {
      fail(FailCause::kBadSubmitSignature);
      return false;
    }
    d = chain_step(d, k);   // line 44
    version_.m(k) = d;      // line 45
  }

  version_.v(id_) += 1;                    // line 46
  version_.m(id_) = chain_step(d, id_);    // line 47

  // The position we just computed must equal the timestamp we submitted;
  // otherwise the server inserted or dropped operations of ours (already
  // excluded by line 36 + 43, but cheap to assert defensively).
  if (version_.v(id_) != pending_->t) {
    fail(FailCause::kVersionRegression);
    return false;
  }
  return true;
}

bool Client::check_data(const ReplyMessageView& m, ClientId j) {
  const ReadPayloadView& rp = *m.read;
  const Version& vj = rp.writer.version;

  if (vj.n() != n_ || static_cast<int>(vj.M.size()) != n_) {
    fail(FailCause::kMalformedMessage);
    return false;
  }

  // Line 49: SVER[j] is initial or carries C_j's COMMIT-signature.
  if (!vj.is_zero() && !commit_sig_valid(j, vj, rp.writer.commit_sig)) {
    fail(FailCause::kBadCommitSignature);
    return false;
  }

  // Line 50: the value is bound to t_j by C_j's DATA-signature. Under
  // delta_tolerant_ (the value is a local reconstruction from a delta), a
  // failed binding condemns the delta, not the server: return false so the
  // caller retries in full — that retry either verifies or yields primary
  // evidence that fails the client for real.
  if (rp.tj != 0 && !data_sig_valid(j, rp.tj, rp.value, rp.data_sig)) {
    if (!delta_tolerant_) fail(FailCause::kBadDataSignature);
    return false;
  }
  if (rp.tj == 0) staged_digest_ = bottom_digest_;
  // Tightening consistent with the technical report: when t_j = 0, C_j has
  // never submitted an operation, so the register must still hold ⊥ — no
  // signature exists that could vouch for any other value.
  if (rp.tj == 0 && rp.value.has_value()) {
    if (!delta_tolerant_) fail(FailCause::kBadDataSignature);
    return false;
  }

  // Line 51: the writer's version is in our past, and the returned data
  // stems from the most recent operation of C_j in our view.
  if (!version_leq(vj, m.last.version) || rp.tj != version_.v(j)) {
    fail(FailCause::kStaleRead);
    return false;
  }

  // Line 52: C_j's own entry matches t_j (COMMIT received) or t_j − 1
  // (COMMIT still in flight).
  if (!(vj.v(j) == rp.tj || (rp.tj > 0 && vj.v(j) == rp.tj - 1))) {
    fail(FailCause::kBadWriterTimestamp);
    return false;
  }

  last_read_value_ = to_owned(rp.value);
  last_read_writer_version_ = rp.writer.to_owned();
  last_read_writer_ts_ = rp.tj;
  last_read_digest_ = staged_digest_;
  last_read_sig_ = rp.tj != 0 ? Bytes(rp.data_sig.begin(), rp.data_sig.end()) : Bytes();
  return true;
}

void Client::send_commit() {
  CommitMessage cm;
  cm.version = version_;
  cm.commit_sig = sigs_->sign(id_, commit_payload(version_));
  cm.proof_sig = sigs_->sign(id_, proof_payload(version_.m(id_)));
  commit_sig_ = cm.commit_sig;
  // Prime the memo with our own commit: when the server next echoes our
  // version back as SVER[c], it is skipped without re-verification.
  SignedVersion& memo = verified_commit_[static_cast<std::size_t>(id_ - 1)];
  memo.version = version_;
  memo.commit_sig = commit_sig_;
  net_.send(id_, server_, encode(cm));
  // Retain for the D10 piggyback: the next SUBMIT carries this commit so
  // its delivery cannot be lost independently of the submit.
  last_commit_ = std::move(cm);
}

}  // namespace faust::ustor
