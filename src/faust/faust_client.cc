#include "faust/faust_client.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "crypto/verify_cache.h"
#include "ustor/messages.h"

namespace faust {

bool verify_failure_evidence(const crypto::SignatureScheme& sigs, int n,
                             const ustor::FailureMessage& m) {
  if (!m.has_evidence) return false;
  if (m.committer_a < 1 || m.committer_a > n || m.committer_b < 1 || m.committer_b > n) {
    return false;
  }
  if (m.a.version.n() != n || m.b.version.n() != n) return false;
  if (!sigs.verify(m.committer_a, ustor::commit_payload(m.a.version), m.a.commit_sig)) {
    return false;
  }
  if (!sigs.verify(m.committer_b, ustor::commit_payload(m.b.version), m.b.commit_sig)) {
    return false;
  }
  return !ustor::versions_comparable(m.a.version, m.b.version);
}

FaustClient::FaustClient(ClientId id, int n,
                         std::shared_ptr<const crypto::SignatureScheme> sigs,
                         net::Transport& net, net::Mailbox& mail, exec::Executor& exec,
                         FaustConfig config)
    : id_(id),
      n_(n),
      // FAUST re-verifies the same maximal versions on every probe reply
      // and dummy read; the VerifyCache memoizes those (PERF.md).
      sigs_(std::make_shared<crypto::VerifyCache>(sigs, config.verify_cache_entries)),
      mail_(mail),
      exec_(exec),
      config_(config),
      ustor_(id, n, std::move(sigs), net, kServerNode, config.verify_cache_entries,
             config.data_digest),
      VER_(static_cast<std::size_t>(n)),
      W_(static_cast<std::size_t>(n), 0),
      // Jitter stream is per-client so a fleet retransmitting after the
      // same outage desynchronizes instead of stampeding in lockstep.
      retransmit_rng_(0x9E3779B97F4A7C15ULL ^ static_cast<std::uint64_t>(id)) {
  for (auto& kv : VER_) {
    kv.sv.version = ustor::Version(n);
    kv.updated_at = exec_.now();
  }
  // USTOR's fail_i feeds straight into FAUST's failure handling. No
  // transferable evidence exists for these causes (the offending message
  // cannot be re-verified by peers), so the FAILURE broadcast is bare.
  ustor_.on_fail = [this](ustor::FailCause) {
    detect_failure(FailureReason::kUstorDetected, std::nullopt);
  };
  // Retransmission implies a lossy fabric, and loss alone can leave the
  // server's SVER for this client two commits behind its next submit —
  // which a READER of this register would misread as misbehavior
  // (Algorithm 1 line 52). Piggybacking the latest COMMIT on every
  // SUBMIT closes that window with probability 1.
  if (config_.retransmit_base > 0) ustor_.set_attach_commits(true);
  mail_.register_client(id_, [this](ClientId from, BytesView msg) { handle_mail(from, msg); });
  arm_dummy_timer();
  arm_probe_timer();
}

FaustClient::~FaustClient() {
  exec_.cancel(dummy_timer_);
  exec_.cancel(probe_timer_);
  cancel_retransmit();
}

void FaustClient::start_retransmit() {
  if (config_.retransmit_base == 0) return;
  retransmit_delay_ = config_.retransmit_base;
  arm_retransmit();
}

void FaustClient::arm_retransmit() {
  const sim::Time jitter =
      retransmit_delay_ > 1 ? retransmit_rng_.next_in(0, retransmit_delay_ / 2) : 0;
  retransmit_timer_ = exec_.after(retransmit_delay_ + jitter, [this] { retransmit_fire(); });
}

void FaustClient::retransmit_fire() {
  retransmit_timer_ = 0;
  if (failed_ || !op_in_flight_) return;
  ++retransmits_;
  // COMMIT first, then the in-flight SUBMIT: the resent COMMIT clears our
  // L entry at the server, and the duplicate SUBMIT either un-parks /
  // dedups there (already processed — cached reply comes back) or gets
  // processed for the first time (original was dropped). Exactly-once
  // holds either way.
  ustor_.resubmit();
  const sim::Time cap =
      config_.retransmit_cap > 0 ? config_.retransmit_cap : config_.retransmit_base * 8;
  retransmit_delay_ = std::min(cap, retransmit_delay_ * 2);
  arm_retransmit();
}

void FaustClient::cancel_retransmit() {
  if (retransmit_timer_ != 0) {
    exec_.cancel(retransmit_timer_);
    retransmit_timer_ = 0;
  }
}

Timestamp FaustClient::fully_stable_timestamp() const {
  Timestamp min = W_.empty() ? 0 : W_[0];
  for (const Timestamp w : W_) min = std::min(min, w);
  return min;
}

void FaustClient::write(Bytes value, WriteHandler done) {
  write_shared(std::make_shared<const Bytes>(std::move(value)), std::nullopt, std::move(done));
}

void FaustClient::write_shared(std::shared_ptr<const Bytes> value,
                               const std::optional<crypto::Hash>& digest, WriteHandler done) {
  if (failed_) return;
  FAUST_CHECK(value != nullptr);
  PendingUserOp op;
  op.is_write = true;
  op.value = std::move(value);
  op.digest = digest;
  op.write_done = std::move(done);
  queue_.push_back(std::move(op));
  pump();
}

void FaustClient::write_delta(const crypto::Hash& base_digest, const crypto::Hash& new_root,
                              std::uint64_t new_size, std::vector<ustor::Splice> splices,
                              WriteHandler done) {
  if (failed_) return;
  FAUST_CHECK(config_.data_digest == ustor::DigestMode::kChunked);
  PendingUserOp op;
  op.is_write = true;
  op.is_delta_write = true;
  op.base_digest = base_digest;
  op.new_root = new_root;
  op.new_size = new_size;
  op.splices = std::move(splices);
  op.write_done = std::move(done);
  queue_.push_back(std::move(op));
  pump();
}

void FaustClient::read(ClientId j, ReadHandler done) {
  read_ex(j, done ? ReadExHandler([done = std::move(done)](const ustor::Value& v, Timestamp t,
                                                           const ReadMeta&) { done(v, t); })
                  : ReadExHandler{});
}

void FaustClient::read_ex(ClientId j, ReadExHandler done) {
  if (failed_) return;
  FAUST_CHECK(j >= 1 && j <= n_);
  PendingUserOp op;
  op.target = j;
  op.read_done = std::move(done);
  queue_.push_back(std::move(op));
  pump();
}

void FaustClient::pump() {
  if (failed_ || op_in_flight_ || queue_.empty()) return;
  PendingUserOp op = std::move(queue_.front());
  queue_.pop_front();
  start_op(std::move(op));
}

void FaustClient::start_op(PendingUserOp op) {
  op_in_flight_ = true;
  start_retransmit();
  if (op.is_write) {
    auto write_cb = [this, done = std::move(op.write_done)](const ustor::WriteResult& r) {
      op_in_flight_ = false;
      cancel_retransmit();
      last_write_sig_ = r.data_sig;
      const bool ok = ingest(id_, id_, r.own, /*already_verified=*/true);
      if (done) done(r.t);
      if (ok) recompute_stability();
      pump();
    };
    if (op.is_delta_write) {
      ustor_.writex_delta(op.base_digest, op.new_root, op.new_size, std::move(op.splices),
                          std::move(write_cb));
      return;
    }
    ustor_.writex(std::move(op.value), op.digest ? &*op.digest : nullptr, std::move(write_cb));
  } else {
    const ClientId j = op.target;
    ustor_.readx(j, [this, j, done = std::move(op.read_done)](const ustor::ReadResult& r) {
      op_in_flight_ = false;
      cancel_retransmit();
      // Order matters for accuracy: fold in the writer's version first so
      // an inconsistency is reported before the value is handed out.
      bool ok = true;
      if (!r.writer_version.version.is_zero()) {
        // USTOR already verified φ_j (line 49), no need to re-verify.
        ok = ingest(j, j, r.writer_version, /*already_verified=*/true);
      }
      if (ok) ok = ingest(id_, id_, r.own, /*already_verified=*/true);
      if (done) done(r.value, r.t, ReadMeta{r.writer_ts, r.value_digest, BytesView(r.data_sig)});
      if (ok) recompute_stability();
      pump();
    });
  }
}

void FaustClient::arm_dummy_timer() {
  if (config_.dummy_read_period == 0 || n_ < 2) return;
  dummy_timer_ = exec_.after(config_.dummy_read_period, [this] {
    dummy_tick();
    if (!failed_) arm_dummy_timer();
  });
}

void FaustClient::dummy_tick() {
  if (failed_ || !online_ || op_in_flight_ || !queue_.empty() || ustor_.busy()) return;
  // §6: read the register of every client in round-robin fashion while no
  // user operation is ongoing. Own register is skipped — a dummy read's
  // purpose is to pick up other clients' versions.
  next_dummy_target_ = (next_dummy_target_ % n_) + 1;
  if (next_dummy_target_ == id_) next_dummy_target_ = (next_dummy_target_ % n_) + 1;
  const ClientId j = next_dummy_target_;
  ++dummy_reads_;
  op_in_flight_ = true;
  start_retransmit();
  ustor_.readx(j, [this, j](const ustor::ReadResult& r) {
    op_in_flight_ = false;
    cancel_retransmit();
    bool ok = true;
    if (!r.writer_version.version.is_zero()) {
      ok = ingest(j, j, r.writer_version, /*already_verified=*/true);
    }
    if (ok) ok = ingest(id_, id_, r.own, /*already_verified=*/true);
    if (ok) recompute_stability();
    pump();
  });
}

void FaustClient::arm_probe_timer() {
  if (config_.probe_check_period == 0 || n_ < 2) return;
  probe_timer_ = exec_.after(config_.probe_check_period, [this] {
    probe_tick();
    if (!failed_) arm_probe_timer();
  });
}

void FaustClient::probe_tick() {
  if (failed_ || !online_) return;
  const sim::Time now = exec_.now();
  for (ClientId j = 1; j <= n_; ++j) {
    if (j == id_) continue;
    if (now - ver(j).updated_at > config_.probe_interval) {
      ++probes_sent_;
      mail_.post(id_, j, ustor::encode(ustor::ProbeMessage{}));
      // Rate-limit: treat the probe itself as contact; the next probe goes
      // out only if the entry stays stale for another full interval.
      ver(j).updated_at = now;
    }
  }
}

bool FaustClient::ingest(ClientId j, ClientId committer, const ustor::SignedVersion& sv,
                         bool already_verified) {
  if (failed_) return false;
  if (sv.version.is_zero()) return true;  // nothing learned
  if (sv.version.n() != n_ || committer < 1 || committer > n_) return true;  // ignore garbage
  if (!already_verified &&
      !sigs_->verify(committer, ustor::commit_payload(sv.version), sv.commit_sig)) {
    // Unverifiable versions are dropped, not trusted: failure accuracy
    // (Def. 5 item 5) forbids alarming on anything a peer can't prove.
    return true;
  }

  // §6 consistency check: every learned version must be ≼-comparable with
  // the maximal known version. Incomparable signed versions are precisely
  // the evidence that the server forked the clients' views.
  if (max_slot_ != 0) {
    const KnownVersion& mx = ver(max_slot_);
    if (!ustor::versions_comparable(mx.sv.version, sv.version)) {
      ustor::FailureMessage ev;
      ev.has_evidence = true;
      ev.committer_a = mx.committer;
      ev.a = mx.sv;
      ev.committer_b = committer;
      ev.b = sv;
      detect_failure(FailureReason::kIncomparableVersions, ev);
      return false;
    }
  }

  KnownVersion& slot = ver(j);
  if (ustor::version_leq(sv.version, slot.sv.version)) return true;  // not news
  // The staleness clock for Δ-probing advances only when C_j's entry
  // actually *grows* (or on direct client-to-client contact, handled in
  // handle_version_msg). Old-but-valid data relayed by the server must
  // not count as liveness of C_j — otherwise a server replaying a frozen
  // fork would suppress the probes that expose it.
  slot.updated_at = exec_.now();
  slot.committer = committer;
  slot.sv = sv;
  if (max_slot_ == 0 || ustor::version_leq(ver(max_slot_).sv.version, sv.version)) {
    max_slot_ = j;
  }
  stable_dirty_ = true;
  return true;
}

void FaustClient::recompute_stability() {
  if (failed_ || !stable_dirty_) return;
  stable_dirty_ = false;
  bool advanced = false;
  for (ClientId j = 1; j <= n_; ++j) {
    const Timestamp w = ver(j).sv.version.v(id_);  // W_i[j] = V_j[i]
    Timestamp& cur = W_[static_cast<std::size_t>(j - 1)];
    if (w > cur) {
      cur = w;
      advanced = true;
    }
  }
  if (advanced && on_stable) on_stable(W_);
}

void FaustClient::detect_failure(FailureReason reason,
                                 std::optional<ustor::FailureMessage> evidence) {
  if (failed_) return;
  failed_ = true;
  failure_reason_ = reason;
  // Capture the audit record before halting (the recovery hook of §3).
  FailureReport report;
  report.reason = reason;
  report.evidence = evidence;
  for (ClientId j = 1; j <= n_; ++j) {
    if (ver(j).committer != 0) report.known_versions.emplace_back(ver(j).committer, ver(j).sv);
  }
  failure_report_ = std::move(report);
  exec_.cancel(dummy_timer_);
  exec_.cancel(probe_timer_);
  cancel_retransmit();
  queue_.clear();

  // Alert every other client over the offline channel (§6); mailbox
  // delivery is eventual, so even currently offline clients learn of it.
  ustor::FailureMessage msg = evidence.value_or(ustor::FailureMessage{});
  const Bytes encoded = ustor::encode(msg);
  for (ClientId j = 1; j <= n_; ++j) {
    if (j != id_) mail_.post(id_, j, encoded);
  }
  if (on_fail) on_fail(reason);
}

void FaustClient::handle_mail(ClientId from, BytesView msg) {
  if (failed_) return;
  const auto type = ustor::peek_type(msg);
  if (!type.has_value()) return;
  switch (*type) {
    case ustor::MsgType::kProbe: {
      if (!ustor::decode_probe(msg).has_value()) return;
      // Reply with the maximal version we know (which need not have been
      // committed by us — §6).
      ustor::VersionMessage vm;
      if (max_slot_ != 0) {
        vm.committer = ver(max_slot_).committer;
        vm.ver = ver(max_slot_).sv;
      }
      mail_.post(id_, from, ustor::encode(vm));
      break;
    }
    case ustor::MsgType::kVersion: {
      const auto vm = ustor::decode_version(msg);
      if (!vm.has_value()) return;
      handle_version_msg(from, *vm);
      break;
    }
    case ustor::MsgType::kFailure: {
      const auto fm = ustor::decode_failure(msg);
      if (!fm.has_value()) return;
      handle_failure_msg(*fm);
      break;
    }
    default:
      break;
  }
}

void FaustClient::handle_version_msg(ClientId from, const ustor::VersionMessage& m) {
  ++versions_received_;
  if (from < 1 || from > n_) return;
  // A VERSION message is direct client-to-client contact, which the
  // server cannot forge or replay: it does refresh the staleness clock,
  // whether or not it carries news.
  ver(from).updated_at = exec_.now();
  if (m.ver.version.is_zero()) return;
  // The version arrived from `from`, so it reflects from's knowledge: it
  // lands in slot `from`, but verifies against its committer's key.
  if (ingest(from, m.committer, m.ver, /*already_verified=*/false)) {
    recompute_stability();
  }
}

bool FaustClient::evidence_valid(const ustor::FailureMessage& m) const {
  return verify_failure_evidence(*sigs_, n_, m);
}

void FaustClient::handle_failure_msg(const ustor::FailureMessage& m) {
  if (m.has_evidence && !evidence_valid(m)) return;  // unprovable claim
  // Clients follow the protocol (§2), so a bare FAILURE from a peer is
  // accepted; evidence-bearing ones were just re-verified independently.
  detect_failure(FailureReason::kPeerReport,
                 m.has_evidence ? std::optional<ustor::FailureMessage>(m) : std::nullopt);
}

void FaustClient::go_offline() {
  online_ = false;
  mail_.set_online(id_, false);
}

void FaustClient::go_online() {
  online_ = true;
  mail_.set_online(id_, true);
}

}  // namespace faust
