#include "storage/persistent_server.h"

#include "ustor/state_codec.h"
#include "wire/encoder.h"

namespace faust::storage {

PersistentServer::PersistentServer(int n, net::Transport& net, std::string log_path,
                                   NodeId self)
    : core_(n),
      net_(net),
      self_(self),
      log_(std::move(log_path)),
      last_reply_(static_cast<std::size_t>(n)),
      parked_(static_cast<std::size_t>(n)) {
  recover();
  net_.attach(self_, *this);
}

PersistentServer::PersistentServer(int n, net::Transport& net, const std::string& dir,
                                   DurabilityOptions options, NodeId self)
    : core_(n),
      net_(net),
      self_(self),
      log_(dir + "/wal.log"),
      snaps_(std::make_unique<SnapshotStore>(dir + "/snapshot.bin")),
      options_(options),
      last_reply_(static_cast<std::size_t>(n)),
      parked_(static_cast<std::size_t>(n)) {
  recover();
  net_.attach(self_, *this);
}

PersistentServer::~PersistentServer() { net_.detach(self_); }

void PersistentServer::recover() {
  std::size_t skip = 0;
  if (snaps_ != nullptr) {
    if (auto img = snaps_->load(); img.has_value()) {
      if (restore_from_payload(img->payload)) {
        recovered_from_snapshot_ = true;
        skip = static_cast<std::size_t>(img->log_records);
      }
      // A payload that decodes to garbage despite a matching chunk-tree
      // root would mean a ChunkedHasher collision; treat it like any
      // other rejected snapshot and fall back to full replay.
    }
  }
  recovered_ = log_.replay(
      [this](BytesView record) {
        // Record layout: u32 sender ‖ raw message bytes.
        wire::Reader r(record);
        const NodeId from = static_cast<NodeId>(r.get_u32());
        if (!r.ok()) return;
        const Bytes msg = r.get_raw(r.remaining());
        apply(from, msg, /*live=*/false);
      },
      skip);
  last_snapshot_records_ = skip;
  if (skip > log_.records()) {
    // The snapshot claims records the (externally truncated) log no
    // longer holds. The snapshot state is durable and authoritative —
    // re-anchor its coverage at the log's actual length so the next
    // recovery skips the right amount.
    force_snapshot();
  }
}

bool PersistentServer::restore_from_payload(BytesView payload) {
  wire::Reader r(payload);
  const BytesView image = r.get_bytes_view();
  if (wire::Reader::is_error(image)) return false;
  std::vector<Bytes> replies(last_reply_.size());
  for (auto& rep : replies) {
    rep = r.get_bytes();
    if (!r.ok()) return false;
  }
  if (!r.exhausted()) return false;
  if (!ustor::restore_server_state(core_, image)) return false;
  last_reply_ = std::move(replies);
  return true;
}

Bytes PersistentServer::snapshot_payload() const {
  wire::Writer w;
  w.put_bytes(ustor::encode_server_state(core_));
  for (const Bytes& rep : last_reply_) w.put_bytes(rep);
  return w.take();
}

bool PersistentServer::force_snapshot() {
  if (snaps_ == nullptr) return false;
  if (!snaps_->save(log_.records(), snapshot_payload())) return false;
  last_snapshot_records_ = log_.records();
  return true;
}

void PersistentServer::maybe_snapshot() {
  if (snaps_ == nullptr || options_.snapshot_every == 0) return;
  if (log_.records() - last_snapshot_records_ >= options_.snapshot_every) {
    force_snapshot();
  }
}

void PersistentServer::on_message(NodeId from, BytesView msg) {
  const auto type = ustor::peek_type(msg);
  if (!type.has_value()) return;
  if (*type != ustor::MsgType::kSubmit && *type != ustor::MsgType::kSubmitDelta &&
      *type != ustor::MsgType::kCommit)
    return;
  // Before anything is logged: a record from a sender outside 1..n would
  // poison the WAL for every later recovery.
  if (!core_.is_client(from)) return;

  // Duplicate SUBMIT (a reconnecting client resending its in-flight op):
  // MEM[from].t is the last timestamp `from` submitted, so anything at or
  // below it was already processed. Serve the cached original reply —
  // reprocessing would duplicate the op's L entry and the WAL record.
  if (*type != ustor::MsgType::kCommit) {
    Timestamp t = 0;
    std::optional<ustor::CommitMessage> piggyback;
    if (*type == ustor::MsgType::kSubmit) {
      const auto v = ustor::decode_submit_view(msg);
      if (!v.has_value() || v->inv.client != from || !core_.is_client(v->inv.target)) return;
      t = v->t;
      if (v->has_commit) {
        piggyback = ustor::CommitMessage{v->commit_version,
                                         Bytes(v->commit_sig.begin(), v->commit_sig.end()),
                                         Bytes(v->proof_sig.begin(), v->proof_sig.end())};
      }
    } else {
      const auto v = ustor::decode_submit_delta_view(msg);
      if (!v.has_value() || v->inv.client != from || !core_.is_client(v->inv.target)) return;
      t = v->t;
      if (v->has_commit) {
        piggyback = ustor::CommitMessage{v->commit_version,
                                         Bytes(v->commit_sig.begin(), v->commit_sig.end()),
                                         Bytes(v->proof_sig.begin(), v->proof_sig.end())};
      }
    }

    // D10 piggybacked COMMIT: when it advances SVER[from], log and apply
    // it as its own record BEFORE the dedup/parking decisions — exactly
    // as if a standalone COMMIT had arrived just ahead of this SUBMIT.
    // The separate record matters because a parked submit is unlogged:
    // the commit's state change (an L prune other clients' replies will
    // observe) must still land in the WAL in processing order, or replay
    // would diverge from the live run.
    if (piggyback.has_value() && piggyback->version.n() == core_.n() &&
        !ustor::version_leq(piggyback->version,
                            core_.sver(static_cast<ClientId>(from)).version)) {
      const Bytes commit_bytes = ustor::encode(*piggyback);
      wire::Writer cw;
      cw.put_u32(static_cast<std::uint32_t>(from));
      cw.put_raw(BytesView(commit_bytes));
      if (!log_.append(cw.buffer())) return;
      core_.process_commit(static_cast<ClientId>(from), *piggyback);
      release_parked();
    }

    if (t <= core_.mem(static_cast<ClientId>(from)).t) {
      ++duplicate_replies_;
      const Bytes& cached = last_reply_[static_cast<std::size_t>(from) - 1];
      if (!cached.empty()) net_.send(self_, from, Bytes(cached));
      return;
    }

    // D10 reorder tolerance: this SUBMIT overtook the client's previous
    // COMMIT (L still lists an op of the client, so processing now would
    // be a false self-concurrency). Park it — unlogged — until that
    // COMMIT lands or the client's retransmission (COMMIT before SUBMIT)
    // drains the slot; release_parked() appends the WAL record at
    // dispatch time, keeping replay order equal to processing order.
    if (core_.client_in_L(static_cast<ClientId>(from))) {
      parked_[static_cast<std::size_t>(from) - 1] = Bytes(msg.begin(), msg.end());
      ++parked_submits_;
      return;
    }
  }

  // Write-ahead: the record is durable before the state changes or any
  // reply leaves. A crash after the append and before the reply costs the
  // client a retransmission-free... nothing: channels are reliable only
  // while the server is up; the op simply never completes, which the
  // model permits for a crashed server. What recovery must preserve is
  // exactly the processed prefix — and it does.
  wire::Writer w;
  w.put_u32(static_cast<std::uint32_t>(from));
  w.put_raw(msg);
  if (!log_.append(w.buffer())) return;  // disk failure: refuse to proceed
  apply(from, msg, /*live=*/true);
  if (*type == ustor::MsgType::kCommit) release_parked();
  maybe_snapshot();
}

void PersistentServer::release_parked() {
  // A COMMIT's L prune can clear other clients' entries too: scan all
  // slots. Releasing a SUBMIT never prunes L, so one pass settles.
  for (ClientId i = 1; i <= core_.n(); ++i) {
    Bytes& slot = parked_[static_cast<std::size_t>(i - 1)];
    if (slot.empty() || core_.client_in_L(i)) continue;
    const Bytes msg = std::move(slot);
    slot.clear();
    wire::Writer w;
    w.put_u32(static_cast<std::uint32_t>(i));
    w.put_raw(msg);
    if (!log_.append(w.buffer())) return;
    apply(static_cast<NodeId>(i), msg, /*live=*/true);
  }
}

void PersistentServer::apply(NodeId from, BytesView msg, bool live) {
  const auto type = ustor::peek_type(msg);
  if (!type.has_value() || !core_.is_client(from)) return;
  // Encode even during replay: the cache must hold the ORIGINAL reply
  // bytes so a post-restart duplicate gets the answer the pre-crash run
  // computed — byte for byte, or the client's echo filter (D10) would
  // take it for fresh evidence.
  const auto reply_with = [&](Bytes encoded) {
    if (live) net_.send(self_, from, Bytes(encoded));
    last_reply_[static_cast<std::size_t>(from) - 1] = std::move(encoded);
  };
  switch (*type) {
    case ustor::MsgType::kSubmit: {
      const auto m = ustor::decode_submit(msg);
      if (!m.has_value() || m->inv.client != from || !core_.is_client(m->inv.target)) return;
      // Piggybacked COMMIT: idempotent under the monotone gate (the live
      // path already applied it from its own WAL record).
      if (m->commit.has_value()) {
        core_.process_commit(static_cast<ClientId>(from), *m->commit);
      }
      reply_with(ustor::encode(core_.process_submit(*m)));
      break;
    }
    case ustor::MsgType::kSubmitDelta: {
      // The WAL stores the delta as received. Replay runs it through the
      // same core path in the same order, so recovery rebuilds the state,
      // the delta history and the reply bytes the live run had.
      const auto dm = ustor::decode_submit_delta_view(msg);
      if (!dm.has_value() || dm->inv.client != from) return;
      if (dm->has_commit) {
        core_.process_commit(
            static_cast<ClientId>(from),
            ustor::CommitMessage{dm->commit_version,
                                 Bytes(dm->commit_sig.begin(), dm->commit_sig.end()),
                                 Bytes(dm->proof_sig.begin(), dm->proof_sig.end())});
      }
      auto encoded = core_.answer_submit_delta(*dm, nullptr);
      if (encoded.has_value()) reply_with(std::move(*encoded));
      break;
    }
    case ustor::MsgType::kCommit: {
      const auto m = ustor::decode_commit(msg);
      if (!m.has_value()) return;
      core_.process_commit(static_cast<ClientId>(from), *m);
      break;
    }
    default:
      break;
  }
}

}  // namespace faust::storage
