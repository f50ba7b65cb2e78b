#include "ustor/server.h"

#include <span>
#include <type_traits>

#include "common/check.h"
#include "crypto/chunked_hasher.h"

namespace faust::ustor {
namespace {

/// `part` as a SharedBytes: a slice pinning `buffer` when the message came
/// in on the zero-copy path, an owned copy otherwise.
SharedBytes share(const std::shared_ptr<const Bytes>& buffer, BytesView part) {
  return buffer ? SharedBytes::slice(buffer, part) : SharedBytes::copy_of(part);
}

}  // namespace

ServerCore::ServerCore(int n)
    : n_(n),
      MEM_(static_cast<std::size_t>(n)),
      SVER_(static_cast<std::size_t>(n), SignedVersion{Version(n), {}}),
      L_(std::make_shared<std::vector<InvocationTuple>>()),
      P_(std::make_shared<std::vector<Bytes>>(static_cast<std::size_t>(n))) {
  FAUST_CHECK(n >= 1);
}

ServerCore::ServerCore(const ServerCore& other)
    : n_(other.n_),
      MEM_(other.MEM_),
      c_(other.c_),
      SVER_(other.SVER_),
      L_(std::make_shared<std::vector<InvocationTuple>>(*other.L_)),
      P_(std::make_shared<std::vector<Bytes>>(*other.P_)),
      schedule_(other.schedule_),
      gen_(other.gen_),
      cow_clones_(other.cow_clones_) {}

std::vector<InvocationTuple>& ServerCore::mutable_L() {
  if (L_.use_count() > 1) {
    L_ = std::make_shared<std::vector<InvocationTuple>>(*L_);
    ++cow_clones_;
  }
  ++gen_;
  return *L_;
}

std::vector<Bytes>& ServerCore::mutable_P() {
  if (P_.use_count() > 1) {
    P_ = std::make_shared<std::vector<Bytes>>(*P_);
    ++cow_clones_;
  }
  ++gen_;
  return *P_;
}

ReplySnapshot ServerCore::submit_impl(Timestamp t, InvocationTuple inv, SharedValue value,
                                      SharedBytes data_sig) {
  const ClientId i = inv.client;
  FAUST_CHECK(i >= 1 && i <= n_);
  const ClientId j = inv.target;
  FAUST_CHECK(j >= 1 && j <= n_);

  ReplySnapshot reply;
  if (inv.oc == OpCode::kRead) {
    // Lines 108–111: a read refreshes the reader's timestamp and DATA
    // signature but keeps its stored value.
    MemEntry& me = mem(i);
    me.t = t;
    me.data_sig = std::move(data_sig);
    ReadPayloadShared rp;
    rp.writer = sver(j);
    rp.tj = mem(j).t;
    rp.value = mem(j).value;  // refcount bump, not a value copy
    rp.data_sig = mem(j).data_sig;
    reply.read = std::move(rp);
  } else {
    // Line 113. A full write discards the delta bookkeeping: the new
    // MemEntry starts with no known digest and an empty history.
    MemEntry fresh;
    fresh.t = t;
    fresh.value = std::move(value);
    fresh.data_sig = std::move(data_sig);
    mem(i) = std::move(fresh);
  }
  reply.c = c_;
  reply.last = sver(c_);
  // Line 116: the reply excludes the submitting operation itself — the
  // snapshot covers only the current l_count entries, so the push below
  // appends past every live snapshot's prefix and needs no clone. L and P
  // are shared untouched: a submit deep-copies nothing.
  reply.L = L_;
  reply.l_count = L_->size();
  reply.P = P_;
  reply.generation = gen_;

  schedule_.push_back(ScheduledOp{i, inv.oc, j, t});
  L_->push_back(std::move(inv));
  ++gen_;
  return reply;
}

ReplySnapshot ServerCore::process_submit(const SubmitMessage& m) {
  return submit_impl(m.t, m.inv, to_shared(m.value), SharedBytes::copy_of(m.data_sig));
}

ReplySnapshot ServerCore::process_submit(const SubmitMessageView& m,
                                         const std::shared_ptr<const Bytes>& buffer) {
  SharedValue value;
  if (m.value.has_value()) value = share(buffer, *m.value);
  return submit_impl(m.t, to_owned(m.inv), std::move(value), share(buffer, m.data_sig));
}

bool ServerCore::ensure_digest(ClientId i) {
  MemEntry& me = mem(i);
  if (!me.value.has_value()) return false;
  if (!me.digest_known) {
    me.digest = crypto::ChunkedHasher::digest(me.value->view());
    me.digest_known = true;
  }
  return true;
}

std::optional<ReplySnapshot> ServerCore::process_submit_delta(
    const SubmitDeltaMessageView& m, const std::shared_ptr<const Bytes>& buffer) {
  const ClientId i = m.inv.client;
  if (!is_client(i)) return std::nullopt;
  if (m.inv.oc != OpCode::kWrite || m.inv.target != i) return std::nullopt;
  MemEntry& me = mem(i);
  if (!me.value.has_value()) return std::nullopt;  // no base to splice against
  auto applied =
      apply_delta(me.value->view(), std::span<const SpliceView>(m.splices), m.new_size);
  if (!applied.has_value()) return std::nullopt;

  // Chain bookkeeping (DeltaHistory::append) against the root of the value
  // we actually hold. The server never verifies new_root — it cannot
  // (untrusted); verifiers check it against the DATA signature and their
  // own rehash.
  ensure_digest(i);
  DeltaHistory history = std::move(me.history);
  history.append(me.digest, DeltaRecord::copy_of(m.base_digest, m.new_root, m.new_size,
                                                 std::span<const SpliceView>(m.splices)));

  ReplySnapshot reply = submit_impl(m.t, to_owned(m.inv), SharedBytes::owned(std::move(*applied)),
                                    share(buffer, m.data_sig));
  // submit_impl replaced mem(i) with a bare entry; restore the delta state.
  MemEntry& fresh = mem(i);
  fresh.digest_known = true;
  fresh.digest = m.new_root;
  fresh.history = std::move(history);
  return reply;
}

std::optional<ServerCore::Answer> ServerCore::answer_submit_delta(
    const SubmitDeltaMessageView& m, const std::shared_ptr<const Bytes>& buffer) {
  if (m.inv.oc == OpCode::kWrite) {
    auto reply = process_submit_delta(m, buffer);
    if (!reply.has_value()) return std::nullopt;
    return Answer{std::move(*reply)};
  }
  // Advertised-base read: run the ordinary read, then plan the shrink of
  // its reply to an "unchanged" token or a splice run.
  const ClientId j = m.inv.target;
  if (!is_client(m.inv.client) || !is_client(j)) return std::nullopt;
  Answer a{submit_impl(m.t, to_owned(m.inv), std::nullopt, share(buffer, m.data_sig))};
  a.advertised = true;
  a.plan.base_digest = m.base_digest;
  if (ensure_digest(j)) {  // a register still ⊥ is answered in full
    const MemEntry& me = mem(j);
    a.serving = me.history.plan(me.digest, me.value->view().size(), m.base_digest, &a.plan);
  }
  return a;
}

Bytes ServerCore::Answer::encode() const {
  if (advertised && serving != ReadServing::kFull) return encode_reply_delta(reply, plan);
  return ustor::encode(reply);  // D6 fallback: full value
}

void ServerCore::restore(std::vector<MemEntry> mem, ClientId c,
                         std::vector<SignedVersion> sver,
                         std::vector<InvocationTuple> concurrent, std::vector<Bytes> proofs,
                         std::vector<ScheduledOp> schedule) {
  FAUST_CHECK(static_cast<int>(mem.size()) == n_);
  FAUST_CHECK(c >= 1 && c <= n_);
  FAUST_CHECK(static_cast<int>(sver.size()) == n_);
  FAUST_CHECK(static_cast<int>(proofs.size()) == n_);
  MEM_ = std::move(mem);
  c_ = c;
  SVER_ = std::move(sver);
  L_ = std::make_shared<std::vector<InvocationTuple>>(std::move(concurrent));
  P_ = std::make_shared<std::vector<Bytes>>(std::move(proofs));
  schedule_ = std::move(schedule);
  ++gen_;
}

void ServerCore::process_commit(ClientId i, const CommitMessage& m) {
  if (!is_client(i) || m.version.n() != n_) return;
  const Version& vc = sver(c_).version;

  // Line 119: "V_i > V^c" on the timestamp vectors — pointwise >= and not
  // equal. Committed versions of a correct execution are totally ordered
  // by the schedule, so this promotes exactly the schedule-latest commit.
  bool geq = true;
  bool strict = false;
  for (int k = 1; geq && k <= n_; ++k) {
    if (m.version.v(k) < vc.v(k)) geq = false;
    if (m.version.v(k) > vc.v(k)) strict = true;
  }
  if (geq && strict) {
    c_ = i;  // line 120
    // Line 121: drop this client's last tuple and everything before it.
    const std::vector<InvocationTuple>& L = *L_;
    for (std::size_t q = L.size(); q > 0; --q) {
      if (L[q - 1].client == i) {
        std::vector<InvocationTuple>& lm = mutable_L();
        lm.erase(lm.begin(), lm.begin() + static_cast<std::ptrdiff_t>(q));
        break;
      }
    }
  }
  // D10 reorder tolerance: chaos can deliver a client's COMMITs out of
  // order (or re-deliver an old one after a resubmit). Folding an older
  // commit over a newer one would REGRESS SVER[i]/P[i], and honest
  // readers would then fail line 52 (writer-timestamp) or line 41 (proof
  // signature) — false fail_i for a pure timing fault. One client's
  // committed versions are totally ordered, so the ≼ gate keeps exactly
  // the newest; equal versions (duplicates) rewrite idempotently.
  if (version_leq(sver(i).version, m.version)) {
    sver(i) = SignedVersion{m.version, m.commit_sig};  // line 122
    mutable_P()[static_cast<std::size_t>(i - 1)] = m.proof_sig;  // line 123
  }
}

bool ServerCore::client_in_L(ClientId i) const {
  for (const InvocationTuple& e : *L_) {
    if (e.client == i) return true;
  }
  return false;
}

Server::Server(int n, net::Transport& net, NodeId self) : Server(n, net, self, Unattached{}) {
  attach();
}

Server::Server(int n, net::Transport& net, NodeId self, Unattached)
    : core_(n),
      net_(net),
      self_(self),
      last_reply_(static_cast<std::size_t>(n)),
      parked_(static_cast<std::size_t>(n)) {}

Server::~Server() { net_.detach(self_); }

void Server::on_message(NodeId from, BytesView msg) {
  // No shared buffer to retain: fall back to copying the value into MEM.
  process(from, msg, nullptr);
}

void Server::on_shared_message(NodeId from, const std::shared_ptr<const Bytes>& msg) {
  process(from, BytesView(*msg), msg);
}

void Server::replay(NodeId from, BytesView msg) {
  live_ = false;
  process(from, msg, nullptr);
  live_ = true;
}

void Server::process(NodeId from, BytesView bytes, const std::shared_ptr<const Bytes>& buffer) {
  // Range check first: ids index MEM/SVER/P, transports pass through the
  // sender id a peer claims, and a journaled message from outside 1..n
  // would abort every later recovery.
  const auto type = peek_type(bytes);
  if (!type.has_value() || !core_.is_client(from) || drops(*type)) return;
  const ClientId i = static_cast<ClientId>(from);
  switch (*type) {
    case MsgType::kCommit: {
      const auto m = decode_commit(bytes);
      if (!m.has_value() || !journaled(from, bytes)) return;
      core_of(i).process_commit(i, *m);
      release_parked();
      break;
    }
    case MsgType::kSubmit: {
      const auto m = decode_submit_view(bytes);
      if (!m.has_value() || !submit(i, *m, bytes, buffer)) return;
      break;
    }
    case MsgType::kSubmitDelta: {
      const auto m = decode_submit_delta_view(bytes);
      if (!m.has_value() || !submit(i, *m, bytes, buffer)) return;
      break;
    }
    default:
      return;  // clients are correct; ignore noise
  }
  if (live_) checkpoint();
}

template <class View>
bool Server::submit(ClientId i, const View& m, BytesView bytes,
                    const std::shared_ptr<const Bytes>& buffer) {
  if (m.inv.client != i || !core_.is_client(m.inv.target)) return false;
  ServerCore& core = core_of(i);

  // The D10 piggybacked COMMIT logically precedes the submit. Applied
  // BEFORE the dedup and parking checks, it can prune L (draining this
  // client's parking slot, so the submit dispatches instead of waiting in
  // the slot) and it advances SVER[i] even when the submit turns out to be
  // a duplicate — the Algorithm 1 line-52 invariant the piggyback exists
  // to uphold. Only one that advances SVER[i] changes state, and it is
  // journaled as its own record: the submit may park unjournaled, and the
  // commit's L prune must still reach the log in processing order.
  if (m.has_commit && !drops(MsgType::kCommit) && m.commit_version.n() == core.n() &&
      !version_leq(m.commit_version, core.sver(i).version)) {
    const CommitMessage commit{m.commit_version, Bytes(m.commit_sig.begin(), m.commit_sig.end()),
                               Bytes(m.proof_sig.begin(), m.proof_sig.end())};
    if (!journaled(i, encode(commit))) return false;
    core.process_commit(i, commit);
    release_parked();
  }

  // D10 exactly-once: t <= MEM[i].t marks a duplicated/retransmitted
  // SUBMIT for an op this server already processed. Reprocessing would
  // append a second L entry → false kSelfConcurrent at the (correct)
  // client, so the cached original reply is resent instead.
  if (m.t <= core.mem(i).t) {
    ++duplicate_replies_;
    const Bytes& cached = last_reply_[static_cast<std::size_t>(i - 1)];
    if (live_ && !cached.empty()) net_.send(self_, i, Bytes(cached));
    return false;
  }

  // D10 reorder tolerance: this SUBMIT overtook the client's previous
  // COMMIT (L still lists an op of the client); processing it now would
  // put the client's OWN op into its concurrency set. Park it, unjournaled,
  // until that COMMIT lands — or, if the COMMIT was lost, until the
  // client's retransmission (COMMIT before SUBMIT) drains the slot.
  if (!drops(MsgType::kCommit) && core.client_in_L(i)) {
    Parked p;
    p.buffer = buffer;
    if (!buffer) p.raw.assign(bytes.begin(), bytes.end());
    parked_[static_cast<std::size_t>(i - 1)] = std::move(p);
    ++parked_submits_;
    return false;
  }
  return dispatch(i, m, bytes, buffer);
}

template <class View>
bool Server::dispatch(ClientId i, const View& m, BytesView bytes,
                      const std::shared_ptr<const Bytes>& buffer) {
  // Write-ahead: journaled before the state changes or any reply leaves.
  if (!journaled(i, bytes)) return false;
  ServerCore& core = core_of(i);
  std::optional<ServerCore::Answer> answer;
  if constexpr (std::is_same_v<View, SubmitDeltaMessageView>) {
    // A baseless/out-of-bounds delta is dropped: correct clients never
    // send one, and a Byzantine client only hurts itself.
    answer = core.answer_submit_delta(m, buffer);
  } else {
    answer = ServerCore::Answer{core.process_submit(m, buffer)};
  }
  if (!answer.has_value()) return true;
  std::optional<Bytes> out = reply(core, *answer);
  if (!out.has_value()) return true;
  Bytes& cached = last_reply_[static_cast<std::size_t>(i - 1)];
  cached = std::move(*out);
  if (live_) net_.send(self_, i, Bytes(cached));
  return true;
}

void Server::release_parked() {
  for (ClientId i = 1; i <= core_.n(); ++i) {
    auto& slot = parked_[static_cast<std::size_t>(i - 1)];
    if (!slot.has_value() || core_of(i).client_in_L(i)) continue;
    const Parked p = std::move(*slot);
    slot.reset();
    const BytesView bytes = p.buffer ? BytesView(*p.buffer) : BytesView(p.raw);
    if (peek_type(bytes) == MsgType::kSubmitDelta) {
      if (const auto m = decode_submit_delta_view(bytes)) dispatch(i, *m, bytes, p.buffer);
    } else if (const auto m = decode_submit_view(bytes)) {
      dispatch(i, *m, bytes, p.buffer);
    }
  }
}

}  // namespace faust::ustor
