// USTOR server — Algorithm 2 of the paper.
//
// The protocol state and the SUBMIT/COMMIT handlers live in `ServerCore`,
// a plain struct with no I/O. `Server` is the one message path every
// server class runs: it decodes client messages, applies the D10 front
// end (range checks, piggybacked COMMIT, duplicate suppression, parking)
// and answers through a core. Durability (storage::PersistentServer) and
// misbehaviour (the Byzantine servers in src/adversary) are protected
// hooks on it, not loops of their own. The core also keeps a schedule
// log — the sequence in which SUBMITs were processed — which *is* the
// linearization order when the server is correct, and which
// tests/checkers consume as the oracle.
//
// Replies are copy-on-write snapshots (ReplySnapshot): process_submit no
// longer deep-copies L and P into every reply; it hands out shared
// references and clones only if it must mutate state while a snapshot is
// still alive (see PERF.md).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "net/transport.h"
#include "ustor/delta_history.h"
#include "ustor/messages.h"
#include "ustor/types.h"

namespace faust::ustor {

/// One scheduled operation, as logged by the server (test oracle).
struct ScheduledOp {
  ClientId client = 0;
  OpCode oc = OpCode::kRead;
  ClientId target = 0;
  Timestamp t = 0;

  bool operator==(const ScheduledOp&) const = default;
};

/// Protocol state + handlers of Algorithm 2, free of any transport.
class ServerCore {
 public:
  explicit ServerCore(int n);

  /// Deep copy: a forked core (src/adversary "same server, lying") gets
  /// its own L/P vectors — the two worlds must diverge independently.
  /// Snapshots already handed out keep aliasing the original's state.
  ServerCore(const ServerCore& other);
  ServerCore(ServerCore&&) = default;
  ServerCore& operator=(const ServerCore&) = delete;

  /// Lines 107–116: updates MEM, builds the REPLY, appends to L.  The
  /// returned snapshot shares L and P with the server state (no deep
  /// copy); it remains valid and immutable across later submits/commits.
  /// The caller encodes it directly, or materialize()s a mutable copy.
  ReplySnapshot process_submit(const SubmitMessage& m);

  /// Zero-copy variant (the server's hot path): `m` views into `buffer`,
  /// and MEM retains the value and DATA signature as shared slices of it
  /// — a submitted register value is never copied out of the delivered
  /// message (PERF.md "O(change) operations"). A null `buffer` copies
  /// them instead. Behaviour and reply bytes are identical to the owned
  /// overload.
  ReplySnapshot process_submit(const SubmitMessageView& m,
                               const std::shared_ptr<const Bytes>& buffer);

  /// SUBMIT_DELTA write form (D6): applies the splices to the retained
  /// value, records the delta for later advertised-base reads, then runs
  /// the ordinary submit. nullopt if there is no base value or the splice
  /// list is out of bounds — a correct client never sends either, so the
  /// server silently drops (the client's resend/fallback machinery owns
  /// recovery). `buffer` may be null (owned-copy path).
  std::optional<ReplySnapshot> process_submit_delta(const SubmitDeltaMessageView& m,
                                                    const std::shared_ptr<const Bytes>& buffer);

  /// A processed SUBMIT or SUBMIT_DELTA before it leaves as bytes: the
  /// full reply plus, for an advertised-base read, how far the reader's
  /// base lets the D6 wire shrink it. Server's reply hook sees this.
  struct Answer {
    explicit Answer(ReplySnapshot r) : reply(std::move(r)) {}

    ReplySnapshot reply;
    bool advertised = false;  // SUBMIT_DELTA read form; plan.base_digest is its base
    ReadServing serving = ReadServing::kFull;
    ReadDeltaPlan plan;  // borrows mem(target).history until its next mutation

    /// The submitted operation: the L entry appended right after the
    /// reply's prefix.
    const InvocationTuple& op() const { return (*reply.L)[reply.l_count]; }

    /// The honest bytes: REPLY_DELTA when the plan serves the read,
    /// otherwise the full REPLY (always acceptable under D6). A
    /// deterministic function of the state and the message, so a replayed
    /// message re-encodes the live run's bytes.
    Bytes encode() const;
  };

  /// SUBMIT_DELTA, both forms (D6). The write form runs
  /// process_submit_delta; an advertised-base read runs the ordinary read
  /// and plans the shrink of its reply to an "unchanged" token or splice
  /// runs. nullopt drops the message: a baseless or out-of-bounds delta,
  /// or a client/target outside 1..n. `buffer` may be null (owned-copy
  /// path).
  std::optional<Answer> answer_submit_delta(const SubmitDeltaMessageView& m,
                                            const std::shared_ptr<const Bytes>& buffer);

  /// Lazily computes mem(i).digest (chunk-tree root of the stored value);
  /// false iff the register is still ⊥.
  bool ensure_digest(ClientId i);

  /// Lines 117–123: stores the version/signatures, advances the last
  /// committed pointer `c`, prunes L. A COMMIT from outside 1..n or over
  /// a version of another size is ignored: no correct client sends one.
  void process_commit(ClientId i, const CommitMessage& m);

  /// True iff L currently lists an operation of client `i` — its COMMIT
  /// for that operation has not been processed yet. Transports that can
  /// reorder or drop (D10 chaos) use this to park a SUBMIT that overtook
  /// its predecessor's COMMIT instead of processing it into a false
  /// self-concurrency.
  bool client_in_L(ClientId i) const;

  int n() const { return n_; }

  /// True iff `id` names one of the n clients. Servers drop a message
  /// from any other sender before logging or processing it: transports
  /// pass through the sender id a peer claims, and ids index MEM/SVER/P.
  bool is_client(NodeId id) const { return id >= 1 && id <= n_; }

  /// The schedule so far (order of SUBMIT processing).
  const std::vector<ScheduledOp>& schedule() const { return schedule_; }

  /// Current length of the concurrent-operations list L (bench C6 tracks
  /// its growth when COMMITs are withheld).
  std::size_t pending_list_size() const { return L_->size(); }

  /// Bumped on every mutation of the reply-visible state (L, P); each
  /// ReplySnapshot records the generation it was taken at.
  std::uint64_t generation() const { return gen_; }

  /// Number of times a COW clone was forced by a still-alive snapshot.
  /// Submits never clone (they append past every snapshot's l_count
  /// prefix); only a COMMIT that prunes L or updates P while a snapshot
  /// is still held clones — near zero in steady state, where replies are
  /// encoded and dropped before the COMMIT arrives.
  std::uint64_t cow_clones() const { return cow_clones_; }

  // State is intentionally inspectable/mutable: the adversary variants
  // (src/adversary) are "the same server, lying", and tests peek at it.
  // The value/signature are shared slices of the writer's retained SUBMIT
  // message (or owned buffers on the legacy ingest path) — consumers that
  // mutate take to_owned()/to_bytes() copies.
  struct MemEntry {
    Timestamp t = 0;
    SharedValue value;     // last written value (⊥ before the first write)
    SharedBytes data_sig;  // last DATA-signature
    // Delta bookkeeping (D6). `digest` is the chunk-tree root of `value`,
    // computed lazily on the first delta-path touch; a full write resets
    // all three (the whole MemEntry is replaced). `history` holds the
    // accepted SUBMIT_DELTAs that advertised-base reads are served from.
    bool digest_known = false;
    crypto::Hash digest{};
    DeltaHistory history;
  };

  MemEntry& mem(ClientId i) { return MEM_[static_cast<std::size_t>(i - 1)]; }
  const MemEntry& mem(ClientId i) const { return MEM_[static_cast<std::size_t>(i - 1)]; }
  SignedVersion& sver(ClientId i) { return SVER_[static_cast<std::size_t>(i - 1)]; }
  const SignedVersion& sver(ClientId i) const { return SVER_[static_cast<std::size_t>(i - 1)]; }
  ClientId last_committer() const { return c_; }
  const std::vector<InvocationTuple>& L() const { return *L_; }
  const std::vector<Bytes>& P() const { return *P_; }

  /// Durability import hook (ustor/state_codec.h): replaces the entire
  /// protocol state with a previously exported image, delta bookkeeping
  /// (digest and history of each MemEntry) included — a restored core
  /// answers every later advertised-base read with the bytes the
  /// original core would have sent. Vector sizes must match n
  /// (FAUST_CHECKed).
  void restore(std::vector<MemEntry> mem, ClientId c, std::vector<SignedVersion> sver,
               std::vector<InvocationTuple> concurrent, std::vector<Bytes> proofs,
               std::vector<ScheduledOp> schedule);

 private:
  /// Copy-on-write accessors: clone the shared vector iff a snapshot
  /// still references it, then bump the state generation.
  std::vector<InvocationTuple>& mutable_L();
  std::vector<Bytes>& mutable_P();

  /// Lines 107–116 over ownership-agnostic inputs (both overloads above
  /// funnel here).
  ReplySnapshot submit_impl(Timestamp t, InvocationTuple inv, SharedValue value,
                            SharedBytes data_sig);

  const int n_;
  std::vector<MemEntry> MEM_;        // line 102
  ClientId c_ = 1;                   // line 103
  std::vector<SignedVersion> SVER_;  // line 104
  std::shared_ptr<std::vector<InvocationTuple>> L_;  // line 105 (COW-shared)
  std::shared_ptr<std::vector<Bytes>> P_;            // line 106 (COW-shared)
  std::vector<ScheduledOp> schedule_;
  std::uint64_t gen_ = 0;
  std::uint64_t cow_clones_ = 0;
};

/// The server: decodes client messages, runs the D10 front end, answers
/// through a core. Every server class is this one message path; the
/// variations hang off the protected hooks below.
///
/// D10 chaos tolerance. The paper's channels are reliable FIFO; under a
/// FaultPlan they are not, and three purely-timing anomalies would
/// otherwise masquerade as server misbehavior at a correct client:
///   - a DUPLICATED (or retransmitted) SUBMIT reprocessed as a new op
///     appends a second L entry for the client → false kSelfConcurrent.
///     The submit timestamp doubles as a per-client sequence number
///     (reads and writes both advance MEM[i].t), so t <= MEM[i].t marks
///     an already-processed op and the cached original reply is resent.
///   - a SUBMIT that OVERTOOK its predecessor's COMMIT (L still lists an
///     op of the client) is parked — one slot per client suffices, a
///     client runs one op at a time — and dispatched once that COMMIT
///     lands. A lost COMMIT drains the slot too: the client's
///     retransmission resends COMMIT before SUBMIT, and a piggybacked
///     COMMIT is applied before the SUBMIT that carries it.
///   - stale/duplicated COMMITs are handled inside ServerCore (monotone
///     SVER/P fold).
/// None of this changes behaviour on a clean FIFO transport.
class Server : public net::Node {
 public:
  Server(int n, net::Transport& net, NodeId self = kServerNode);
  ~Server() override;

  void on_message(NodeId from, BytesView msg) override;

  /// Shared delivery (net::Network, sock::SocketTransport): SUBMITs take
  /// the zero-copy path, retaining the value as a slice of `msg`.
  void on_shared_message(NodeId from, const std::shared_ptr<const Bytes>& msg) override;

  ServerCore& core() { return core_; }
  const ServerCore& core() const { return core_; }

  /// Duplicate SUBMITs answered from the reply cache (D10 exactly-once).
  std::uint64_t duplicate_replies() const { return duplicate_replies_; }
  /// SUBMITs parked behind a not-yet-processed predecessor COMMIT.
  std::uint64_t parked_submits() const { return parked_submits_; }
  /// The reply cache: per client, the bytes of its latest reply.
  const std::vector<Bytes>& cached_replies() const { return last_reply_; }

 protected:
  /// Constructs without attaching to the transport: a derived class
  /// attach()es once it is fully built (a durable server recovers first).
  struct Unattached {};
  Server(int n, net::Transport& net, NodeId self, Unattached);
  void attach() { net_.attach(self_, *this); }

  /// Runs a message through the same path with the journal, checkpoints
  /// and sending off (WAL recovery). The reply cache still fills, so a
  /// duplicate after a restart gets the live run's original bytes.
  void replay(NodeId from, BytesView msg);

  std::vector<Bytes>& reply_cache() { return last_reply_; }

  // --- Hooks ------------------------------------------------------------

  /// Write-ahead journal: called with each message that is about to
  /// change state — a COMMIT, a piggybacked COMMIT that advances SVER[i]
  /// (re-encoded on its own), a SUBMIT when it is dispatched (parked ones
  /// at release) — before the change and before any reply leaves. False
  /// refuses the message. Duplicates and parked SUBMITs are not journaled.
  virtual bool journal(NodeId /*from*/, BytesView /*msg*/) { return true; }

  /// Called after each live message that changed state (snapshot cadence).
  virtual void checkpoint() {}

  /// The core that serves client `c` (a forking server keeps several).
  virtual ServerCore& core_of(ClientId /*c*/) { return core_; }

  /// True drops every message of `type` before it is processed; a
  /// piggybacked COMMIT counts as kCommit. A server that drops COMMITs
  /// never parks a SUBMIT: the COMMIT it would wait for never lands.
  virtual bool drops(MsgType /*type*/) const { return false; }

  /// The bytes that answer a processed SUBMIT; nullopt sends nothing.
  /// They are cached for duplicates of that SUBMIT.
  virtual std::optional<Bytes> reply(ServerCore& /*core*/, const ServerCore::Answer& a) {
    return a.encode();
  }

 private:
  /// A SUBMIT held back until the client's previous COMMIT arrives. The
  /// shared buffer is retained when the message came in on the zero-copy
  /// path; otherwise `raw` owns a copy.
  struct Parked {
    Bytes raw;
    std::shared_ptr<const Bytes> buffer;
  };

  /// Both delivery paths and replay funnel here; `buffer` is null on the
  /// owned path.
  void process(NodeId from, BytesView bytes, const std::shared_ptr<const Bytes>& buffer);

  /// The D10 front end of one SUBMIT or SUBMIT_DELTA; true iff it was
  /// dispatched (not dropped, answered from the cache or parked).
  template <class View>
  bool submit(ClientId i, const View& m, BytesView bytes,
              const std::shared_ptr<const Bytes>& buffer);

  /// Journals, runs the core, replies and caches. False iff the journal
  /// refused the message.
  template <class View>
  bool dispatch(ClientId i, const View& m, BytesView bytes,
                const std::shared_ptr<const Bytes>& buffer);

  /// Dispatches every parked SUBMIT whose blocking L entry is gone (a
  /// COMMIT's prune can clear OTHER clients' entries too, so all slots
  /// are scanned after every COMMIT).
  void release_parked();

  /// The journal hook, skipped during replay.
  bool journaled(NodeId from, BytesView msg) { return !live_ || journal(from, msg); }

  ServerCore core_;
  net::Transport& net_;
  const NodeId self_;
  bool live_ = true;  // false while replay() runs
  std::vector<Bytes> last_reply_;              // per client, most recent reply bytes
  std::vector<std::optional<Parked>> parked_;  // one slot per client
  std::uint64_t duplicate_replies_ = 0;
  std::uint64_t parked_submits_ = 0;
};

}  // namespace faust::ustor
