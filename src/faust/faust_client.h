// FAUST — the fail-aware untrusted storage service of §6 (Figure 4).
//
// FaustClient wraps the USTOR engine's extended operations and adds:
//   * timestamps in user responses (Def. 5, Integrity),
//   * the stable_i(W) output action — the stability cut of Figure 2,
//   * the fail_i output action with accurate failure detection,
//   * periodic dummy reads (stability propagation through the server),
//   * the offline PROBE / VERSION / FAILURE protocol between clients,
//     which keeps detection complete even when the server crashes or
//     partitions clients (Def. 5, Detection completeness).
//
// As an extension beyond the paper, FAILURE messages carry transferable
// evidence when available (two signed, mutually incomparable versions);
// receivers verify the evidence before alarming, so a buggy peer cannot
// spuriously take the service down (see DESIGN.md).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "crypto/signature.h"
#include "exec/executor.h"
#include "net/mailbox.h"
#include "net/network.h"  // Mailbox users still need the sim network
#include "sim/scheduler.h"
#include "ustor/client.h"

namespace faust {

/// Why fail_i fired (the paper has a single fail event; the reason is
/// diagnostic and feeds the attack-campaign bench).
enum class FailureReason {
  kUstorDetected,         // USTOR check failed (lines 35–52)
  kIncomparableVersions,  // two known versions violate ≼-comparability
  kPeerReport,            // a FAILURE message (verified if evidence-bearing)
};

/// Tuning knobs for the background machinery. Times are in sim ticks.
struct FaustConfig {
  /// Cadence of dummy reads issued while idle (0 disables them).
  sim::Time dummy_read_period = 500;
  /// Δ of §6: probe a client whose VER entry is older than this.
  sim::Time probe_interval = 5000;
  /// How often to scan VER for stale entries.
  sim::Time probe_check_period = 1000;
  /// Capacity of the signature-verification caches (the USTOR engine's
  /// and the FAUST layer's own), in verified triples. The default suits a
  /// stand-alone deployment; ShardedCluster sizes it to the per-shard
  /// working set (PERF.md "Per-shard cache sizing").
  std::size_t verify_cache_entries = 4096;
  /// How DATA-signature payload digests are computed. Deployment-wide:
  /// every client must use the same mode (the verifier recomputes the
  /// signer's digest). kChunked makes re-digesting an edited register
  /// value O(change) instead of O(value) on both the signing and the
  /// verifying side (PERF.md "O(change) operations"), and it is the mode
  /// that speaks the D6 delta wire (SUBMIT_DELTA / REPLY_DELTA: bytes per
  /// op track the change set, verified against the chunk trees). kFlat is
  /// the paper-literal H over the full-value wire; the differential
  /// oracles replay one op stream under both.
  ustor::DigestMode data_digest = ustor::DigestMode::kChunked;
  /// D10 chaos tolerance: while an operation is in flight, resend its
  /// COMMIT+SUBMIT (ustor::Client::resubmit — exactly-once via the
  /// server's duplicate detection) after this long, then back off
  /// exponentially with jitter up to retransmit_cap. 0 disables
  /// retransmission — the default, because on a reliable transport it is
  /// dead weight and would perturb pinned message-count baselines. Lossy
  /// deployments (a FaultPlan, a flaky real network) turn it on; without
  /// it a single dropped SUBMIT or REPLY stalls the client forever.
  sim::Time retransmit_base = 0;
  /// Backoff ceiling for retransmission delays (0 = 8 × retransmit_base).
  sim::Time retransmit_cap = 0;

  /// The same config with every period multiplied by `factor`. Real
  /// transports need this (DESIGN.md D9): the defaults above are tuned
  /// for sim ticks where a round trip costs ~10 ticks, but over a real
  /// socket a round trip costs scheduling + syscalls — timers that probe
  /// or re-read at sim cadence would fire long before the wire answers.
  /// Deployment layers scale rather than hardcode so the RELATIVE timer
  /// semantics (probe ≫ check ≫ dummy-read) survive unchanged.
  FaustConfig scaled(std::uint64_t factor) const {
    FaustConfig c = *this;
    c.dummy_read_period *= factor;
    c.probe_interval *= factor;
    c.probe_check_period *= factor;
    c.retransmit_base *= factor;
    c.retransmit_cap *= factor;
    return c;
  }
};

/// Everything a client knew at the moment it declared the server faulty —
/// the input to the "recovery procedure" §3 alludes to, and the audit
/// trail an operator would attach to a complaint against the provider.
struct FailureReport {
  FailureReason reason{};
  /// Transferable proof (two signed, ≼-incomparable versions), when the
  /// detection produced one; independently checkable by any party holding
  /// the clients' verification keys.
  std::optional<ustor::FailureMessage> evidence;
  /// Snapshot of VER at detection time: (committer, signed version) per
  /// slot with anything known.
  std::vector<std::pair<ClientId, ustor::SignedVersion>> known_versions;
};

/// Re-verifies a failure report's evidence: both signatures valid and the
/// versions mutually ≼-incomparable. Anyone with the scheme can run this.
bool verify_failure_evidence(const crypto::SignatureScheme& sigs, int n,
                             const ustor::FailureMessage& evidence);

/// Verified provenance of a read's value, delivered alongside it by
/// read_ex: the writer's timestamp t_j and the value digest x̄_j that the
/// (checked) DATA signature covers. (writer, writer_ts, value_digest) is
/// a sound cache key for anything derived from the bytes — the KV layer
/// keys its decode memos on it.
struct ReadMeta {
  Timestamp writer_ts = 0;
  crypto::Hash value_digest{};
  /// The writer's verified DATA signature over data_payload(writer_ts,
  /// value_digest); empty for a never-written register. Valid only for
  /// the duration of the callback (copy to keep). Together with the value
  /// bytes this is a self-certifying tuple any verifier can re-check —
  /// what the KV layer forwards to the edge cache on a read-through fill
  /// (DESIGN.md D8).
  BytesView data_sig;
};

/// A fail-aware client: the user-facing API of the FAUST service.
class FaustClient {
 public:
  /// W vector handed to stable_i: W[j-1] is the largest timestamp t such
  /// that all own operations with timestamp <= t are stable w.r.t. C_j.
  using StabilityCut = std::vector<Timestamp>;

  using StableHandler = std::function<void(const StabilityCut&)>;
  using FailHandler = std::function<void(FailureReason)>;
  using WriteHandler = std::function<void(Timestamp)>;
  using ReadHandler = std::function<void(const ustor::Value&, Timestamp)>;
  using ReadExHandler = std::function<void(const ustor::Value&, Timestamp, const ReadMeta&)>;

  /// Timers and deferred work go through `exec`; under a
  /// rt::ThreadedRuntime every call into this object must be made from
  /// (or posted onto) that runtime's thread.
  FaustClient(ClientId id, int n, std::shared_ptr<const crypto::SignatureScheme> sigs,
              net::Transport& net, net::Mailbox& mail, exec::Executor& exec,
              FaustConfig config = {});
  ~FaustClient();

  FaustClient(const FaustClient&) = delete;
  FaustClient& operator=(const FaustClient&) = delete;

  /// Writes `value` to own register X_i; `done(t)` delivers the operation
  /// timestamp. Operations queue behind any in-flight (user or dummy) op.
  void write(Bytes value, WriteHandler done = {});

  /// Zero-copy write: the buffer is shared, not copied, and an optional
  /// precomputed digest skips re-hashing it (the KV layer's incremental
  /// encoder maintains both across edits). `digest`, when given, must
  /// equal value_digest(config().data_digest, *value).
  void write_shared(std::shared_ptr<const Bytes> value,
                    const std::optional<crypto::Hash>& digest, WriteHandler done = {});

  /// D6 delta write: publishes only the splices carrying the previous
  /// published value (whose chunk-tree root is `base_digest`) forward to
  /// the new one (root `new_root`, total `new_size` bytes). Requires
  /// kChunked digests; callers fall back to write_shared otherwise.
  void write_delta(const crypto::Hash& base_digest, const crypto::Hash& new_root,
                   std::uint64_t new_size, std::vector<ustor::Splice> splices,
                   WriteHandler done = {});

  /// Reads register X_j; `done(value, t)` as above.
  void read(ClientId j, ReadHandler done = {});

  /// Like read(), additionally delivering the verified (writer_ts,
  /// value_digest) binding of the value (see ReadMeta).
  void read_ex(ClientId j, ReadExHandler done);

  /// The DATA signature δ_i of this client's most recently completed
  /// write — the exact bytes that went over the wire (never a
  /// re-signature, so it is scheme-agnostic and free). Together with the
  /// write's (t, x̄, value) it forms the same self-certifying tuple a
  /// read yields; the KV layer attaches it to writer push fills of the
  /// edge cache (DESIGN.md D8). Empty before the first write completes.
  BytesView last_write_sig() const { return BytesView(last_write_sig_); }

  /// stable_i — fired whenever the stability cut advances.
  StableHandler on_stable;

  /// fail_i — fired at most once; afterwards the client is halted.
  FailHandler on_fail;

  bool failed() const { return failed_; }
  std::optional<FailureReason> failure_reason() const { return failure_reason_; }

  /// Audit record captured at detection; nullopt while healthy.
  const std::optional<FailureReport>& failure_report() const { return failure_report_; }

  /// Current stability cut W (all zeros initially).
  const StabilityCut& stability_cut() const { return W_; }

  /// Largest own timestamp stable w.r.t. *all* clients (min over W); the
  /// prefix of the execution up to it is linearizable (Def. 5 item 6).
  Timestamp fully_stable_timestamp() const;

  /// Scenario scripting: an offline client issues no dummy reads/probes
  /// and receives mailbox messages only after coming back online.
  void go_offline();
  void go_online();
  bool online() const { return online_; }

  /// Reconnect after a server restart: delegates to the engine's
  /// resubmit() so an in-flight operation resumes against the recovered
  /// server (exactly-once via its duplicate detection). Queued user ops
  /// behind the in-flight one drain normally once it completes.
  void reconnect() {
    if (!failed_) ustor_.resubmit();
  }

  ClientId id() const { return id_; }
  int n() const { return n_; }

  /// The configuration this client was built with (the KV layer reads the
  /// digest mode off it).
  const FaustConfig& config() const { return config_; }

  /// The wrapped protocol engine (tests inspect it).
  ustor::Client& engine() { return ustor_; }

  /// Diagnostics: dummy reads issued, probes sent, version msgs received.
  std::uint64_t dummy_reads() const { return dummy_reads_; }
  std::uint64_t probes_sent() const { return probes_sent_; }
  std::uint64_t versions_received() const { return versions_received_; }
  /// Retransmissions fired by the D10 in-flight timer (0 when disabled).
  std::uint64_t retransmits() const { return retransmits_; }

 private:
  /// VER_i[j] of §6: the maximal version known to stem from C_j's
  /// knowledge, with the id of the client that committed it.
  struct KnownVersion {
    ClientId committer = 0;  // 0 = nothing known yet
    ustor::SignedVersion sv;
    sim::Time updated_at = 0;
  };

  struct PendingUserOp {
    bool is_write = false;
    std::shared_ptr<const Bytes> value;   // writes (shared, never copied)
    std::optional<crypto::Hash> digest;   // writes: precomputed x̄, if any
    ClientId target = 0;                  // reads
    WriteHandler write_done;
    ReadExHandler read_done;
    // Delta writes (D6): set when is_delta_write.
    bool is_delta_write = false;
    crypto::Hash base_digest{};
    crypto::Hash new_root{};
    std::uint64_t new_size = 0;
    std::vector<ustor::Splice> splices;
  };

  KnownVersion& ver(ClientId j) { return VER_[static_cast<std::size_t>(j - 1)]; }

  /// Starts the next queued user op if the engine is idle.
  void pump();
  void start_op(PendingUserOp op);

  void arm_dummy_timer();
  void arm_probe_timer();
  void dummy_tick();
  void probe_tick();

  /// D10 retransmission: armed whenever an operation goes in flight,
  /// canceled when it completes; each firing resubmit()s and doubles the
  /// delay (with jitter) up to the cap. No-ops when retransmit_base == 0.
  void start_retransmit();
  void arm_retransmit();
  void retransmit_fire();
  void cancel_retransmit();

  /// Folds a freshly learned version into VER (slot `j`), running the
  /// comparability check. Returns false iff a failure was detected.
  bool ingest(ClientId j, ClientId committer, const ustor::SignedVersion& sv,
              bool already_verified);

  /// Recomputes W from VER and fires on_stable if the cut advanced.
  void recompute_stability();

  void detect_failure(FailureReason reason,
                      std::optional<ustor::FailureMessage> evidence);
  void handle_mail(ClientId from, BytesView msg);
  void handle_version_msg(ClientId from, const ustor::VersionMessage& m);
  void handle_failure_msg(const ustor::FailureMessage& m);

  /// True iff both signed versions verify and are mutually incomparable.
  bool evidence_valid(const ustor::FailureMessage& m) const;

  const ClientId id_;
  const int n_;
  const std::shared_ptr<const crypto::SignatureScheme> sigs_;
  net::Mailbox& mail_;
  exec::Executor& exec_;
  const FaustConfig config_;
  ustor::Client ustor_;

  std::vector<KnownVersion> VER_;
  ClientId max_slot_ = 0;  // max_i of §6; 0 until any version is known
  StabilityCut W_;
  bool stable_dirty_ = false;

  std::deque<PendingUserOp> queue_;
  bool op_in_flight_ = false;
  ClientId next_dummy_target_ = 0;
  Bytes last_write_sig_;  // δ of the latest completed write (see accessor)

  bool online_ = true;
  bool failed_ = false;
  std::optional<FailureReason> failure_reason_;
  std::optional<FailureReport> failure_report_;

  sim::EventId dummy_timer_ = 0;
  sim::EventId probe_timer_ = 0;
  sim::EventId retransmit_timer_ = 0;
  sim::Time retransmit_delay_ = 0;      // current backoff step
  Rng retransmit_rng_;  // jitter stream, seeded per client id (ctor)

  std::uint64_t dummy_reads_ = 0;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t versions_received_ = 0;
  std::uint64_t retransmits_ = 0;
};

}  // namespace faust
