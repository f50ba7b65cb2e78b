// CacheClient — the client-side half of the edge-cache hop (DESIGN.md
// D8): issues bulk CACHE_GET lookups, VERIFIES every served section
// against the writer's DATA signature before handing it up, and ships
// CACHE_FILLs (verified read-through and writer push fills).
//
// Verification is exactly the shard-reply discipline applied to the
// cache hop: a served value's digest is recomputed under the
// deployment's DigestMode (chunk-tree root or flat hash) and the
// writer's signature over data_payload(writer_ts, digest) is checked
// through a VerifyCache — so re-serving the same authentic tuple costs
// one hash, and the O(1) "unchanged" token (digest equals the base the
// client advertised from its own verified memo) costs one memoized
// signature check and ships no bytes at all.
//
// A kDelta section (splice runs against the advertised base) gets the
// REPLY_DELTA check: the echoed base must be the advertised one, the runs
// must apply to the base's bytes, and the rebuilt value must rehash to the
// section's digest under the writer's DATA signature. The base bytes come
// from the caller (Base::bytes, which the KV layer answers with the
// verified bytes its memo holds under the advertised digest). Any failure
// is kRejected — a per-register fallback, never fault evidence (the D6
// rule).
//
// What a Byzantine cache can and cannot do through this filter:
//   * tampered value bytes or splices / forged digests / forged
//     signatures / runs from a base other than the advertised one — the
//     recomputed digest or the signature check fails: section REJECTED,
//     caller falls back to the home shard;
//   * a false "unchanged" claim for content that moved on — the shipped
//     (writer_ts, sig) cannot verify against the advertised base digest
//     unless it is the base's own authentic binding, in which case the
//     reply is merely STALE, not wrong;
//   * a bogus negative ("never written") for a register the caller has
//     verified present content of — REJECTED outright: registers never
//     revert to ⊥, so the caller's own memo refutes the claim;
//   * stale-but-authentic data — passes verification by design; the
//     section's as_of freshness horizon surfaces the staleness to the
//     caller (kv::ReadOrigin), it is never hidden.
//
// Threading: lives on its owning shard's executor thread like every
// other protocol object (one lookup timer per in-flight request).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "cache/cache_node.h"
#include "cache/cache_wire.h"
#include "crypto/verify_cache.h"
#include "exec/executor.h"
#include "net/transport.h"
#include "ustor/types.h"

namespace faust::cache {

/// Verified per-register outcome of a lookup.
enum class Outcome : std::uint8_t {
  kMiss = 0,      // cache had nothing (or the lookup timed out)
  kServed = 1,    // verified full value (Section::value)
  kUnchanged = 2, // verified "digest equals your base": reuse the memo
  kNegative = 3,  // plausible never-written claim (unverifiable but consistent)
  kRejected = 4,  // verification failed: Byzantine or poisoned — fall back
};

/// The client-side verifier & fill pump for one (client, shard) pair.
class CacheClient : public net::Node {
 public:
  struct Section {
    Outcome outcome = Outcome::kMiss;
    Timestamp writer_ts = 0;
    crypto::Hash digest{};  // verified digest (kServed / kUnchanged)
    BytesView value;        // kServed only; valid during the callback
    Timestamp as_of = 0;    // freshness horizon (advisory, see file comment)
    /// kServed from a kDelta section: owns the rebuilt value `value` views.
    std::shared_ptr<const Bytes> rebuilt;
  };

  struct Result {
    bool timed_out = false;
    std::vector<Section> sections;  // [j-1]
  };

  /// Invoked once per lookup, on the executor thread. Section value views
  /// alias the reply buffer: consume (decode/copy) within the callback.
  using LookupHandler = std::function<void(const Result&)>;

  /// What the caller already holds verified for X_j: present=true
  /// advertises `digest` (enabling kUnchanged and kDelta, AND arming the
  /// bogus-negative rejection). `bytes` yields the content `digest` was
  /// verified over; only a kDelta section calls it.
  struct Base {
    bool present = false;
    crypto::Hash digest{};
    std::function<Bytes()> bytes;
  };

  /// Attaches to `net` under cache_endpoint(id); talks to `cache_node`.
  /// `sigs` is the deployment's client-shared signature scheme (wrapped in
  /// a private VerifyCache so recurring tuples verify in O(1)).
  CacheClient(ClientId id, NodeId cache_node, int n,
              std::shared_ptr<const crypto::SignatureScheme> sigs,
              ustor::DigestMode digest_mode, net::Transport& net, exec::Executor& exec,
              exec::Time lookup_timeout = 2'000);
  ~CacheClient() override;

  CacheClient(const CacheClient&) = delete;
  CacheClient& operator=(const CacheClient&) = delete;

  /// One bulk lookup for all n registers. `bases[j-1]` advertises the
  /// caller's verified digest of X_j (see Base). Multiple lookups may be
  /// in flight (request-id correlated). `allow_stale` is the D10 degraded
  /// mode: the cache also serves expired-but-held entries (without TTL
  /// refresh) — set only when the home shard is unreachable and
  /// stale-but-authentic beats nothing.
  void lookup(std::vector<Base> bases, LookupHandler done, bool allow_stale = false);

  /// Fire-and-forget CACHE_FILL of verified tuples (read-through or
  /// writer push). Sections with present=false are negative fills.
  void fill(std::vector<FillSection> sections);

  void on_message(NodeId from, BytesView msg) override;

  ClientId id() const { return id_; }

  // --- Counters ---------------------------------------------------------
  std::uint64_t lookups_sent() const { return lookups_sent_; }
  std::uint64_t sections_served() const { return served_; }
  /// kServed sections rebuilt from verified splice runs (not in served).
  std::uint64_t sections_delta() const { return delta_; }
  std::uint64_t sections_unchanged() const { return unchanged_; }
  std::uint64_t sections_negative() const { return negative_; }
  std::uint64_t sections_missed() const { return missed_; }
  std::uint64_t sections_rejected() const { return rejected_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t fills_sent() const { return fills_sent_; }
  std::uint64_t malformed_replies() const { return malformed_; }

 private:
  struct Pending {
    std::vector<Base> bases;
    LookupHandler done;
    exec::EventId timer = 0;
  };

  /// Verifies one raw reply section against its advertised base; returns
  /// the checked Section (kRejected on any failure).
  Section verify_section(ClientId j, const ReplySectionView& raw, const Base& base);

  void complete_missed(std::uint64_t req_id);

  const ClientId id_;
  const NodeId self_;
  const NodeId cache_node_;
  const int n_;
  const std::shared_ptr<const crypto::VerifyCache> sigs_;
  const ustor::DigestMode digest_mode_;
  net::Transport& net_;
  exec::Executor& exec_;
  const exec::Time lookup_timeout_;

  std::uint64_t next_req_ = 1;
  std::map<std::uint64_t, Pending> pending_;

  std::uint64_t lookups_sent_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t delta_ = 0;
  std::uint64_t unchanged_ = 0;
  std::uint64_t negative_ = 0;
  std::uint64_t missed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t fills_sent_ = 0;
  std::uint64_t malformed_ = 0;
};

}  // namespace faust::cache
