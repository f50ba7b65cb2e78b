// CacheNode — an UNTRUSTED edge cache between clients and a shard's
// FAUST deployment (DESIGN.md D8; ROADMAP "Verifiable edge-cache tier").
//
// The node sits on the same net::Transport / exec::Executor seams as
// every other party and speaks only the cache wire protocol
// (cache_wire.h). It holds NO keys and signs NOTHING: everything it
// stores arrived in a CACHE_FILL from some client, and everything it
// serves is re-verified by the receiving client against the writer's
// DATA signature. A Byzantine cache (or a Byzantine client poisoning it
// with garbage fills) can therefore at worst serve stale-but-authentic
// data or force a fallback to the home shard — never a wrong value.
//
// Storage model (dnscache.c lineage, adapted to partition granularity):
//   * one entry per writer register X_j: (writer_ts, digest, DATA sig,
//     partition bytes, as_of, splice history) — or a NEGATIVE entry
//     recording that the filler observed X_j unwritten (⊥);
//   * TTL-bounded: an entry older than `ttl` ticks (executor time) is a
//     miss and is dropped — the bound on how stale a lost or delayed
//     fill can leave the cache;
//   * LRU over a bounded byte arena: present entries' value and history
//     bytes count against `arena_bytes`; inserting past the bound evicts
//     least-recently-served entries first.
//
// Fill acceptance is monotone per writer: a present tuple with a larger
// writer_ts replaces anything; a negative never displaces a present
// entry (registers go ⊥ → written, never back). An equal-writer_ts,
// equal-digest re-fill refreshes the TTL and freshness stamp, and when
// its bytes differ from the held ones it replaces them and drops the
// history: the cache cannot tell which side is authentic (it verifies
// nothing), honest fills of one (writer_ts, digest) carry identical
// bytes, and the read-through fill that follows a reader's rejection is
// exactly how a poisoned slot heals. Conflicting digests at one
// writer_ts are refused; readers reject whichever side fails
// verification.
//
// Delta tier (D6 applied to the cache): a writer's push fill after a
// SUBMIT_DELTA carries that message's base root and splices. The node
// applies it only to a slot present at that base, and only with a newer
// writer_ts, appending the record to the slot's ustor::DeltaHistory (the
// servers' chain rule and planner). A newer delta fill that finds the
// slot anywhere else proves the slot stale: the node drops it, the next
// lookup misses, and the engine read behind it re-seeds the slot in
// full. A lookup whose advertised base the history reaches is answered
// with a kDelta section of splice runs; a base the history does not reach,
// or runs no smaller than the value, get a full hit.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cache_wire.h"
#include "exec/executor.h"
#include "net/transport.h"
#include "ustor/delta_history.h"

namespace faust::cache {

/// Deployment knobs for the cache tier (embedded in ClusterConfig; the
/// defaults suit the benches' virtual-time scale).
struct CacheOptions {
  /// Deployment has a cache tier: clients wire a CacheClient and read
  /// through it.
  bool enabled = false;
  /// The Cluster owns an honest CacheNode (false: a test attaches its own
  /// node — e.g. a Byzantine one — under kCacheNodeId).
  bool with_node = true;
  /// Byte budget for stored partition values (LRU evicts past it).
  std::size_t arena_bytes = 64ull << 20;
  /// Entry lifetime in executor ticks (0 = never expires).
  exec::Time ttl = 200'000;
  /// Client-side budget for one CACHE_GET round trip before it is scored
  /// a miss (covers a killed or silent cache node; 0 = wait forever).
  exec::Time lookup_timeout = 2'000;
};

/// The cache node proper. All calls run on the owning executor's thread
/// (it is a net::Node like any other protocol party).
class CacheNode : public net::Node {
 public:
  /// Attaches itself to `net` under `self`; detaches on destruction.
  CacheNode(NodeId self, net::Transport& net, exec::Executor& exec, int n,
            CacheOptions opts = {});
  ~CacheNode() override;

  CacheNode(const CacheNode&) = delete;
  CacheNode& operator=(const CacheNode&) = delete;

  void on_message(NodeId from, BytesView msg) override;

  int n() const { return n_; }

  // --- Counters (benches and tests read these at quiescence) ------------
  std::uint64_t lookups() const { return lookups_; }          // CACHE_GETs served
  std::uint64_t hits() const { return hits_; }                // sections: full value
  std::uint64_t unchanged_hits() const { return unchanged_; } // sections: O(1) token
  std::uint64_t delta_hits() const { return delta_hits_; }    // sections: splice runs
  std::uint64_t negatives_served() const { return negatives_served_; }
  std::uint64_t misses() const { return misses_; }            // sections: nothing held
  std::uint64_t expirations() const { return expirations_; }  // TTL drops
  std::uint64_t evictions() const { return evictions_; }      // LRU arena drops
  std::uint64_t fills_accepted() const { return fills_accepted_; }
  std::uint64_t fills_refreshed() const { return fills_refreshed_; }
  std::uint64_t fills_rejected() const { return fills_rejected_; }
  /// Delta fills applied to a slot at their base (also fills_accepted).
  std::uint64_t delta_fills() const { return delta_fills_; }
  /// Newer delta fills a slot could not take: each dropped the slot.
  std::uint64_t slots_dropped() const { return slots_dropped_; }
  /// Equal-(writer_ts, digest) fills whose bytes replaced the held ones.
  std::uint64_t fills_replaced() const { return fills_replaced_; }
  std::uint64_t malformed() const { return malformed_; }
  /// Sections served from an EXPIRED entry to an allow_stale lookup
  /// (D10 degraded reads; always truthfully bounded by as_of).
  std::uint64_t stale_served() const { return stale_served_; }
  /// Bytes of partition values and histories held against the arena.
  std::size_t arena_used() const { return arena_used_; }
  /// True iff a (present or negative) unexpired entry exists for X_j.
  bool holds(ClientId j) const;

 protected:
  struct Entry {
    bool present = false;  // false = negative entry
    Timestamp writer_ts = 0;
    crypto::Hash digest{};
    Bytes sig;
    std::shared_ptr<const Bytes> value;  // present only
    ustor::DeltaHistory history;         // delta fills applied since the last full one
    Timestamp as_of = 0;
    exec::Time filled_at = 0;
    std::uint64_t last_used = 0;  // logical LRU clock

    std::size_t charge() const { return (value ? value->size() : 0) + history.bytes(); }
  };

  /// Adversary seam: a Byzantine cache subclass distorts the fully built
  /// reply sections here, before encoding. The honest node does nothing.
  virtual void corrupt_reply(NodeId to, std::vector<OutSection>& sections);

  /// TTL policy seam: a Byzantine cache overrides this to keep serving
  /// entries past their lifetime (stale-beyond-TTL data — which clients
  /// must surface as staleness, not accept as fresh).
  virtual bool entry_expired(const Entry& e) const;

  /// Adversary seam over fill acceptance (a frozen cache ignores fills).
  virtual bool accept_fills() const { return true; }

  std::optional<Entry>& slot(ClientId j) { return entries_[static_cast<std::size_t>(j - 1)]; }

  exec::Executor& exec_;

 private:
  void handle_get(NodeId from, const GetMessage& m);
  void handle_fill(const FillMessageView& m);
  /// A delta fill for slot `e` (already expiry-checked): applies it at its
  /// base, or drops the slot a newer write left behind.
  void handle_delta_fill(const FillSectionView& s, std::optional<Entry>& e);
  /// Evicts least-recently-used present entries until the arena fits.
  void enforce_arena();

  const NodeId self_;
  net::Transport& net_;
  const int n_;
  const CacheOptions opts_;

  std::vector<std::optional<Entry>> entries_;  // [j-1]
  std::size_t arena_used_ = 0;
  std::uint64_t lru_clock_ = 0;

  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t unchanged_ = 0;
  std::uint64_t delta_hits_ = 0;
  std::uint64_t negatives_served_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t expirations_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t fills_accepted_ = 0;
  std::uint64_t fills_refreshed_ = 0;
  std::uint64_t fills_rejected_ = 0;
  std::uint64_t delta_fills_ = 0;
  std::uint64_t slots_dropped_ = 0;
  std::uint64_t fills_replaced_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t stale_served_ = 0;
};

}  // namespace faust::cache
