// Byzantine cache node behaviours (DESIGN.md D8 threat model).
//
// The cache tier is UNTRUSTED: it holds no keys and clients re-verify
// everything it serves against the writer's DATA signature. These
// subclasses exercise every lie a cache can tell through the honest
// node's adversary seams; the client-side outcome each must produce is
// pinned by tests/cache_byzantine_test.cc:
//
//   * corrupted values or splices / forged digests / forged signatures /
//     splice runs planned from a base other than the advertised one → the
//     client REJECTS the section and falls back to the home shard (never
//     a wrong value, and never a condemned shard — the cache is not a
//     protocol party, so no fail_i);
//   * bogus negatives ("X_j was never written") → rejected whenever the
//     client's own verified knowledge refutes them (registers never
//     revert to ⊥);
//   * fake "unchanged" claims → rejected unless the writer's signature
//     binds the claimed timestamp to the exact digest the client
//     advertised — which a cache without the value cannot fake;
//   * stale-beyond-TTL serving → at worst stale-but-AUTHENTIC data,
//     surfaced through the as_of freshness horizon (and never eligible
//     for stability claims);
//   * frozen fills → the cache just degrades to a miss machine.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache_node.h"

namespace faust::adversary {

/// A CacheNode that misbehaves in one configured way.
class EvilCacheNode : public cache::CacheNode {
 public:
  enum class Mode : std::uint8_t {
    kHonest = 0,
    /// Flips a byte of every served value (digest recompute fails).
    kTamperValue,
    /// Flips a byte of every served digest, full or delta (signature
    /// check fails).
    kForgeDigest,
    /// Flips a byte of every served DATA signature, full or delta.
    kForgeSig,
    /// Claims every register unwritten, whatever is cached.
    kBogusNegative,
    /// Serves full hits as valueless "unchanged" tokens.
    kFakeUnchanged,
    /// Never expires entries: serves arbitrarily stale (authentic) data.
    kStaleBeyondTtl,
    /// Silently drops every CACHE_FILL (cache degrades to a miss machine).
    kFreezeFills,
    /// Flips a byte of a splice insert in every delta section.
    kTamperSplice,
    /// Serves every delta section's runs from the base one record newer
    /// than the advertised one (drops the first run), still echoing the
    /// advertised base.
    kForgeBase,
  };

  EvilCacheNode(NodeId self, net::Transport& net, exec::Executor& exec, int n,
                cache::CacheOptions opts, Mode mode)
      : cache::CacheNode(self, net, exec, n, opts), mode_(mode) {}

  Mode mode() const { return mode_; }

  /// Sections this node actively distorted (not counting TTL/fill modes).
  std::uint64_t corruptions() const { return corruptions_; }

 protected:
  void corrupt_reply(NodeId to, std::vector<cache::OutSection>& sections) override;
  bool entry_expired(const Entry& e) const override;
  bool accept_fills() const override;

 private:
  const Mode mode_;
  std::uint64_t corruptions_ = 0;
  /// kTamperSplice: the tampered runs of the reply being built.
  std::vector<std::vector<ustor::Splice>> forged_;
};

}  // namespace faust::adversary
